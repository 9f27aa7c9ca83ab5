// readpath — read-path benchmark: resident vs mmap vs folded serving.
//
// The tentpole claim of the memory-independent read path is that a v2
// aligned index can be served (a) without heap-resident slices, through the
// mmap SliceSource, bit-identically to the resident backend, and (b) at a
// fraction of its bytes after fold compaction, with every folded count still
// an upper bound on the exact count. This benchmark measures both on an
// index whose slice data exceeds a configurable resident-memory budget:
//
//   resident   — BbsIndex::Load: heap slices, fully verified at load
//   mmap-cold  — BbsIndex::OpenMmap, first query pass (pages faulted in
//                on demand; the fault deltas are the real-memory signal)
//   mmap-warm  — second pass over the same mapping (pages already mapped)
//   folded     — the index folded to bits/4: serialized bytes before/after
//                plus an upper-bound check of every estimate against the
//                exact count from a database scan
//
// Emits a machine-readable JSON report (default BENCH_readpath.json; CI's
// bench-smoke job validates and uploads it):
//   checksum   — sum of all estimates in a leg; resident and both mmap legs
//                must agree exactly (bit-identical serving)
//   exceeds_budget — slice bytes > --budget-bytes while the mmap backend
//                pins ~0 heap bytes for them
//
// `readpath --help` lists the flags.

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "core/bbs_index.h"
#include "datagen/quest_gen.h"
#include "obs/json.h"
#include "storage/transaction_db.h"
#include "util/flags.h"
#include "util/rusage.h"
#include "util/status.h"
#include "util/stopwatch.h"

using namespace bbsmine;

namespace {

[[noreturn]] void Die(const Status& status) {
  std::fprintf(stderr, "readpath: %s\n", status.ToString().c_str());
  std::exit(1);
}

/// One query pass: sums the estimates (the cross-leg checksum).
struct LegResult {
  double seconds = 0;
  uint64_t checksum = 0;
  uint64_t resident_slice_bytes = 0;
  uint64_t minor_faults = 0;
  uint64_t major_faults = 0;
};

LegResult RunLeg(const BbsIndex& bbs, const std::vector<Itemset>& queries) {
  LegResult leg;
  leg.resident_slice_bytes = bbs.ApproxResidentBytes();
  const PageFaultCounters before = CurrentPageFaults();
  Stopwatch timer;
  for (const Itemset& query : queries) {
    leg.checksum += bbs.CountItemSet(query);
  }
  leg.seconds = timer.ElapsedSeconds();
  const PageFaultCounters delta = CurrentPageFaults() - before;
  leg.minor_faults = delta.minor;
  leg.major_faults = delta.major;
  return leg;
}

obs::JsonValue LegJson(const LegResult& leg) {
  obs::JsonValue out = obs::JsonValue::Object();
  out.Set("seconds", obs::JsonValue::Double(leg.seconds));
  out.Set("checksum", obs::JsonValue::Uint(leg.checksum));
  out.Set("resident_slice_bytes",
          obs::JsonValue::Uint(leg.resident_slice_bytes));
  out.Set("minor_faults", obs::JsonValue::Uint(leg.minor_faults));
  out.Set("major_faults", obs::JsonValue::Uint(leg.major_faults));
  return out;
}

/// Exact support of `query` by database scan (the ground truth every
/// folded estimate must upper-bound).
uint64_t ExactCount(const TransactionDatabase& db, const Itemset& query) {
  uint64_t count = 0;
  for (size_t t = 0; t < db.size(); ++t) {
    const Itemset& txn = db.At(t).items;
    if (std::includes(txn.begin(), txn.end(), query.begin(), query.end())) {
      ++count;
    }
  }
  return count;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  uint32_t txns = 20'000;
  uint32_t items = 400;
  uint32_t bits = 4'096;
  uint32_t hashes = 4;
  uint64_t num_queries = 200;
  uint64_t budget_bytes = 4ull << 20;
  std::string out_path = "BENCH_readpath.json";
  std::string work_path = "/tmp/bbsmine_readpath.bbs";
  FlagSet flags("readpath",
                "read-path benchmark: resident vs mmap vs folded serving");
  flags.Bool("quick", &quick,
             "CI size: 6000 txns, 2048 bits, 64 queries unless given");
  flags.Unsigned("txns", &txns, "transactions");
  flags.Unsigned("items", &items, "item universe", 1);
  flags.Unsigned("bits", &bits, "signature width m");
  flags.Unsigned("hashes", &hashes, "hashes per item k");
  flags.Unsigned("queries", &num_queries, "queries per leg");
  flags.Unsigned("budget-bytes", &budget_bytes,
                 "resident-memory budget the slice data is compared with");
  flags.String("out", &out_path, "report path");
  flags.String("work", &work_path, "scratch path of the index file");
  flags.ParseOrExit(argc, argv, 1);
  if (quick) {
    if (!flags.WasSet("txns")) txns = 6'000;
    if (!flags.WasSet("bits")) bits = 2'048;
    if (!flags.WasSet("queries")) num_queries = 64;
  }

  // Workload: a Quest dataset and the v2 aligned index file on disk.
  QuestConfig gen;
  gen.num_transactions = txns;
  gen.num_items = items;
  gen.avg_transaction_size = 10;
  gen.avg_pattern_size = 4;
  gen.num_patterns = 60;
  gen.seed = 7;
  auto db = GenerateQuest(gen);
  if (!db.ok()) Die(db.status());

  BbsConfig config;
  config.num_bits = bits;
  config.num_hashes = hashes;
  auto built = BbsIndex::Create(config);
  if (!built.ok()) Die(built.status());
  built->InsertAll(*db);
  if (Status saved = built->Save(work_path); !saved.ok()) Die(saved);

  const uint64_t words_per_slice = (static_cast<uint64_t>(txns) + 63) / 64;
  const uint64_t stride = (words_per_slice * 8 + 63) / 64 * 64;
  const uint64_t slice_bytes = static_cast<uint64_t>(bits) * stride;
  const uint64_t file_bytes = built->SerializedBytes();
  const bool exceeds_budget = slice_bytes > budget_bytes;

  // Deterministic query mix: singletons and pairs over the item universe.
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<uint32_t> pick_item(0, items - 1);
  std::vector<Itemset> queries;
  queries.reserve(num_queries);
  for (uint64_t q = 0; q < num_queries; ++q) {
    Itemset query;
    query.push_back(static_cast<ItemId>(pick_item(rng)));
    if (q % 2 == 1) query.push_back(static_cast<ItemId>(pick_item(rng)));
    Canonicalize(&query);
    queries.push_back(std::move(query));
  }

  std::printf("readpath: %u txns, %u items, m=%u k=%u, %zu queries\n", txns,
              items, bits, hashes, queries.size());
  std::printf("  slice bytes %llu, file bytes %llu, budget %llu (%s)\n",
              static_cast<unsigned long long>(slice_bytes),
              static_cast<unsigned long long>(file_bytes),
              static_cast<unsigned long long>(budget_bytes),
              exceeds_budget ? "index exceeds budget" : "fits in budget");

  // Leg 1: resident (fully verified heap load).
  auto resident = BbsIndex::Load(work_path);
  if (!resident.ok()) Die(resident.status());
  const LegResult resident_leg = RunLeg(*resident, queries);

  // Legs 2+3: mmap cold (first touch faults the slice pages in) then warm.
  auto mapped = BbsIndex::OpenMmap(work_path);
  if (!mapped.ok()) Die(mapped.status());
  const LegResult mmap_cold_leg = RunLeg(*mapped, queries);
  const LegResult mmap_warm_leg = RunLeg(*mapped, queries);

  // Leg 4: fold compaction to a quarter of the width. Counts must remain
  // upper bounds on the exact supports.
  const uint32_t fold_bits = std::max(64u, bits / 4);
  BbsIndex folded = resident->Fold(fold_bits);
  const uint64_t bytes_before = resident->SerializedBytes();
  const uint64_t bytes_after = folded.SerializedBytes();
  const LegResult folded_leg = RunLeg(folded, queries);
  uint64_t upper_bound_violations = 0;
  for (const Itemset& query : queries) {
    if (folded.CountItemSet(query) < ExactCount(*db, query)) {
      ++upper_bound_violations;
    }
  }

  const bool parity = resident_leg.checksum == mmap_cold_leg.checksum &&
                      resident_leg.checksum == mmap_warm_leg.checksum;
  const double bytes_ratio =
      bytes_after == 0 ? 0.0
                       : static_cast<double>(bytes_before) /
                             static_cast<double>(bytes_after);

  std::printf("  resident:  %.4fs  checksum %llu  heap %llu B\n",
              resident_leg.seconds,
              static_cast<unsigned long long>(resident_leg.checksum),
              static_cast<unsigned long long>(
                  resident_leg.resident_slice_bytes));
  std::printf("  mmap-cold: %.4fs  checksum %llu  heap %llu B  "
              "faults %llu/%llu (min/maj)\n",
              mmap_cold_leg.seconds,
              static_cast<unsigned long long>(mmap_cold_leg.checksum),
              static_cast<unsigned long long>(
                  mmap_cold_leg.resident_slice_bytes),
              static_cast<unsigned long long>(mmap_cold_leg.minor_faults),
              static_cast<unsigned long long>(mmap_cold_leg.major_faults));
  std::printf("  mmap-warm: %.4fs  checksum %llu\n", mmap_warm_leg.seconds,
              static_cast<unsigned long long>(mmap_warm_leg.checksum));
  std::printf("  folded(m=%u): %.4fs  %llu -> %llu bytes (%.2fx)  "
              "violations %llu\n",
              fold_bits, folded_leg.seconds,
              static_cast<unsigned long long>(bytes_before),
              static_cast<unsigned long long>(bytes_after), bytes_ratio,
              static_cast<unsigned long long>(upper_bound_violations));
  std::printf("  parity: %s\n", parity ? "bit-identical" : "MISMATCH");

  obs::JsonValue report = obs::JsonValue::Object();
  report.Set("schema_version", obs::JsonValue::Int(1));
  report.Set("kind", obs::JsonValue::String("bbsmine_readpath"));

  obs::JsonValue cfg = obs::JsonValue::Object();
  cfg.Set("transactions", obs::JsonValue::Uint(txns));
  cfg.Set("items", obs::JsonValue::Uint(items));
  cfg.Set("bits", obs::JsonValue::Uint(bits));
  cfg.Set("hashes", obs::JsonValue::Uint(hashes));
  cfg.Set("queries", obs::JsonValue::Uint(queries.size()));
  cfg.Set("budget_bytes", obs::JsonValue::Uint(budget_bytes));
  report.Set("config", std::move(cfg));

  obs::JsonValue index = obs::JsonValue::Object();
  index.Set("slice_bytes", obs::JsonValue::Uint(slice_bytes));
  index.Set("file_bytes", obs::JsonValue::Uint(file_bytes));
  index.Set("exceeds_budget", obs::JsonValue::Bool(exceeds_budget));
  report.Set("index", std::move(index));

  obs::JsonValue legs = obs::JsonValue::Object();
  legs.Set("resident", LegJson(resident_leg));
  legs.Set("mmap_cold", LegJson(mmap_cold_leg));
  legs.Set("mmap_warm", LegJson(mmap_warm_leg));
  obs::JsonValue folded_json = LegJson(folded_leg);
  folded_json.Set("fold_bits", obs::JsonValue::Uint(fold_bits));
  folded_json.Set("bytes_before", obs::JsonValue::Uint(bytes_before));
  folded_json.Set("bytes_after", obs::JsonValue::Uint(bytes_after));
  folded_json.Set("bytes_ratio", obs::JsonValue::Double(bytes_ratio));
  folded_json.Set("upper_bound_violations",
                  obs::JsonValue::Uint(upper_bound_violations));
  legs.Set("folded", std::move(folded_json));
  report.Set("legs", std::move(legs));

  obs::JsonValue parity_json = obs::JsonValue::Object();
  parity_json.Set("mmap_matches_resident", obs::JsonValue::Bool(parity));
  report.Set("parity", std::move(parity_json));

  if (Status written = obs::WriteJsonFile(report, out_path); !written.ok()) {
    Die(written);
  }
  std::printf("wrote %s\n", out_path.c_str());
  std::remove(work_path.c_str());
  return parity && upper_bound_violations == 0 ? 0 : 1;
}
