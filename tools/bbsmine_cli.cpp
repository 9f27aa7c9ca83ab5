// bbsmine — command-line front end for the BBS mining library.
//
// `bbsmine --help` lists the subcommands; `bbsmine <command> --help` lists
// a subcommand's flags with their defaults.
//
// Examples:
//   bbsmine gen --txns 10000 --items 10000 --t 10 --i 10 --out data.fimi
//   bbsmine convert --in data.fimi --out data.db
//   bbsmine build --db data.db --bits 1600 --hashes 4 --out data.bbs
//   bbsmine mine --db data.db --index data.bbs --algo dfp --minsup 0.003
//   bbsmine count --db data.db --index data.bbs --items 3,17,42 --tid-mod 7:0

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <sys/stat.h>

#include "baseline/apriori.h"
#include "baseline/eclat.h"
#include "baseline/fp_tree.h"
#include "core/adhoc.h"
#include "core/approximate.h"
#include "core/bbs_index.h"
#include "core/miner.h"
#include "core/pattern_sets.h"
#include "core/rules.h"
#include "core/segmented_bbs.h"
#include "datagen/quest_gen.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "service/client.h"
#include "service/wire.h"
#include "storage/fimi_io.h"
#include "storage/transaction_db.h"
#include "tool_flags.h"
#include "util/bitvector_kernels.h"
#include "util/rusage.h"
#include "util/socket.h"
#include "util/thread_pool.h"

using namespace bbsmine;

namespace {

[[noreturn]] void Die(const Status& status) {
  std::cerr << "error: " << status.ToString() << "\n";
  std::exit(1);
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

TransactionDatabase LoadDb(const std::string& path) {
  if (EndsWith(path, ".fimi") || EndsWith(path, ".dat") ||
      EndsWith(path, ".txt")) {
    auto db = ReadFimi(path);
    if (!db.ok()) Die(db.status());
    return std::move(db).value();
  }
  auto db = TransactionDatabase::Load(path);
  if (!db.ok()) Die(db.status());
  return std::move(db).value();
}

/// Loads a monolithic index honoring --index-backend: "resident" reads and
/// fully verifies the file into heap slices; "mmap" serves the v2 aligned
/// file in place (header-verified, slice pages faulted on demand).
Result<BbsIndex> LoadIndexWithBackend(const std::string& path,
                                      IndexBackend backend) {
  return backend == IndexBackend::kMmap ? BbsIndex::OpenMmap(path)
                                        : BbsIndex::Load(path);
}

/// Parses one unsigned field of a compound flag value ("--items A,B,C",
/// "--tid-mod M:R"); malformed text is a usage error naming the flag.
uint64_t ParseField(const FlagSet& flags, const char* flag,
                    std::string_view text, uint64_t max = UINT64_MAX) {
  uint64_t value = 0;
  if (Status parsed = ParseUnsignedText(text, 0, max, &value); !parsed.ok()) {
    flags.UsageError(std::string("--") + flag + ": " + parsed.message());
  }
  return value;
}

Itemset ParseItems(const FlagSet& flags, const std::string& spec) {
  Itemset items;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string_view item =
        std::string_view(spec).substr(pos, comma - pos);
    items.push_back(
        static_cast<ItemId>(ParseField(flags, "items", item, UINT32_MAX)));
    pos = comma + 1;
  }
  Canonicalize(&items);
  return items;
}

int CmdGen(FlagSet& flags, int argc, char** argv) {
  QuestConfig config;
  std::string out;
  flags.String("out", &out, "output (.fimi/.dat text, else binary)",
               FlagSet::kRequired);
  flags.Unsigned("txns", &config.num_transactions, "transactions (D)");
  flags.Unsigned("items", &config.num_items, "item universe (N)");
  flags.Double("t", &config.avg_transaction_size, "mean transaction size");
  flags.Double("i", &config.avg_pattern_size, "mean pattern size");
  flags.Unsigned("patterns", &config.num_patterns, "pattern pool size");
  flags.Unsigned("seed", &config.seed, "generator seed");
  flags.ParseOrExit(argc, argv, 2);

  auto db = GenerateQuest(config);
  if (!db.ok()) Die(db.status());
  Status status = EndsWith(out, ".fimi") || EndsWith(out, ".dat")
                      ? WriteFimi(*db, out)
                      : db->Save(out);
  if (!status.ok()) Die(status);
  std::printf("wrote %zu transactions (%llu bytes of records) to %s\n",
              db->size(),
              static_cast<unsigned long long>(db->SerializedBytes()),
              out.c_str());
  return 0;
}

int CmdConvert(FlagSet& flags, int argc, char** argv) {
  std::string in;
  std::string out;
  flags.String("in", &in, "input (.fimi/.dat/.txt text)", FlagSet::kRequired);
  flags.String("out", &out, "output (.fimi/.dat text, else binary)",
               FlagSet::kRequired);
  flags.ParseOrExit(argc, argv, 2);
  TransactionDatabase db = LoadDb(in);
  Status status = EndsWith(out, ".fimi") || EndsWith(out, ".dat")
                      ? WriteFimi(db, out)
                      : db.Save(out);
  if (!status.ok()) Die(status);
  std::printf("converted %zu transactions to %s\n", db.size(), out.c_str());
  return 0;
}

int CmdBuild(FlagSet& flags, int argc, char** argv) {
  std::string db_path;
  std::string out;
  BbsConfig config;
  std::string hash = "md5";
  uint64_t capacity = 0;
  flags.String("db", &db_path, "transaction database", FlagSet::kRequired);
  flags.String("out", &out, "index file or segmented prefix",
               FlagSet::kRequired);
  flags.Unsigned("bits", &config.num_bits, "signature width m");
  flags.Unsigned("hashes", &config.num_hashes, "hashes per item k");
  flags.Choice("hash", &hash, "hash family", {"md5", "mult", "mod"});
  flags.Unsigned("seed", &config.seed, "hash seed");
  flags.Unsigned("segment-capacity", &capacity,
                 "> 0: segmented index (OUT.manifest), as bbsmined serves");
  flags.ParseOrExit(argc, argv, 2);
  config.hash_kind = hash == "md5"    ? HashKind::kMd5
                     : hash == "mult" ? HashKind::kMultiplyShift
                                      : HashKind::kModulo;
  TransactionDatabase db = LoadDb(db_path);

  if (capacity > 0) {
    auto segmented = SegmentedBbs::Create(config, capacity);
    if (!segmented.ok()) Die(segmented.status());
    if (Status st = segmented->InsertAll(db); !st.ok()) Die(st);
    if (Status st = segmented->Save(out); !st.ok()) Die(st);
    std::printf(
        "built segmented BBS: m=%u, k=%u, %zu transactions in %zu "
        "segments of %llu, %llu bytes -> %s.manifest\n",
        segmented->config().num_bits, config.num_hashes,
        segmented->num_transactions(), segmented->num_segments(),
        static_cast<unsigned long long>(capacity),
        static_cast<unsigned long long>(segmented->SerializedBytes()),
        out.c_str());
    return 0;
  }

  auto bbs = BbsIndex::Create(config);
  if (!bbs.ok()) Die(bbs.status());
  bbs->InsertAll(db);
  if (Status st = bbs->Save(out); !st.ok()) Die(st);
  std::printf("built BBS: m=%u, k=%u, %zu transactions, %llu bytes -> %s\n",
              bbs->num_bits(), config.num_hashes, bbs->num_transactions(),
              static_cast<unsigned long long>(bbs->SerializedBytes()),
              out.c_str());
  return 0;
}

int CmdStats(FlagSet& flags, int argc, char** argv) {
  std::string db_path;
  std::string index_path;
  flags.String("db", &db_path, "database to describe");
  flags.String("index", &index_path, "index to describe");
  flags.ParseOrExit(argc, argv, 2);
  if (!db_path.empty()) {
    TransactionDatabase db = LoadDb(db_path);
    uint64_t total_items = 0;
    size_t max_len = 0;
    for (size_t t = 0; t < db.size(); ++t) {
      total_items += db.At(t).items.size();
      max_len = std::max(max_len, db.At(t).items.size());
    }
    std::printf("database %s:\n  transactions: %zu\n  item universe: %u\n"
                "  distinct items: %zu\n  avg txn length: %.2f (max %zu)\n"
                "  serialized bytes: %llu\n",
                db_path.c_str(), db.size(), db.item_universe(),
                db.DistinctItems().size(),
                db.empty() ? 0.0
                           : static_cast<double>(total_items) /
                                 static_cast<double>(db.size()),
                max_len,
                static_cast<unsigned long long>(db.SerializedBytes()));
  }
  if (!index_path.empty()) {
    auto bbs = BbsIndex::Load(index_path);
    if (!bbs.ok()) Die(bbs.status());
    size_t min_pop = SIZE_MAX;
    size_t max_pop = 0;
    uint64_t total_pop = 0;
    for (uint32_t s = 0; s < bbs->num_bits(); ++s) {
      size_t pop = bbs->SlicePopcount(s);
      min_pop = std::min(min_pop, pop);
      max_pop = std::max(max_pop, pop);
      total_pop += pop;
    }
    std::printf("index %s:\n  m=%u bits, k=%u hashes, hash kind %d%s\n"
                "  transactions: %zu\n  serialized bytes: %llu\n"
                "  slice popcount min/avg/max: %zu / %.1f / %zu\n",
                index_path.c_str(), bbs->num_bits(), bbs->config().num_hashes,
                static_cast<int>(bbs->config().hash_kind),
                bbs->is_folded() ? " (folded)" : "",
                bbs->num_transactions(),
                static_cast<unsigned long long>(bbs->SerializedBytes()),
                min_pop == SIZE_MAX ? 0 : min_pop,
                bbs->num_bits()
                    ? static_cast<double>(total_pop) / bbs->num_bits()
                    : 0.0,
                max_pop);
  }
  return 0;
}

int CmdMine(FlagSet& flags, int argc, char** argv) {
  // Report context; only the BBS schemes fill the config/index fields.
  MineConfig config;
  std::string db_path;
  std::string index_path;
  std::string algo = "dfp";
  size_t top = 10;
  bool closed = false;
  bool maximal = false;
  std::string out;
  std::string stats_json;
  bool report = false;
  std::string trace_out;
  bool trace_kernels = false;
  std::string backend_name = "resident";
  flags.String("db", &db_path, "transaction database", FlagSet::kRequired);
  flags.String("index", &index_path, "BBS index (BBS schemes)");
  flags.Choice("algo", &algo, "mining scheme",
               {"sfs", "sfp", "dfs", "dfp", "apriori", "fpgrowth", "eclat"});
  AddMinsupFlag(&flags, &config.min_support);
  flags.Unsigned("budget", &config.memory_budget_bytes,
                 "memory budget, bytes (0 = unlimited)");
  flags.Unsigned("top", &top, "patterns printed");
  flags.Unsigned("threads", &config.num_threads,
                 "BBS threads (0 = all cores; same patterns at any count)");
  flags.Bool("closed", &closed, "keep only closed patterns");
  flags.Bool("maximal", &maximal, "keep only maximal patterns");
  flags.String("out", &out, "write every pattern here");
  flags.String("stats-json", &stats_json, "write the JSON run report here");
  flags.Bool("report", &report, "print the run report as a table");
  flags.String("trace-out", &trace_out,
               "write a Chrome trace here (BBS schemes; ui.perfetto.dev)");
  flags.Bool("trace-kernels", &trace_kernels, "also trace kernel calls");
  AddIndexBackendFlag(&flags, &backend_name);
  flags.ParseOrExit(argc, argv, 2);
  const double min_support = config.min_support;
  TransactionDatabase db = LoadDb(db_path);

  std::optional<obs::Tracer> tracer;
  if (!trace_out.empty()) {
    uint32_t categories = obs::kTraceDefault;
    if (trace_kernels) categories |= obs::kTraceKernel;
    tracer.emplace(categories);
  }

  uint32_t index_bits = 0;
  uint32_t index_hashes = 0;
  std::string index_backend = "resident";
  uint64_t resident_slice_bytes = 0;
  PageFaultCounters fault_delta;
  bool is_bbs = false;

  MiningResult result;
  if (algo == "apriori") {
    AprioriConfig apriori_config;
    apriori_config.min_support = min_support;
    apriori_config.memory_budget_bytes = config.memory_budget_bytes;
    result = MineApriori(db, apriori_config);
  } else if (algo == "eclat") {
    EclatConfig eclat_config;
    eclat_config.min_support = min_support;
    result = MineEclat(db, eclat_config);
  } else if (algo == "fpgrowth") {
    FpGrowthConfig fp_config;
    fp_config.min_support = min_support;
    fp_config.memory_budget_bytes = config.memory_budget_bytes;
    result = MineFpGrowth(db, fp_config);
  } else {
    is_bbs = true;
    if (tracer.has_value()) config.tracer = &*tracer;
    config.algorithm = algo == "sfs"   ? Algorithm::kSFS
                       : algo == "sfp" ? Algorithm::kSFP
                       : algo == "dfs" ? Algorithm::kDFS
                                       : Algorithm::kDFP;
    if (index_path.empty()) flags.UsageError("missing required flag --index");
    auto bbs =
        LoadIndexWithBackend(index_path, *ParseIndexBackend(backend_name));
    if (!bbs.ok()) Die(bbs.status());
    if (bbs->num_transactions() != db.size()) {
      std::cerr << "index/database mismatch: " << bbs->num_transactions()
                << " vs " << db.size() << " transactions\n";
      return 1;
    }
    index_bits = bbs->num_bits();
    index_hashes = bbs->config().num_hashes;
    index_backend = bbs->backend_name();
    resident_slice_bytes = bbs->ApproxResidentBytes();
    const PageFaultCounters faults_before = CurrentPageFaults();
    result = MineFrequentPatterns(db, *bbs, config);
    fault_delta = CurrentPageFaults() - faults_before;
  }

  if (!stats_json.empty() || report) {
    obs::RunReportContext ctx;
    for (char& c : algo) c = static_cast<char>(std::toupper(c));
    ctx.scheme = algo;
    ctx.config = is_bbs ? &config : nullptr;
    ctx.num_transactions = db.size();
    ctx.item_universe = db.item_universe();
    ctx.tau = AbsoluteThreshold(min_support, db.size());
    ctx.resolved_threads = static_cast<uint32_t>(
        is_bbs ? ResolveThreads(config.num_threads) : 1);
    ctx.kernel = kernels::ActiveName();
    ctx.index_bits = index_bits;
    ctx.index_hashes = index_hashes;
    ctx.index_backend = index_backend;
    ctx.resident_slice_bytes = resident_slice_bytes;
    ctx.minor_faults = fault_delta.minor;
    ctx.major_faults = fault_delta.major;
    obs::JsonValue run_report = obs::BuildRunReport(ctx, result);
    if (!stats_json.empty()) {
      if (Status st = obs::WriteJsonFile(run_report, stats_json); !st.ok()) {
        Die(st);
      }
      std::printf("wrote run report to %s\n", stats_json.c_str());
    }
    if (report) obs::PrintRunReportTable(run_report, std::cout);
  }
  if (tracer.has_value()) {
    if (Status st = tracer->WriteJson(trace_out); !st.ok()) Die(st);
    std::printf("wrote trace (%zu events) to %s\n", tracer->event_count(),
                trace_out.c_str());
  }

  std::printf(
      "%zu frequent patterns (minsup %.4f%%, tau %llu)\n"
      "candidates %llu, false drops %llu, certified %llu, db scans %llu, "
      "%.1f ms\n",
      result.patterns.size(), min_support * 100,
      static_cast<unsigned long long>(
          AbsoluteThreshold(min_support, db.size())),
      static_cast<unsigned long long>(result.stats.candidates),
      static_cast<unsigned long long>(result.stats.false_drops),
      static_cast<unsigned long long>(result.stats.certified),
      static_cast<unsigned long long>(result.stats.db_scans),
      result.stats.total_seconds * 1e3);

  std::sort(result.patterns.begin(), result.patterns.end(),
            [](const Pattern& a, const Pattern& b) {
              return a.support > b.support;
            });
  for (size_t i = 0; i < std::min(top, result.patterns.size()); ++i) {
    std::printf("  %8llu  %s\n",
                static_cast<unsigned long long>(result.patterns[i].support),
                ItemsetToString(result.patterns[i].items).c_str());
  }
  if (closed || maximal) {
    std::vector<Pattern> condensed = maximal
                                         ? MaximalPatterns(result.patterns)
                                         : ClosedPatterns(result.patterns);
    std::printf("%s patterns: %zu of %zu\n", maximal ? "maximal" : "closed",
                condensed.size(), result.patterns.size());
    result.patterns = std::move(condensed);
  }
  if (!out.empty()) {
    std::FILE* f = std::fopen(out.c_str(), "w");
    if (f == nullptr) {
      std::cerr << "cannot open " << out << "\n";
      return 1;
    }
    for (const Pattern& p : result.patterns) {
      for (size_t i = 0; i < p.items.size(); ++i) {
        std::fprintf(f, "%s%u", i ? " " : "", p.items[i]);
      }
      std::fprintf(f, " (%llu)\n",
                   static_cast<unsigned long long>(p.support));
    }
    std::fclose(f);
    std::printf("wrote all patterns to %s\n", out.c_str());
  }
  return 0;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

/// Index-only count: no database, so no refinement — the printed estimate
/// is exactly what the daemon answers from a snapshot of the same index.
/// This is the oracle the CI smoke test diffs `bbsmine client` against.
int CountIndexOnly(const std::string& index_path, const Itemset& items,
                   IndexBackend backend) {
  size_t estimate;
  size_t transactions;
  if (FileExists(index_path + ".manifest")) {
    auto segmented = SegmentedBbs::Load(index_path, nullptr, backend);
    if (!segmented.ok()) Die(segmented.status());
    estimate = segmented->CountItemSet(items);
    transactions = segmented->num_transactions();
  } else {
    auto bbs = LoadIndexWithBackend(index_path, backend);
    if (!bbs.ok()) Die(bbs.status());
    estimate = bbs->CountItemSet(items);
    transactions = bbs->num_transactions();
  }
  std::printf("pattern %s\n  estimate %zu (no database: estimate only, "
              "%zu transactions indexed)\n",
              ItemsetToString(items).c_str(), estimate, transactions);
  return 0;
}

int CmdCount(FlagSet& flags, int argc, char** argv) {
  std::string db_path;
  std::string index_path;
  std::string items_spec;
  std::string tid_mod;
  std::string backend_name = "resident";
  flags.String("db", &db_path,
               "transaction database; without it, the index-only estimate");
  flags.String("index", &index_path, "BBS index or segmented prefix",
               FlagSet::kRequired);
  flags.String("items", &items_spec, "itemset A,B,C", FlagSet::kRequired);
  flags.String("tid-mod", &tid_mod, "M:R: only tids with tid % M == R");
  AddIndexBackendFlag(&flags, &backend_name);
  flags.ParseOrExit(argc, argv, 2);
  const Itemset items = ParseItems(flags, items_spec);
  const IndexBackend backend = *ParseIndexBackend(backend_name);
  if (db_path.empty()) {
    if (!tid_mod.empty()) flags.UsageError("--tid-mod needs --db");
    return CountIndexOnly(index_path, items, backend);
  }

  TransactionDatabase db = LoadDb(db_path);
  auto bbs = LoadIndexWithBackend(index_path, backend);
  if (!bbs.ok()) Die(bbs.status());

  BitVector constraint;
  const BitVector* constraint_ptr = nullptr;
  if (!tid_mod.empty()) {
    const size_t colon = tid_mod.find(':');
    const std::string_view spec(tid_mod);
    const uint64_t mod = ParseField(flags, "tid-mod", spec.substr(0, colon));
    const uint64_t rem =
        colon == std::string::npos
            ? 0
            : ParseField(flags, "tid-mod", spec.substr(colon + 1));
    if (mod == 0) flags.UsageError("--tid-mod wants M:R with M > 0");
    constraint = MakeConstraintSlice(db, [mod, rem](const Transaction& txn) {
      return txn.tid % mod == rem;
    });
    constraint_ptr = &constraint;
  }

  AdhocQueryResult result =
      CountPatternExact(db, *bbs, items, constraint_ptr);
  std::printf("pattern %s%s\n  estimate %llu, exact %llu, probed %llu "
              "transactions\n",
              ItemsetToString(items).c_str(),
              constraint_ptr ? " (constrained)" : "",
              static_cast<unsigned long long>(result.estimate),
              static_cast<unsigned long long>(result.exact),
              static_cast<unsigned long long>(result.probed_transactions));
  return 0;
}

int CmdRules(FlagSet& flags, int argc, char** argv) {
  std::string db_path;
  FpGrowthConfig mine;
  RuleConfig config;
  config.max_rules = 20;
  flags.String("db", &db_path, "transaction database", FlagSet::kRequired);
  AddMinsupFlag(&flags, &mine.min_support);
  flags.Double("minconf", &config.min_confidence, "minimum confidence");
  flags.Unsigned("top", &config.max_rules, "rules printed");
  flags.ParseOrExit(argc, argv, 2);
  const double min_support = mine.min_support;
  TransactionDatabase db = LoadDb(db_path);
  MiningResult result = MineFpGrowth(db, mine);
  result.SortPatterns();

  std::vector<AssociationRule> rules =
      GenerateRules(result, db.size(), config);
  std::printf("%zu rules (minsup %.3f%%, minconf %.2f)\n", rules.size(),
              min_support * 100, config.min_confidence);
  for (const AssociationRule& r : rules) {
    std::printf("  %s => %s  conf %.3f  lift %.2f  support %llu\n",
                ItemsetToString(r.antecedent).c_str(),
                ItemsetToString(r.consequent).c_str(), r.confidence, r.lift,
                static_cast<unsigned long long>(r.support));
  }
  return 0;
}

int CmdApprox(FlagSet& flags, int argc, char** argv) {
  std::string db_path;
  std::string index_path;
  ApproxMineConfig config;
  size_t top = 10;
  flags.String("db", &db_path, "transaction database", FlagSet::kRequired);
  flags.String("index", &index_path, "BBS index", FlagSet::kRequired);
  AddMinsupFlag(&flags, &config.min_support);
  flags.Double("minconf", &config.min_confidence, "minimum confidence");
  flags.Unsigned("top", &top, "patterns printed");
  flags.ParseOrExit(argc, argv, 2);
  TransactionDatabase db = LoadDb(db_path);
  auto bbs = BbsIndex::Load(index_path);
  if (!bbs.ok()) Die(bbs.status());
  if (bbs->num_transactions() != db.size()) {
    std::cerr << "index/database mismatch\n";
    return 1;
  }
  Itemset universe(db.item_universe());
  for (ItemId i = 0; i < db.item_universe(); ++i) universe[i] = i;

  std::vector<ApproxPattern> patterns =
      MineApproximate(*bbs, config, universe);
  size_t certified = 0;
  for (const ApproxPattern& p : patterns) certified += p.certified ? 1 : 0;
  std::printf(
      "%zu approximate patterns (certified %zu) at minsup %.3f%%, "
      "minconf %.2f — no refinement pass was run\n",
      patterns.size(), certified, config.min_support * 100,
      config.min_confidence);
  std::sort(patterns.begin(), patterns.end(),
            [](const ApproxPattern& a, const ApproxPattern& b) {
              return a.est > b.est;
            });
  for (size_t i = 0; i < std::min(top, patterns.size()); ++i) {
    std::printf("  est %-7llu conf %.3f%s  %s\n",
                static_cast<unsigned long long>(patterns[i].est),
                patterns[i].confidence,
                patterns[i].certified ? "*" : " ",
                ItemsetToString(patterns[i].items).c_str());
  }
  return 0;
}

/// Contiguous transaction-range partition for a bbsrouter fleet: shard i
/// holds the i-th range, so concatenating the shard databases in shard
/// order reproduces the input exactly — the invariant cluster answers
/// (and their bit-identity tests) rest on. When the count does not divide
/// evenly the first (size % shards) shards take one extra transaction.
int CmdSplit(FlagSet& flags, int argc, char** argv) {
  std::string db_path;
  uint64_t shards = 0;
  std::string prefix;
  flags.String("db", &db_path, "transaction database", FlagSet::kRequired);
  flags.Unsigned("shards", &shards, "shard count, 1 .. database size");
  flags.String("out-prefix", &prefix, "writes P.0.db .. P.<N-1>.db",
               FlagSet::kRequired);
  flags.ParseOrExit(argc, argv, 2);
  TransactionDatabase db = LoadDb(db_path);
  if (shards == 0 || shards > db.size()) {
    flags.UsageError("--shards must be in [1, " + std::to_string(db.size()) +
                     "] (the database size)");
  }
  const size_t base = db.size() / shards;
  const size_t extra = db.size() % shards;
  size_t next = 0;
  for (size_t s = 0; s < shards; ++s) {
    const size_t take = base + (s < extra ? 1 : 0);
    TransactionDatabase part;
    for (size_t t = 0; t < take; ++t) {
      part.Append(db.At(next++).items);
    }
    const std::string path = prefix + "." + std::to_string(s) + ".db";
    if (Status saved = part.Save(path); !saved.ok()) Die(saved);
    std::printf("shard %zu: %zu transactions -> %s\n", s, part.size(),
                path.c_str());
  }
  return 0;
}

/// Talks to a running bbsmined (docs/SERVICE.md): sends one request frame,
/// prints the response. --json dumps the raw response document (what the
/// CI smoke test parses); the default output is a human-readable summary.
///
/// Backpressure (Unavailable) responses are retried --retries times with
/// exponential backoff; response timeouts are retried only for idempotent
/// verbs (PING/COUNT/STATS/MINE); transport failures are not retried.
/// Exit codes: 0 ok, 1 application error, 2 usage, 3 transport error,
/// 4 retries exhausted on backpressure, 5 indeterminate (a non-idempotent
/// request such as INSERT was sent but its response timed out — it may or
/// may not have been applied; reconcile before re-sending).
int CmdClient(FlagSet& flags, int argc, char** argv) {
  std::string host = "127.0.0.1";
  uint16_t port = 7071;
  std::string verb = "PING";
  std::string items;
  double minsup = 0.003;
  uint64_t top = 10;
  std::string trace_id;
  bool json = false;
  service::RetryOptions retry;
  AddHostPortFlags(&flags, &host, &port);
  flags.String("verb", &verb,
               "PING|COUNT|MINE|INSERT|STATS|CHECKPOINT|DUMP|SHARDINFO");
  flags.String("items", &items, "itemset A,B,C (COUNT, INSERT)");
  AddMinsupFlag(&flags, &minsup);
  flags.Unsigned("top", &top, "MINE result cap");
  flags.String("trace-id", &trace_id, "request id for spans and logs");
  flags.Bool("json", &json, "print the raw response");
  AddRetryFlags(&flags, &retry);
  flags.Unsigned("timeout-ms", &retry.timeout_ms, "per-attempt timeout, ms");
  flags.Unsigned("jitter-seed", &retry.jitter_seed, "backoff jitter seed");
  flags.ParseOrExit(argc, argv, 2);
  for (char& c : verb) c = static_cast<char>(std::toupper(c));

  obs::JsonValue request = obs::JsonValue::Object();
  request.Set("verb", obs::JsonValue::String(verb));
  if (!items.empty()) {
    request.Set("items", service::ItemsToJson(ParseItems(flags, items)));
  }
  // minsup and top go on the wire only when given, so the server's own
  // defaults apply otherwise.
  if (flags.WasSet("minsup")) {
    request.Set("minsup", obs::JsonValue::Double(minsup));
  }
  if (flags.WasSet("top")) request.Set("top", obs::JsonValue::Uint(top));
  if (!trace_id.empty()) {
    // Client-supplied request identity: the daemon tags this request's
    // spans, slow-log line, and flight-recorder event with it.
    request.Set("trace_id", obs::JsonValue::String(trace_id));
  }

  // One persistent session (the router-pool API); still one-shot here —
  // the process exits after a single exchange, so behavior is unchanged.
  service::ClientSession session(host, port);
  auto outcome = session.CallWithRetry(request, retry);
  if (!outcome.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", verb.c_str(),
                 outcome.status().ToString().c_str());
    // Exhausting retries against a live-but-overloaded daemon (every
    // attempt timed out) is backpressure (4); a timed-out non-idempotent
    // request is indeterminate (5) — it was NOT re-sent and the caller
    // must reconcile; anything else is transport (3).
    if (outcome.status().code() == StatusCode::kIndeterminate) return 5;
    return outcome.status().code() == StatusCode::kUnavailable ? 4 : 3;
  }
  const obs::JsonValue* response = &outcome->response;
  if (outcome->attempts > 1) {
    std::fprintf(stderr, "note: %u attempts\n", outcome->attempts);
  }

  if (json) {
    std::printf("%s\n", response->Serialize(2).c_str());
  } else if (!response->at("ok").AsBool()) {
    const obs::JsonValue& error = response->at("error");
    std::fprintf(stderr, "%s failed: %s: %s\n", verb.c_str(),
                 error.at("code").AsString().c_str(),
                 error.at("message").AsString().c_str());
  } else if (verb == "COUNT") {
    std::printf("count %llu (epoch %llu, %llu visible transactions, "
                "batch of %llu)\n",
                static_cast<unsigned long long>(
                    response->at("count").AsUint()),
                static_cast<unsigned long long>(
                    response->at("epoch").AsUint()),
                static_cast<unsigned long long>(
                    response->at("visible_transactions").AsUint()),
                static_cast<unsigned long long>(
                    response->at("batch_size").AsUint()));
  } else if (verb == "MINE") {
    const obs::JsonValue& patterns = response->at("patterns");
    std::printf("%llu frequent patterns (showing %zu)\n",
                static_cast<unsigned long long>(
                    response->at("total_frequent").AsUint()),
                patterns.size());
    for (size_t i = 0; i < patterns.size(); ++i) {
      const obs::JsonValue& entry = patterns.at(i);
      Itemset items;
      for (size_t j = 0; j < entry.at("items").size(); ++j) {
        items.push_back(
            static_cast<ItemId>(entry.at("items").at(j).AsUint()));
      }
      std::printf("  %8llu  %s\n",
                  static_cast<unsigned long long>(
                      entry.at("support").AsUint()),
                  ItemsetToString(items).c_str());
    }
  } else {
    std::printf("%s\n", response->Serialize(2).c_str());
  }
  // A router may answer from a partial fleet; make that loudly visible
  // even in the human-readable output (the JSON carries the same fields).
  if (response->Has("degraded") && response->at("degraded").AsBool()) {
    std::string missing;
    const obs::JsonValue& shards = response->at("missing_shards");
    for (size_t i = 0; i < shards.size(); ++i) {
      if (!missing.empty()) missing += ",";
      missing += std::to_string(shards.at(i).AsUint());
    }
    std::fprintf(stderr, "warning: degraded answer (missing shards: %s)\n",
                 missing.c_str());
  }
  if (outcome->backpressure_exhausted) return 4;
  return response->at("ok").AsBool() ? 0 : 1;
}

struct Command {
  const char* name;
  const char* summary;
  int (*run)(FlagSet& flags, int argc, char** argv);
};

constexpr Command kCommands[] = {
    {"gen", "generate a Quest-style synthetic dataset", CmdGen},
    {"convert", "convert between FIMI text and binary databases", CmdConvert},
    {"build", "build a BBS index over a database", CmdBuild},
    {"stats", "show database / index statistics", CmdStats},
    {"mine", "mine frequent patterns", CmdMine},
    {"count", "exact count of an itemset, optionally TID-constrained",
     CmdCount},
    {"client",
     "one request to a running bbsmined or bbsrouter\n"
     "exit 0 ok, 1 application error, 2 usage, 3 transport error, 4 "
     "backpressure\nretries exhausted, 5 indeterminate (INSERT sent, "
     "response timed out)",
     CmdClient},
    {"split", "cut a database into contiguous ranges for a bbsrouter fleet",
     CmdSplit},
    {"rules", "association rules from FP-growth patterns", CmdRules},
    {"approx", "approximate mining from the index alone", CmdApprox},
};

std::string Usage() {
  std::string text =
      "usage: bbsmine <command> [--flag value | --flag=value ...]\n";
  for (const Command& command : kCommands) {
    std::string line = command.name;
    line.resize(10, ' ');
    std::string_view summary = command.summary;
    text += "  " + line.append(summary.substr(0, summary.find('\n'))) + "\n";
  }
  return text + "'bbsmine <command> --help' lists a command's flags\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc < 2 ? "" : argv[1];
  if (command == "--help" || command == "-h") {
    std::fputs(Usage().c_str(), stdout);
    return 0;
  }
  for (const Command& entry : kCommands) {
    if (command == entry.name) {
      FlagSet flags(std::string("bbsmine ") + entry.name, entry.summary);
      return entry.run(flags, argc, argv);
    }
  }
  std::fputs(Usage().c_str(), stderr);
  return 2;
}
