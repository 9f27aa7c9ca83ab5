// Ablation benches for the design choices called out in DESIGN.md §6:
//
//   A1  hash family    — paper's MD5 groups vs multiply-shift: FDR and time.
//   A2  item ordering  — rare-first walk order vs the paper's item order
//                        (identical output, different traversal cost).
//   A3  tighten-after-probe — shrink a probed candidate's transaction set
//                        to its true containers (not in the paper).
//   A4  Apriori C2     — classic hash-tree second pass vs the triangular
//                        pair-count matrix (how much of the paper's APS gap
//                        is implementation vintage).

//   A5  vertical representations — BBS (lossy bit-slices + refinement) vs
//                        Eclat (exact bit vectors of the frequent items):
//                        time and footprint.

#include <iostream>

#include "baseline/eclat.h"
#include "bench_util.h"

using namespace bbsmine;
using namespace bbsmine::bench;

namespace {

SchemeResult RunWithConfig(const TransactionDatabase& db, const BbsIndex& bbs,
                           const MineConfig& config, std::string name) {
  return Summarize(std::move(name), MineFrequentPatterns(db, bbs, config));
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = QuickMode(argc, argv);
  TransactionDatabase db = MakeQuest(quick ? 4'000 : 10'000, 10'000, 10, 10);
  double min_support = 0.003;

  // --- A1: hash family -------------------------------------------------------
  {
    ResultTable table("Ablation A1: MD5 vs multiply-shift hash family");
    table.SetHeader({"family", "scheme", "wall_ms", "fdr", "patterns"});
    for (HashKind kind : {HashKind::kMd5, HashKind::kMultiplyShift}) {
      BbsConfig config;
      config.num_bits = 1600;
      config.num_hashes = 4;
      config.hash_kind = kind;
      auto bbs = BbsIndex::Create(config);
      bbs->InsertAll(db);
      for (Algorithm a : {Algorithm::kSFS, Algorithm::kDFP}) {
        SchemeResult r = RunBbsScheme(db, *bbs, a, min_support);
        table.AddRow({kind == HashKind::kMd5 ? "md5" : "multiply-shift",
                      r.name, ResultTable::Num(r.wall_seconds * 1e3, 1),
                      ResultTable::Num(r.fdr, 4),
                      ResultTable::Int(static_cast<long long>(r.patterns))});
      }
    }
    table.Print(std::cout);
  }

  BbsIndex bbs = MakeBbs(db, 1600);

  // --- A2: item ordering -----------------------------------------------------
  {
    ResultTable table("Ablation A2: rare-first vs item-order walk");
    table.SetHeader({"order", "scheme", "wall_ms", "extension_tests",
                     "patterns"});
    for (bool rare_first : {true, false}) {
      for (Algorithm a : {Algorithm::kSFS, Algorithm::kDFP}) {
        MineConfig config;
        config.algorithm = a;
        config.min_support = min_support;
        config.rare_first_order = rare_first;
        MiningResult result = MineFrequentPatterns(db, bbs, config);
        table.AddRow(
            {rare_first ? "rare-first" : "item-order", AlgorithmName(a),
             ResultTable::Num(result.stats.total_seconds * 1e3, 1),
             ResultTable::Int(
                 static_cast<long long>(result.stats.extension_tests)),
             ResultTable::Int(static_cast<long long>(result.patterns.size()))});
      }
    }
    table.Print(std::cout);
  }

  // --- A3: tighten-after-probe ------------------------------------------------
  {
    // A narrow vector provokes false drops, which is where tightening pays.
    BbsIndex narrow = MakeBbs(db, 400);
    ResultTable table("Ablation A3: tighten-after-probe (m=400)");
    table.SetHeader({"tighten", "scheme", "wall_ms", "false_drops",
                     "probed_txns"});
    for (bool tighten : {false, true}) {
      for (Algorithm a : {Algorithm::kSFP, Algorithm::kDFP}) {
        MineConfig config;
        config.algorithm = a;
        config.min_support = min_support;
        config.tighten_after_probe = tighten;
        SchemeResult r = RunWithConfig(
            db, narrow, config,
            std::string(AlgorithmName(a)) + (tighten ? "+tighten" : ""));
        table.AddRow({tighten ? "on" : "off", r.name,
                      ResultTable::Num(r.wall_seconds * 1e3, 1),
                      ResultTable::Int(static_cast<long long>(r.false_drops)),
                      ResultTable::Int(static_cast<long long>(r.probed))});
      }
    }
    table.Print(std::cout);
  }

  // --- A5: lossy bit-slices vs exact vertical ----------------------------------
  {
    ResultTable table("Ablation A5: BBS (DFP) vs exact vertical (Eclat)");
    table.SetHeader(
        {"approach", "wall_ms", "patterns", "index_bytes", "scan_peak_bytes"});
    SchemeResult dfp = RunBbsScheme(db, bbs, Algorithm::kDFP, min_support);
    table.AddRow({"BBS m=1600 + DFP",
                  ResultTable::Num(dfp.wall_seconds * 1e3, 1),
                  ResultTable::Int(static_cast<long long>(dfp.patterns)),
                  ResultTable::Int(static_cast<long long>(
                      bbs.SerializedBytes())),
                  "-"});
    EclatConfig eclat_config;
    eclat_config.min_support = min_support;
    MiningResult mined = MineEclat(db, eclat_config);
    // The walk holds one exact bit vector per frequent item (8 bytes per
    // 64 transactions); the single scan before it briefly holds a position
    // list per distinct item, 4 bytes per (item, transaction) occurrence.
    uint64_t frequent_items = 0;
    for (const Pattern& p : mined.patterns) {
      if (p.items.size() == 1) ++frequent_items;
    }
    uint64_t vector_bytes = frequent_items * 8 * ((db.size() + 63) / 64);
    uint64_t list_bytes = 0;
    for (size_t t = 0; t < db.size(); ++t) {
      list_bytes += 4 * db.At(t).items.size();
    }
    SchemeResult eclat = Summarize("eclat", mined);
    table.AddRow({"Eclat bit vectors",
                  ResultTable::Num(eclat.wall_seconds * 1e3, 1),
                  ResultTable::Int(static_cast<long long>(eclat.patterns)),
                  ResultTable::Int(static_cast<long long>(vector_bytes)),
                  ResultTable::Int(static_cast<long long>(list_bytes))});
    table.Print(std::cout);
  }

  // --- A4: Apriori second pass -------------------------------------------------
  {
    ResultTable table("Ablation A4: Apriori C2 counting strategy");
    table.SetHeader({"variant", "wall_ms", "db_scans", "patterns"});
    for (bool pairs : {false, true}) {
      SchemeResult r = RunApriori(db, min_support, 0, pairs);
      table.AddRow({pairs ? "pair-count matrix" : "hash tree (paper-era)",
                    ResultTable::Num(r.wall_seconds * 1e3, 1),
                    ResultTable::Int(static_cast<long long>(r.db_scans)),
                    ResultTable::Int(static_cast<long long>(r.patterns))});
    }
    table.Print(std::cout);
  }
  return 0;
}
