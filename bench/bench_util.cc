#include "bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "obs/report.h"
#include "util/bitvector_kernels.h"
#include "util/flags.h"
#include "util/thread_pool.h"

namespace bbsmine::bench {

TransactionDatabase MakeQuest(uint32_t num_transactions, uint32_t num_items,
                              double t, double i, uint64_t seed) {
  QuestConfig config;
  config.num_transactions = num_transactions;
  config.num_items = num_items;
  config.avg_transaction_size = t;
  config.avg_pattern_size = i;
  config.seed = seed;
  auto db = GenerateQuest(config);
  if (!db.ok()) {
    std::cerr << "dataset generation failed: " << db.status().ToString()
              << "\n";
    std::exit(1);
  }
  return std::move(db).value();
}

BbsIndex MakeBbs(const TransactionDatabase& db, uint32_t num_bits,
                 uint32_t num_hashes) {
  BbsConfig config;
  config.num_bits = num_bits;
  config.num_hashes = num_hashes;
  auto bbs = BbsIndex::Create(config);
  if (!bbs.ok()) {
    std::cerr << "index creation failed: " << bbs.status().ToString() << "\n";
    std::exit(1);
  }
  bbs->InsertAll(db);
  return std::move(bbs).value();
}

SchemeResult Summarize(std::string name, const MiningResult& result) {
  SchemeResult r;
  r.name = std::move(name);
  r.patterns = result.patterns.size();
  r.candidates = result.stats.candidates;
  r.false_drops = result.stats.false_drops;
  r.certified = result.stats.certified;
  r.probed = result.stats.probed_transactions;
  r.db_scans = result.stats.db_scans;
  r.fdr = result.FalseDropRatio();
  r.wall_seconds = result.stats.total_seconds;
  r.sim_io_seconds =
      SimulatedIoSeconds(result.stats.io, IoCostParams::PaperEraDisk());
  return r;
}

void MaybeWriteRunReport(const std::string& scheme, const MineConfig* config,
                         double min_support, const TransactionDatabase& db,
                         const MiningResult& result, uint32_t index_bits,
                         uint32_t index_hashes) {
  const char* dir = std::getenv("BBSMINE_BENCH_JSON");
  if (dir == nullptr || dir[0] == '\0') return;
  static int sequence = 0;
  obs::RunReportContext ctx;
  ctx.scheme = scheme;
  ctx.config = config;
  ctx.num_transactions = db.size();
  ctx.item_universe = db.item_universe();
  ctx.tau = AbsoluteThreshold(min_support, db.size());
  ctx.resolved_threads = static_cast<uint32_t>(
      config != nullptr ? ResolveThreads(config->num_threads) : 1);
  ctx.kernel = kernels::ActiveName();
  ctx.index_bits = index_bits;
  ctx.index_hashes = index_hashes;
  char name[64];
  std::snprintf(name, sizeof(name), "%03d-%s.json", sequence++,
                scheme.c_str());
  std::string path = std::string(dir) + "/" + name;
  Status st = obs::WriteJsonFile(obs::BuildRunReport(ctx, result), path);
  if (!st.ok()) {
    std::cerr << "warning: run report not written: " << st.ToString() << "\n";
  }
}

SchemeResult RunBbsScheme(const TransactionDatabase& db, const BbsIndex& bbs,
                          Algorithm algorithm, double min_support,
                          uint64_t memory_budget) {
  MineConfig config;
  config.algorithm = algorithm;
  config.min_support = min_support;
  config.memory_budget_bytes = memory_budget;
  MiningResult result = MineFrequentPatterns(db, bbs, config);
  MaybeWriteRunReport(AlgorithmName(algorithm), &config, min_support, db,
                      result, bbs.num_bits(), bbs.config().num_hashes);
  return Summarize(AlgorithmName(algorithm), result);
}

SchemeResult RunApriori(const TransactionDatabase& db, double min_support,
                        uint64_t memory_budget, bool pair_matrix) {
  AprioriConfig config;
  config.min_support = min_support;
  config.memory_budget_bytes = memory_budget;
  config.use_pair_count_matrix = pair_matrix;
  MiningResult result = MineApriori(db, config);
  const char* name = pair_matrix ? "APS+pairs" : "APS";
  MaybeWriteRunReport(name, nullptr, min_support, db, result);
  return Summarize(name, result);
}

SchemeResult RunFpGrowth(const TransactionDatabase& db, double min_support,
                         uint64_t memory_budget) {
  FpGrowthConfig config;
  config.min_support = min_support;
  config.memory_budget_bytes = memory_budget;
  MiningResult result = MineFpGrowth(db, config);
  MaybeWriteRunReport("FPS", nullptr, min_support, db, result);
  return Summarize("FPS", result);
}

void AppendSchemeHeaders(const std::string& prefix,
                         std::vector<std::string>* header) {
  header->push_back(prefix + "_wall_ms");
  header->push_back(prefix + "_resp_s");
  header->push_back(prefix + "_fdr");
}

void AppendSchemeCells(const SchemeResult& r, std::vector<std::string>* row) {
  row->push_back(ResultTable::Num(r.wall_seconds * 1e3, 1));
  row->push_back(ResultTable::Num(r.response_seconds(), 3));
  row->push_back(ResultTable::Num(r.fdr, 4));
}

bool QuickMode(int argc, char** argv) {
  bool quick = false;
  FlagSet flags(argv[0]);
  flags.Bool("quick", &quick, "reduced workloads (or BBSMINE_BENCH_QUICK=1)");
  flags.ParseOrExit(argc, argv, 1);
  if (quick) return true;
  const char* env = std::getenv("BBSMINE_BENCH_QUICK");
  return env != nullptr && env[0] == '1';
}

}  // namespace bbsmine::bench
