// Shared harness for the figure-reproduction benchmarks.
//
// Each bench binary regenerates one figure of the paper's evaluation
// (Section 4): it builds the workload, runs the schemes, and prints the
// series the paper plots, both as an aligned table and as CSV.
//
// Response time is reported two ways:
//   * wall    — measured wall-clock seconds on this machine, and
//   * resp    — wall + simulated I/O seconds under the explicit block-I/O
//               cost model (util/iomodel.h), standing in for the paper's
//               1997-era disk (see DESIGN.md, substitutions).

#ifndef BBSMINE_BENCH_BENCH_UTIL_H_
#define BBSMINE_BENCH_BENCH_UTIL_H_

#include <string>
#include <vector>

#include "baseline/apriori.h"
#include "baseline/fp_tree.h"
#include "core/bbs_index.h"
#include "core/miner.h"
#include "datagen/quest_gen.h"
#include "storage/transaction_db.h"
#include "util/table.h"

namespace bbsmine::bench {

/// One scheme's measurements on one workload point.
struct SchemeResult {
  std::string name;
  size_t patterns = 0;
  uint64_t candidates = 0;
  uint64_t false_drops = 0;
  uint64_t certified = 0;
  uint64_t probed = 0;
  uint64_t db_scans = 0;
  double fdr = 0;
  double wall_seconds = 0;
  double sim_io_seconds = 0;
  /// wall + simulated I/O.
  double response_seconds() const { return wall_seconds + sim_io_seconds; }
};

/// Builds a Quest dataset (exits on invalid config).
TransactionDatabase MakeQuest(uint32_t num_transactions, uint32_t num_items,
                              double t, double i, uint64_t seed = 42);

/// Builds a BBS over `db` (m bits, k hashes, MD5 family).
BbsIndex MakeBbs(const TransactionDatabase& db, uint32_t num_bits,
                 uint32_t num_hashes = 4);

/// Runs one of the four BBS schemes.
SchemeResult RunBbsScheme(const TransactionDatabase& db, const BbsIndex& bbs,
                          Algorithm algorithm, double min_support,
                          uint64_t memory_budget = 0);

/// Runs the Apriori baseline (APS). `pair_matrix` switches on the modern
/// triangular-array second pass (ablation).
SchemeResult RunApriori(const TransactionDatabase& db, double min_support,
                        uint64_t memory_budget = 0, bool pair_matrix = false);

/// Runs the FP-growth baseline (FPS).
SchemeResult RunFpGrowth(const TransactionDatabase& db, double min_support,
                         uint64_t memory_budget = 0);

/// Converts a MiningResult into a SchemeResult.
SchemeResult Summarize(std::string name, const MiningResult& result);

/// When the BBSMINE_BENCH_JSON environment variable names a directory,
/// writes the machine-readable run report for `result` there as
/// <dir>/<NNN>-<scheme>.json (sequence-numbered per process), using the
/// same serializer as `bbsmine_cli --stats-json` (obs/report.h) so bench
/// output and CLI output never drift apart. No-op when the variable is
/// unset. `config` may be null (baselines); `index_bits`/`index_hashes`
/// describe the BBS geometry when one was used.
void MaybeWriteRunReport(const std::string& scheme, const MineConfig* config,
                         double min_support, const TransactionDatabase& db,
                         const MiningResult& result, uint32_t index_bits = 0,
                         uint32_t index_hashes = 0);

/// Appends the standard columns for one scheme to a table row.
void AppendSchemeCells(const SchemeResult& r, std::vector<std::string>* row);

/// The standard column headers matching AppendSchemeCells.
void AppendSchemeHeaders(const std::string& prefix,
                         std::vector<std::string>* header);

/// Parses the figure binaries' only flag, --quick (reduced workloads);
/// true with it or with BBSMINE_BENCH_QUICK=1. Any other argument, and
/// --help, exits as util/flags.h describes.
bool QuickMode(int argc, char** argv);

}  // namespace bbsmine::bench

#endif  // BBSMINE_BENCH_BENCH_UTIL_H_
