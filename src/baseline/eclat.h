// Eclat (Zaki, 1997/2000): exact vertical frequent-itemset mining.
//
// Not one of the paper's baselines, but the natural exact counterpart of
// the BBS filter walk — BBS bit-slices are a lossy, fixed-width compression
// of exactly the vertical representation Eclat materializes. The walk here
// is the filter walk's, on the same hybrid TidSets (core/tidset.h), with
// exact item vectors: one counted scan builds per-item position lists, only
// the frequent items keep theirs (as bit vectors), and each extension is a
// word-parallel AND or, once a set is sparse, bit probes that stop as soon
// as tau is out of reach. The ablation benches compare it with BBS to
// quantify what the lossy encoding buys (memory) and costs (refinement);
// bbsmined's MINE runs it.

#ifndef BBSMINE_BASELINE_ECLAT_H_
#define BBSMINE_BASELINE_ECLAT_H_

#include "core/mining_types.h"
#include "storage/transaction_db.h"

namespace bbsmine {

/// Tuning knobs for an Eclat run.
struct EclatConfig {
  /// Minimum support as a fraction of the number of transactions.
  double min_support = 0.003;
};

/// Mines all frequent patterns of `db` with Eclat. Supports are exact; one
/// database scan builds the vertical representation, and nothing is sized
/// by the largest item id. Patterns come out depth first, roots in order
/// of ascending support then item id.
MiningResult MineEclat(const TransactionDatabase& db,
                       const EclatConfig& config);

}  // namespace bbsmine

#endif  // BBSMINE_BASELINE_ECLAT_H_
