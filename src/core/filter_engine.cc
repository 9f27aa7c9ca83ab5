#include "core/filter_engine.h"

#include <algorithm>

namespace bbsmine {

void FilterEngine::Prepare(const Itemset& universe, MineStats* stats,
                           bool rare_first) {
  obs::TraceSpan span(tracer_, obs::kTracePhase, "filter.prepare");
  // Below this count the walk's transaction sets switch to the sparse
  // representation.
  sparse_threshold_ = TidSet::SparseThreshold(bbs_.num_transactions());
  singletons_.clear();
  Itemset single(1);
  BitVector vector;
  for (ItemId item : universe) {
    single[0] = item;
    size_t est;
    {
      obs::TraceSpan kernel(tracer_, obs::kTraceKernel, "bbs.count_singleton");
      est = bbs_.CountItemSetAtLeast(single, tau_, &vector, io_);
    }
    if (stats != nullptr) ++stats->extension_tests;
    if (est < tau_) {
      if (stats != nullptr) stats->pruned_by_depth.Add(1);
      continue;
    }
    Singleton s;
    s.item = item;
    s.est = est;
    s.exact = bbs_.tracks_item_counts() ? bbs_.ExactItemCount(item) : 0;
    s.vector = std::move(vector);
    vector = BitVector();
    singletons_.push_back(std::move(s));
  }
  if (rare_first) {
    std::stable_sort(singletons_.begin(), singletons_.end(),
                     [](const Singleton& a, const Singleton& b) {
                       if (a.est != b.est) return a.est < b.est;
                       return a.item < b.item;
                     });
  }
  span.AddArg("universe", universe.size());
  span.AddArg("singletons", singletons_.size());
}

BitVector FilterEngine::AllTransactions() const {
  BitVector all(bbs_.num_transactions());
  all.SetAll();
  return all;
}

}  // namespace bbsmine
