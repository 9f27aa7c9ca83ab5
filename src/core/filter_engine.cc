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
    // Listed while the vector is still in cache; the occurrence table and
    // the sparse roots are built from these lists.
    if (est <= sparse_threshold_) s.vector.AppendSetBits(&s.tids);
    singletons_.push_back(std::move(s));
  }
  if (rare_first) {
    std::stable_sort(singletons_.begin(), singletons_.end(),
                     [](const Singleton& a, const Singleton& b) {
                       if (a.est != b.est) return a.est < b.est;
                       return a.item < b.item;
                     });
  }
  BuildOccurrenceTable();
  span.AddArg("universe", universe.size());
  span.AddArg("singletons", singletons_.size());
}

void FilterEngine::BuildOccurrenceTable() {
  // Counting sort by transaction: per-row sizes, prefix sums, then a
  // scatter in walk order, so every row comes out ascending.
  const size_t n = bbs_.num_transactions();
  occurrence_begin_.assign(n + 1, 0);
  for (const Singleton& single : singletons_) {
    for (uint32_t t : single.tids) ++occurrence_begin_[t + 1];
  }
  for (size_t t = 0; t < n; ++t) {
    occurrence_begin_[t + 1] += occurrence_begin_[t];
  }
  occurrences_.resize(occurrence_begin_[n]);
  std::vector<size_t> cursor(occurrence_begin_.begin(),
                             occurrence_begin_.end() - 1);
  for (size_t idx = 0; idx < singletons_.size(); ++idx) {
    for (uint32_t t : singletons_[idx].tids) {
      occurrences_[cursor[t]++] = static_cast<uint32_t>(idx);
    }
  }
}

void FilterEngine::DeliverOccurrences(const TidSet& parent,
                                      std::vector<uint32_t>* counters) const {
  counters->assign(singletons_.size(), 0);
  uint32_t* row = counters->data();
  for (uint32_t t : parent.tids()) {
    const size_t end = occurrence_begin_[t + 1];
    for (size_t e = occurrence_begin_[t]; e < end; ++e) ++row[occurrences_[e]];
  }
}

TidSet FilterEngine::RootSet(size_t idx) const {
  const Singleton& single = singletons_[idx];
  if (single.est > sparse_threshold_) return TidSet::FromDense(single.vector);
  TidSet set;
  set.AssignSparse(single.tids);
  return set;
}

}  // namespace bbsmine
