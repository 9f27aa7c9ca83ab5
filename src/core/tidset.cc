#include "core/tidset.h"

#include <algorithm>

namespace bbsmine {

TidSet TidSet::AllOf(size_t n) {
  TidSet set;
  set.dense_ = BitVector(n);
  set.dense_.SetAll();
  set.count_ = n;
  return set;
}

TidSet TidSet::FromDense(BitVector dense, size_t sparse_threshold) {
  TidSet set;
  set.count_ = dense.Count();
  if (set.count_ <= sparse_threshold) {
    set.sparse_ = true;
    set.tids_.reserve(set.count_);
    dense.AppendSetBits(&set.tids_);
  } else {
    set.dense_ = std::move(dense);
  }
  return set;
}

size_t TidSet::AssignIntersection(const TidSet& parent, const BitVector& with,
                                  size_t sparse_threshold,
                                  uint64_t min_count) {
  if (parent.sparse_) {
    // Sparse path: probe the item vector for each parent position. Abort
    // once even keeping every remaining parent position cannot reach
    // min_count.
    sparse_ = true;
    tids_.clear();
    size_t total = parent.tids_.size();
    // The result can't outgrow the parent (nor the universe); reserving up
    // front avoids reallocation churn across the Probe refinement's many
    // small intersections.
    tids_.reserve(std::min(total, static_cast<size_t>(with.size())));
    for (size_t i = 0; i < total; ++i) {
      if (min_count > 0 && tids_.size() + (total - i) < min_count) break;
      uint32_t tid = parent.tids_[i];
      if (with.Get(tid)) tids_.push_back(tid);
    }
    count_ = tids_.size();
    return count_;
  }

  // Dense path: one fused assign-AND-count kernel pass (no copy first). A
  // rejected result stays dense: nobody reads it, so it is not converted.
  count_ = dense_.AssignAndCount(parent.dense_, with);
  if (count_ < min_count) {
    sparse_ = false;
  } else if (count_ <= sparse_threshold) {
    sparse_ = true;
    tids_.clear();
    tids_.reserve(count_);
    dense_.AppendSetBits(&tids_);
  } else {
    sparse_ = false;
  }
  return count_;
}

void TidSet::AppendPositions(std::vector<uint32_t>* out) const {
  if (sparse_) {
    out->insert(out->end(), tids_.begin(), tids_.end());
  } else {
    dense_.AppendSetBits(out);
  }
}

void TidSet::AssignSparse(std::vector<uint32_t> tids) {
  sparse_ = true;
  tids_ = std::move(tids);
  count_ = tids_.size();
  dense_ = BitVector();
}

}  // namespace bbsmine
