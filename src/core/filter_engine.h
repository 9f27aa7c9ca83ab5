// Shared machinery of the filtering phase.
//
// All four schemes enumerate candidate itemsets the same way (routine
// GenerateAndFilter, Figures 2 and 4 of the paper): a depth-first walk over
// items in ascending order, extending the current itemset only while its
// estimated count stays above the threshold. FilterEngine hosts the shared
// precomputation and the walks' one extension step:
//
//  * the table of "estimated-frequent" singletons. BBS estimates are
//    anti-monotone (the query vector of a superset selects a superset of
//    slices, so its AND is a subset), hence any itemset containing an
//    estimated-infrequent item is itself estimated-infrequent and only
//    estimated-frequent singletons can extend a candidate;
//
//  * each such singleton's transaction vector V_j (the AND of its k
//    slices), so that extending a candidate by one item is a single N-bit
//    AND with popcount rather than k slice ANDs. This is algebraically
//    identical to re-running CountItemSet on the extended itemset; and
//
//  * an occurrence table (LCM's occurrence delivery, Uno et al., FIMI'04):
//    for each transaction t, the ascending walk indices of the sparse
//    singletons (count at or below TidSet::SparseThreshold) whose vector
//    has bit t, in CSR form. A sparse root walks its own positions once
//    and bumps one counter per table entry, after which counter j equals
//    |set(root) AND V_j| for every sparse singleton j at once. Both count
//    the positions t of the root's set with bit t of V_j set, so this is
//    exactly the count the per-sibling AND would return: the same siblings
//    pass tau, with the same estimates. Only those get a child TidSet.
//    At the root every later singleton is a sibling, so no delivered count
//    is wasted; deeper nodes have narrowed sibling lists and keep the
//    per-sibling intersection, as do dense roots and dense siblings.
//    A sparse singleton has at most max(64, N/64) bits set; for N >= 4096
//    its 4-byte entries take at most N/16 bytes against the N/8 bytes of
//    its vector, so the table is at most half of the sparse singletons'
//    vectors, plus N + 1 offsets.

#ifndef BBSMINE_CORE_FILTER_ENGINE_H_
#define BBSMINE_CORE_FILTER_ENGINE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/bbs_index.h"
#include "core/mining_types.h"
#include "core/tidset.h"
#include "obs/trace.h"
#include "storage/transaction.h"
#include "util/bitvector.h"

namespace bbsmine {

/// Precomputed filtering state over one BBS index. The engine borrows the
/// index, which must outlive it.
class FilterEngine {
 public:
  /// One estimated-frequent singleton.
  struct Singleton {
    ItemId item = 0;
    uint64_t est = 0;    ///< CountItemSet({item})
    uint64_t exact = 0;  ///< true occurrence count (iff tracks_item_counts)
    BitVector vector;    ///< AND of the item's slices; one bit per transaction
    /// The set positions of `vector`, ascending, when the singleton is
    /// sparse (est <= sparse_threshold()); empty otherwise.
    std::vector<uint32_t> tids;
  };

  /// `tau` is the absolute occurrence threshold; `io` (optional) accrues
  /// slice-read charges when the BBS is modeled as non-resident.
  FilterEngine(const BbsIndex& bbs, uint64_t tau, IoStats* io = nullptr)
      : bbs_(bbs), tau_(tau), io_(io) {}

  /// Scans the singleton universe and caches every item whose estimated
  /// count reaches tau. `universe` must be canonical. Extension-test and
  /// I/O counters accrue into `stats`.
  ///
  /// When `rare_first` is true (default) the cached singletons are ordered
  /// by ascending estimated count instead of item id. The set of itemsets
  /// the walk accepts is order-independent, but the rare-first order keeps
  /// the enumeration tree narrow, which is markedly cheaper (the classic
  /// vertical-mining ordering). Emitted itemsets are canonicalized either
  /// way.
  void Prepare(const Itemset& universe, MineStats* stats,
               bool rare_first = true);

  const BbsIndex& bbs() const { return bbs_; }
  uint64_t tau() const { return tau_; }

  /// Attaches a span tracer (not owned; may be null). Prepare records a
  /// phase span and, under the opt-in kernel category, one span per
  /// singleton CountItemSet; the filter walks read the tracer back through
  /// tracer() for their per-root subtree spans.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() const { return tracer_; }

  /// The estimated-frequent singletons, in walk order (see Prepare).
  const std::vector<Singleton>& singletons() const { return singletons_; }

  /// Computes est(parent itemset + singletons()[idx]): *out receives
  /// parent_vector AND singleton vector; returns its popcount. Single
  /// fused kernel pass (no copy-then-AND).
  size_t Extend(size_t idx, const BitVector& parent_vector,
                BitVector* out) const {
    return out->AssignAndCount(parent_vector, singletons_[idx].vector);
  }

  /// The walks' extension step: tests `parent` (a node at walk depth
  /// `depth`, 1 for a root) extended by each of siblings[j].idx for j > i,
  /// in order, and calls accept(idx, est, TidSet&&) for every extension
  /// whose estimate reaches tau. Each sibling counts as one extension test;
  /// a rejected one lands in stats->pruned_by_depth at depth + 1 (`stats`
  /// may be null). `Node` is any type with a size_t `idx`.
  ///
  /// A sparse root takes its sparse siblings' counts from one occurrence-
  /// delivery pass (file comment; `counters` is the caller's per-walk
  /// scratch for it) and intersects only the survivors. Every other test
  /// intersects `parent` with the sibling's vector (hybrid TidSet), which
  /// aborts once the count provably cannot reach tau.
  template <typename Node, typename Accept>
  void ExtendChildren(const TidSet& parent, size_t depth,
                      const std::vector<Node>& siblings, size_t i,
                      std::vector<uint32_t>* counters, MineStats* stats,
                      Accept&& accept) const {
    const bool delivered = depth == 1 && parent.sparse();
    if (delivered) DeliverOccurrences(parent, counters);
    for (size_t j = i + 1; j < siblings.size(); ++j) {
      const size_t idx = siblings[j].idx;
      const Singleton& single = singletons_[idx];
      TidSet set;
      uint64_t est;
      if (delivered && single.est <= sparse_threshold_) {
        est = (*counters)[idx];
        if (est >= tau_) {
          set.AssignIntersection(parent, single.vector, sparse_threshold_);
        }
      } else {
        est = set.AssignIntersection(parent, single.vector, sparse_threshold_,
                                     tau_);
      }
      if (stats != nullptr) ++stats->extension_tests;
      if (est < tau_) {
        if (stats != nullptr) stats->pruned_by_depth.Add(depth + 1);
        continue;
      }
      accept(idx, est, std::move(set));
    }
  }

  /// Singleton idx's transaction set as a walk root: its sparse position
  /// list, or its dense vector above the sparse threshold.
  TidSet RootSet(size_t idx) const;

  /// Counts at or below this switch the walk's TidSets to sparse form.
  size_t sparse_threshold() const { return sparse_threshold_; }

 private:
  /// Builds the occurrence table over the sparse singletons (walk order).
  void BuildOccurrenceTable();

  /// Sets (*counters)[j] = |parent AND V_j| for every sparse singleton j;
  /// other entries are zero. `parent` must be sparse.
  void DeliverOccurrences(const TidSet& parent,
                          std::vector<uint32_t>* counters) const;

  const BbsIndex& bbs_;
  uint64_t tau_;
  IoStats* io_;
  obs::Tracer* tracer_ = nullptr;
  size_t sparse_threshold_ = 0;
  std::vector<Singleton> singletons_;
  // Occurrence table: the sparse singletons with bit t set are
  // occurrences_[occurrence_begin_[t] .. occurrence_begin_[t + 1]).
  std::vector<size_t> occurrence_begin_;
  std::vector<uint32_t> occurrences_;
};

}  // namespace bbsmine

#endif  // BBSMINE_CORE_FILTER_ENGINE_H_
