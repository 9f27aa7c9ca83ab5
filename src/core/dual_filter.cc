#include "core/dual_filter.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/trace.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace bbsmine {

CheckCountResult CheckCount(uint64_t item_exact, uint64_t item_est,
                            const ParentState& parent, uint64_t union_est,
                            uint64_t tau) {
  // Lines 1-3 (Figure 3): the extension of the empty itemset is the
  // singleton itself, whose exact count is maintained.
  if (parent.empty) {
    if (item_exact < tau) return {-1, item_exact};
    return {1, item_exact};
  }

  // Lines 4-12: the bounds only apply when the parent's count is the actual
  // count with certainty (flag == 1).
  if (parent.flag == 1) {
    bool item_tight = item_est == item_exact;
    bool parent_tight = parent.est == parent.count;
    // Corollary 1: both sides tight => the union's estimate is exact.
    if (item_tight && parent_tight) {
      return {1, union_est};
    }
    // Lemma 5 lower bound with I1 = {item} tight:
    //   act(I1 u I2) >= est(I1 u I2) - (est(I2) - act(I2)).
    // Written additively to avoid unsigned underflow when the slack exceeds
    // the union estimate.
    if (item_tight && union_est >= (parent.est - parent.count) + tau) {
      return {2, union_est};
    }
    // Lemma 5 with roles swapped (I2 tight, I1's exact count maintained):
    //   act(I1 u I2) >= est(I1 u I2) - (est(I1) - act(I1)).
    if (parent_tight && union_est >= (item_est - item_exact) + tau) {
      return {2, union_est};
    }
  }
  return {0, union_est};
}

namespace {

/// Recursive GenerateAndFilter of Figure 4, as a narrowed-sibling walk (see
/// single_filter.cc for why narrowing preserves the candidate set, and for
/// the root-level parallel split: subtree i reads only the shared root
/// table, so subtrees run concurrently and their per-root outputs are merged
/// in root order).

struct Node {
  size_t idx = 0;
  uint64_t est = 0;
  CheckCountResult check;
  TidSet set;
};

/// Roots: estimated-frequent singletons that are not exactly-known
/// infrequent, classified against the empty parent.
std::vector<Node> BuildRoots(const FilterEngine& engine) {
  const auto& singles = engine.singletons();
  ParentState root;  // empty itemset
  std::vector<Node> roots;
  roots.reserve(singles.size());
  for (size_t idx = 0; idx < singles.size(); ++idx) {
    const FilterEngine::Singleton& single = singles[idx];
    CheckCountResult check = CheckCount(single.exact, single.est, root,
                                        single.est, engine.tau());
    if (check.flag < 0) continue;  // exactly-known infrequent singleton
    Node node;
    node.idx = idx;
    node.est = single.est;
    node.check = check;
    node.set = engine.RootSet(idx);
    roots.push_back(std::move(node));
  }
  return roots;
}

class DualFilterWalk {
 public:
  DualFilterWalk(const FilterEngine& engine, MineStats* stats,
                 DualFilterOutput* out)
      : engine_(engine), stats_(stats), out_(out) {}

  void RunSubtree(const std::vector<Node>& roots, size_t i) {
    Visit(roots[i], roots, i);
  }

 private:
  void Visit(const Node& node, const std::vector<Node>& siblings, size_t i) {
    const auto& singles = engine_.singletons();
    current_.push_back(singles[node.idx].item);

    Itemset canonical = current_;
    Canonicalize(&canonical);
    DualCandidate candidate{std::move(canonical), node.est, node.check.count,
                            node.check.flag};
    if (stats_ != nullptr) {
      ++stats_->candidates;
      stats_->candidates_by_depth.Add(current_.size());
    }
    if (node.check.flag > 0) {
      if (stats_ != nullptr) ++stats_->certified;
      out_->certain.push_back(std::move(candidate));
    } else {
      out_->uncertain.push_back(std::move(candidate));
    }

    ParentState state;
    state.flag = node.check.flag;
    state.count = node.check.count;
    state.est = node.est;
    state.empty = false;

    std::vector<Node> children;
    engine_.ExtendChildren(
        node.set, current_.size(), siblings, i, &counters_, stats_,
        [&](size_t idx, uint64_t est, TidSet set) {
          const FilterEngine::Singleton& single = singles[idx];
          // flag < 0 cannot occur below the root (the parent is non-empty).
          children.push_back({idx, est,
                              CheckCount(single.exact, single.est, state, est,
                                         engine_.tau()),
                              std::move(set)});
        });
    for (size_t j = 0; j < children.size(); ++j) {
      Visit(children[j], children, j);
    }
    current_.pop_back();
  }

  const FilterEngine& engine_;
  MineStats* stats_;
  DualFilterOutput* out_;
  Itemset current_;
  std::vector<uint32_t> counters_;  // occurrence-delivery scratch
};

}  // namespace

DualFilterOutput RunDualFilter(const FilterEngine& engine, MineStats* stats,
                               size_t num_threads) {
  assert(engine.bbs().tracks_item_counts() &&
         "DualFilter requires exact 1-itemset counts");
  std::vector<Node> roots = BuildRoots(engine);

  std::vector<DualFilterOutput> per_root(roots.size());
  std::vector<MineStats> per_root_stats(roots.size());
  uint64_t queue_depth = 0;
  ParallelFor(
      num_threads, roots.size(),
      [&](size_t i) {
        obs::TraceSpan span(engine.tracer(), obs::kTraceFilter,
                            "filter.subtree");
        Stopwatch cpu;
        DualFilterWalk walk(engine, &per_root_stats[i], &per_root[i]);
        walk.RunSubtree(roots, i);
        per_root_stats[i].filter_cpu_seconds = cpu.ElapsedSeconds();
        span.AddArg("root", i);
        span.AddArg("candidates", per_root_stats[i].candidates);
      },
      &queue_depth);

  // Deterministic merge in root order: identical to the serial walk.
  DualFilterOutput out;
  for (size_t i = 0; i < roots.size(); ++i) {
    for (DualCandidate& c : per_root[i].certain) {
      out.certain.push_back(std::move(c));
    }
    for (DualCandidate& c : per_root[i].uncertain) {
      out.uncertain.push_back(std::move(c));
    }
    if (stats != nullptr) *stats += per_root_stats[i];
  }
  if (stats != nullptr) {
    stats->max_queue_depth = std::max(stats->max_queue_depth, queue_depth);
  }
  return out;
}

}  // namespace bbsmine
