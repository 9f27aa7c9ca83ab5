#include "core/single_filter.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace bbsmine {

namespace {

/// Recursive GenerateAndFilter (Figure 2), realized as a narrowed-sibling
/// depth-first walk: each node carries the list of singletons that survived
/// the estimate test at its parent, so an extension rejected once is never
/// re-tested inside that subtree. This is licensed by the anti-monotonicity
/// of BBS estimates (a superset's query vector selects a superset of
/// slices): est(X u {i}) < tau implies est(Y u {i}) < tau for all Y
/// containing X. The set of emitted candidates is identical to the paper's
/// formulation; only redundant CountItemSet evaluations are skipped.
///
/// The walk is split at the root: subtree i (rooted at singleton i, with
/// extensions drawn from singletons j > i) depends only on the shared
/// read-only root table and engine (its occurrence table included; each
/// walk owns its delivery counters), so subtrees run on independent threads
/// and their outputs are concatenated in root order — bit-identical to the
/// serial depth-first emission.

struct Node {
  size_t idx = 0;    // index into engine.singletons()
  uint64_t est = 0;  // estimated count of the node's itemset
  TidSet set;        // CountItemSet result vector of the node's itemset
};

/// One estimated-frequent root per singleton, in walk order.
std::vector<Node> BuildRoots(const FilterEngine& engine) {
  const auto& singles = engine.singletons();
  std::vector<Node> roots;
  roots.reserve(singles.size());
  for (size_t idx = 0; idx < singles.size(); ++idx) {
    Node node;
    node.idx = idx;
    node.est = singles[idx].est;
    node.set = engine.RootSet(idx);
    roots.push_back(std::move(node));
  }
  return roots;
}

class SingleFilterWalk {
 public:
  SingleFilterWalk(const FilterEngine& engine, MineStats* stats,
                   std::vector<Candidate>* out)
      : engine_(engine), stats_(stats), out_(out) {}

  /// Emits the whole subtree rooted at roots[i].
  void RunSubtree(const std::vector<Node>& roots, size_t i) {
    Visit(roots[i], roots, i);
  }

 private:
  /// Emits `node` (the extension of current_ by node.idx's item) and
  /// recurses into its surviving extensions, drawn from siblings[j > i].
  void Visit(const Node& node, const std::vector<Node>& siblings, size_t i) {
    const auto& singles = engine_.singletons();
    current_.push_back(singles[node.idx].item);

    Itemset canonical = current_;
    Canonicalize(&canonical);
    out_->push_back(Candidate{std::move(canonical), node.est});
    if (stats_ != nullptr) {
      ++stats_->candidates;
      stats_->candidates_by_depth.Add(current_.size());
    }

    std::vector<Node> children;
    engine_.ExtendChildren(node.set, current_.size(), siblings, i, &counters_,
                           stats_,
                           [&children](size_t idx, uint64_t est, TidSet set) {
                             children.push_back({idx, est, std::move(set)});
                           });
    for (size_t j = 0; j < children.size(); ++j) {
      Visit(children[j], children, j);
    }
    current_.pop_back();
  }

  const FilterEngine& engine_;
  MineStats* stats_;
  std::vector<Candidate>* out_;
  Itemset current_;
  std::vector<uint32_t> counters_;  // occurrence-delivery scratch
};

}  // namespace

std::vector<Candidate> RunSingleFilter(const FilterEngine& engine,
                                       MineStats* stats, size_t num_threads) {
  std::vector<Node> roots = BuildRoots(engine);

  // Per-root output buffers keep the merge deterministic: concatenating in
  // root order reproduces the serial depth-first order exactly, no matter
  // which thread ran which subtree.
  std::vector<std::vector<Candidate>> per_root(roots.size());
  std::vector<MineStats> per_root_stats(roots.size());
  uint64_t queue_depth = 0;
  ParallelFor(
      num_threads, roots.size(),
      [&](size_t i) {
        obs::TraceSpan span(engine.tracer(), obs::kTraceFilter,
                            "filter.subtree");
        Stopwatch cpu;
        SingleFilterWalk walk(engine, &per_root_stats[i], &per_root[i]);
        walk.RunSubtree(roots, i);
        per_root_stats[i].filter_cpu_seconds = cpu.ElapsedSeconds();
        span.AddArg("root", i);
        span.AddArg("candidates", per_root_stats[i].candidates);
      },
      &queue_depth);

  std::vector<Candidate> out;
  size_t total = 0;
  for (const auto& chunk : per_root) total += chunk.size();
  out.reserve(total);
  for (size_t i = 0; i < roots.size(); ++i) {
    for (Candidate& candidate : per_root[i]) {
      out.push_back(std::move(candidate));
    }
    if (stats != nullptr) *stats += per_root_stats[i];
  }
  if (stats != nullptr) {
    stats->max_queue_depth = std::max(stats->max_queue_depth, queue_depth);
  }
  return out;
}

}  // namespace bbsmine
