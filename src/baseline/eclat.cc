#include "baseline/eclat.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "core/tidset.h"
#include "util/stopwatch.h"

namespace bbsmine {

namespace {

struct Node {
  uint32_t slot = 0;  // the item this node adds: index into the root table
  TidSet set;         // transactions containing the node's itemset
};

/// Depth-first extension with narrowed siblings, the exact twin of the
/// filter walk (core/single_filter.cc): a child's set is its parent's set
/// intersected with the extending item's exact bit vector, and only the
/// extensions that stayed frequent at a node are tried below it.
class EclatWalk {
 public:
  /// items[s] is the s-th frequent item in root order and vectors[s] its
  /// transactions; `n` is the number of transactions.
  EclatWalk(const std::vector<ItemId>& items,
            const std::vector<BitVector>& vectors, size_t n, uint64_t tau,
            MineStats* stats, std::vector<Pattern>* out)
      : items_(items),
        vectors_(vectors),
        sparse_threshold_(TidSet::SparseThreshold(n)),
        tau_(tau),
        stats_(stats),
        out_(out) {}

  void Run() {
    // A root's own set is built when its subtree is walked and dropped
    // after it; as siblings the roots need only their slots. A root at or
    // below the sparsity threshold starts as a position list, which probes
    // an extension's vector faster than a full-width AND.
    std::vector<Node> roots(vectors_.size());
    for (uint32_t slot = 0; slot < roots.size(); ++slot) {
      roots[slot].slot = slot;
    }
    for (size_t i = 0; i < roots.size(); ++i) {
      Node root{roots[i].slot,
                TidSet::FromDense(vectors_[i], sparse_threshold_)};
      Visit(root, roots, i);
    }
  }

 private:
  /// Emits `node` and recurses into its frequent extensions, drawn from
  /// siblings[j > i].
  void Visit(const Node& node, const std::vector<Node>& siblings, size_t i) {
    current_.push_back(items_[node.slot]);
    Itemset canonical = current_;
    Canonicalize(&canonical);
    out_->push_back(
        Pattern{std::move(canonical), node.set.count(), SupportKind::kExact});
    ++stats_->candidates;

    // Each test intersects into the one scratch set (a sparse parent stops
    // probing once tau is out of reach); only a frequent extension takes
    // the set over, so a rejected test allocates nothing.
    std::vector<Node> children;
    for (size_t j = i + 1; j < siblings.size(); ++j) {
      ++stats_->extension_tests;
      uint32_t slot = siblings[j].slot;
      size_t count = scratch_.AssignIntersection(node.set, vectors_[slot],
                                                 sparse_threshold_, tau_);
      if (count >= tau_) children.push_back(Node{slot, std::move(scratch_)});
    }
    for (size_t j = 0; j < children.size(); ++j) {
      Visit(children[j], children, j);
    }
    current_.pop_back();
  }

  const std::vector<ItemId>& items_;
  const std::vector<BitVector>& vectors_;
  size_t sparse_threshold_;
  uint64_t tau_;
  MineStats* stats_;
  std::vector<Pattern>* out_;
  Itemset current_;
  TidSet scratch_;
};

}  // namespace

MiningResult MineEclat(const TransactionDatabase& db,
                       const EclatConfig& config) {
  Stopwatch total_timer;
  MiningResult result;
  MineStats& stats = result.stats;
  uint64_t tau = AbsoluteThreshold(config.min_support, db.size());

  // One scan builds a position list per distinct item. Slots are handed
  // out in order of first appearance, so nothing is sized by the id range.
  std::unordered_map<ItemId, uint32_t> slot_of;
  std::vector<ItemId> items;
  std::vector<std::vector<uint32_t>> lists;
  ++stats.db_scans;
  uint32_t position = 0;
  db.ForEach(&stats.io, [&](const Transaction& txn) {
    for (ItemId item : txn.items) {
      auto [it, inserted] =
          slot_of.try_emplace(item, static_cast<uint32_t>(items.size()));
      if (inserted) {
        items.push_back(item);
        lists.emplace_back();
      }
      lists[it->second].push_back(position);
    }
    ++position;
  });
  slot_of = {};

  // Frequent singletons, ordered by ascending support (narrow-tree order);
  // every infrequent list goes at once.
  std::vector<uint32_t> order;
  for (uint32_t slot = 0; slot < lists.size(); ++slot) {
    ++stats.extension_tests;
    if (lists[slot].size() >= tau) {
      order.push_back(slot);
    } else {
      lists[slot] = {};
    }
  }
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (lists[a].size() != lists[b].size()) {
      return lists[a].size() < lists[b].size();
    }
    return items[a] < items[b];
  });

  // Each frequent item's list becomes its exact bit vector, and each list
  // goes as soon as its vector is built.
  std::vector<ItemId> root_items;
  std::vector<BitVector> vectors;
  root_items.reserve(order.size());
  vectors.reserve(order.size());
  for (uint32_t slot : order) {
    root_items.push_back(items[slot]);
    BitVector& vector = vectors.emplace_back(db.size());
    for (uint32_t tid : lists[slot]) vector.Set(tid);
    lists[slot] = {};
  }
  lists = {};
  items = {};

  EclatWalk(root_items, vectors, db.size(), tau, &stats, &result.patterns)
      .Run();
  stats.total_seconds = total_timer.ElapsedSeconds();
  return result;
}

}  // namespace bbsmine
