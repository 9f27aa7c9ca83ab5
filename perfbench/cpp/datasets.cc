#include "datasets.h"

#include <algorithm>
#include <map>

#include "common.h"
#include "datagen/quest_gen.h"
#include "util/rng.h"
#include "workload.h"

namespace pbench {

using bbsmine::ItemId;
using bbsmine::TransactionDatabase;
using bbsmine::obs::JsonValue;

namespace {

TransactionDatabase Shuffled(const TransactionDatabase& db,
                             const std::vector<ItemId>* rename,
                             uint64_t shuffle_seed) {
  std::vector<size_t> order(db.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  bbsmine::Rng rng(shuffle_seed);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }
  TransactionDatabase out;
  for (size_t position : order) {
    bbsmine::Itemset items = db.At(position).items;
    if (rename != nullptr) {
      for (ItemId& item : items) item = (*rename)[item];
      bbsmine::Canonicalize(&items);
    }
    out.Append(std::move(items));
  }
  return out;
}

TransactionDatabase Quest(uint32_t txns, uint32_t items, uint64_t seed,
                          double avg_size) {
  bbsmine::QuestConfig config;
  config.num_transactions = txns;
  config.num_items = items;
  config.avg_transaction_size = avg_size;
  config.avg_pattern_size = avg_size;
  config.seed = seed;
  return Unwrap(bbsmine::GenerateQuest(config), "quest generation");
}

}  // namespace

TransactionDatabase MakeQuest(uint32_t items, uint64_t shuffle_seed) {
  return Shuffled(Quest(100'000, items, kQuestSeed, 10), nullptr,
                  shuffle_seed);
}

std::vector<TransactionDatabase> MakeFleet(uint64_t shuffle_seed,
                                           JsonValue* stats) {
  const uint32_t shared = kFleetShared;
  const uint32_t private_items = kFleetPrivate;
  std::vector<TransactionDatabase> out;
  JsonValue layout = JsonValue::Array();
  for (size_t s = 0; s < kFleetShards; ++s) {
    const TransactionDatabase raw = Quest(kFleetTxns, shared + private_items,
                                          101 + s, kFleetAvgSize);
    const std::vector<ItemId> ranked = RankItemsByFrequency(raw);
    std::vector<ItemId> rename(shared + private_items, 0);
    // Items the generator never emitted keep distinct private ids too.
    std::vector<bool> seen(rename.size(), false);
    const ItemId private_base =
        shared + static_cast<ItemId>(s) * private_items;
    ItemId next_private = private_base;
    for (size_t r = 0; r < ranked.size(); ++r) {
      rename[ranked[r]] =
          r < shared ? static_cast<ItemId>(r) : next_private++;
      seen[ranked[r]] = true;
    }
    for (ItemId item = 0; item < rename.size(); ++item) {
      if (!seen[item]) rename[item] = next_private++;
    }
    out.push_back(Shuffled(raw, &rename, shuffle_seed * 31 + s));
    JsonValue entry = JsonValue::Object();
    entry.Set("transactions", JsonValue::Uint(out.back().size()));
    entry.Set("shared_items", JsonValue::Uint(shared));
    entry.Set("private_first", JsonValue::Uint(private_base));
    entry.Set("private_items", JsonValue::Uint(private_items));
    layout.Append(std::move(entry));
  }
  if (stats != nullptr) stats->Set("shards", std::move(layout));
  return out;
}

std::vector<ItemId> FleetRankTable(
    const std::vector<TransactionDatabase>& shards) {
  const uint32_t shared = kFleetShared;
  std::map<ItemId, uint64_t> shared_freq;
  std::vector<std::vector<ItemId>> privates;
  for (const TransactionDatabase& shard : shards) {
    std::vector<ItemId> own;
    for (ItemId item : RankItemsByFrequency(shard)) {
      if (item >= shared) own.push_back(item);
    }
    privates.push_back(std::move(own));
    for (size_t t = 0; t < shard.size(); ++t) {
      for (ItemId item : shard.At(t).items) {
        if (item < shared) ++shared_freq[item];
      }
    }
  }
  std::vector<std::pair<uint64_t, ItemId>> ranked;
  for (const auto& [item, n] : shared_freq) ranked.emplace_back(n, item);
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  std::vector<ItemId> table;
  for (const auto& entry : ranked) table.push_back(entry.second);
  for (size_t r = 0;; ++r) {
    bool any = false;
    for (const std::vector<ItemId>& own : privates) {
      if (r < own.size()) {
        table.push_back(own[r]);
        any = true;
      }
    }
    if (!any) break;
  }
  return table;
}

}  // namespace pbench
