// Input generation. The Quest database of each workload is pinned (one
// dataset, as in the paper's figures, so pattern counts can be pinned too)
// and the benchmark seed permutes its transaction order: each seed hands
// the programs a different input file with the same frequent patterns.

#ifndef PERFBENCH_DATASETS_H_
#define PERFBENCH_DATASETS_H_

#include <cstdint>
#include <vector>

#include "obs/json.h"
#include "storage/transaction_db.h"

namespace pbench {

/// The Quest seed every workload's data is generated with.
inline constexpr uint64_t kQuestSeed = 7;

/// Quest T10.I10.D100K over `items` items (seed kQuestSeed), transactions
/// shuffled with `shuffle_seed`.
bbsmine::TransactionDatabase MakeQuest(uint32_t items, uint64_t shuffle_seed);

/// The fleet-read layout: two shards of Quest T5.I5.D50K, each over 300
/// shared and 600 private items (README.md, "fleet-read sizing").
inline constexpr size_t kFleetShards = 2;
inline constexpr uint32_t kFleetTxns = 50'000;
inline constexpr uint32_t kFleetShared = 300;
inline constexpr uint32_t kFleetPrivate = 600;
inline constexpr double kFleetAvgSize = 5;

/// The fleet-read shards. Each shard is its own Quest database; per shard,
/// the kFleetShared most frequent items are renamed to the common ids
/// [0, kFleetShared) and the rest to that shard's own private range, so a
/// query on one shard's private items can be pruned on the others by
/// Bloofi. `stats` receives the item layout.
std::vector<bbsmine::TransactionDatabase> MakeFleet(
    uint64_t shuffle_seed, bbsmine::obs::JsonValue* stats);

/// The Zipf rank table of the fleet: shared items by total frequency, then
/// the shards' private items interleaved rank by rank.
std::vector<bbsmine::ItemId> FleetRankTable(
    const std::vector<bbsmine::TransactionDatabase>& shards);

}  // namespace pbench

#endif  // PERFBENCH_DATASETS_H_
