// Tests for the refinement phase: SequentialScan and ProbeCount.

#include "core/refine.h"

#include <gtest/gtest.h>

#include "core/bbs_index.h"
#include "testing/reference.h"

namespace bbsmine {
namespace {

TEST(RefineSequentialScanTest, PrunesFalseDropsAndCountsExactly) {
  TransactionDatabase db = testing::MakeDb({
      {1, 2, 3}, {1, 2}, {1, 2, 4}, {2, 3}, {5},
  });
  std::vector<Candidate> candidates = {
      {{1, 2}, 4},     // true support 3
      {{2, 3}, 4},     // true support 2
      {{1, 5}, 3},     // true support 0 -> false drop
      {{5}, 2},        // true support 1 -> false drop at tau 2
  };
  MineStats stats;
  std::vector<Pattern> out =
      RefineSequentialScan(db, candidates, /*tau=*/2, /*budget=*/0, &stats);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].items, (Itemset{1, 2}));
  EXPECT_EQ(out[0].support, 3u);
  EXPECT_EQ(out[1].items, (Itemset{2, 3}));
  EXPECT_EQ(out[1].support, 2u);
  EXPECT_EQ(stats.false_drops, 2u);
  EXPECT_EQ(stats.db_scans, 1u);
}

TEST(RefineSequentialScanTest, MemoryBudgetForcesMultipleScans) {
  TransactionDatabase db = testing::RandomDb(3, 100, 20, 5.0);
  std::vector<Candidate> candidates;
  for (ItemId i = 0; i < 20; ++i) candidates.push_back({{i}, 100});

  MineStats unbounded;
  std::vector<Pattern> all =
      RefineSequentialScan(db, candidates, 1, 0, &unbounded);
  EXPECT_EQ(unbounded.db_scans, 1u);

  MineStats bounded;
  // ~36 bytes per 1-item candidate; 80 bytes holds two candidates per batch.
  std::vector<Pattern> batched =
      RefineSequentialScan(db, candidates, 1, 80, &bounded);
  EXPECT_GT(bounded.db_scans, 5u);
  EXPECT_EQ(batched.size(), all.size())
      << "batching must not change the result";
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(batched[i].items, all[i].items);
    EXPECT_EQ(batched[i].support, all[i].support);
  }
}

TEST(RefineSequentialScanTest, EmptyCandidateListScansNothing) {
  TransactionDatabase db = testing::MakeDb({{1}});
  MineStats stats;
  EXPECT_TRUE(RefineSequentialScan(db, {}, 1, 0, &stats).empty());
  EXPECT_EQ(stats.db_scans, 0u);
}

TEST(ProbeCountTest, CountsOnlyMatchingTransactions) {
  TransactionDatabase db = testing::MakeDb({
      {1, 2, 3}, {1, 2}, {2, 3}, {1, 2, 3, 4},
  });
  // Pretend the filter flagged transactions 0, 2, 3 as potential matches.
  BitVector result(4);
  result.Set(0);
  result.Set(2);
  result.Set(3);
  MineStats stats;
  uint64_t count = ProbeCount(db, {1, 2}, result, nullptr, &stats);
  EXPECT_EQ(count, 2u);  // transactions 0 and 3 (2 is not probed-positive)
  EXPECT_EQ(stats.probed_transactions, 3u);
  EXPECT_GT(stats.io.random_reads, 0u);
}

TEST(ProbeCountTest, MatchingVectorMarksTrueContainers) {
  TransactionDatabase db = testing::MakeDb({
      {1, 2}, {2}, {1, 2}, {1},
  });
  BitVector result(4, true);
  BitVector matching;
  MineStats stats;
  uint64_t count = ProbeCount(db, {1, 2}, result, nullptr, &stats, &matching);
  EXPECT_EQ(count, 2u);
  EXPECT_TRUE(matching.Get(0));
  EXPECT_FALSE(matching.Get(1));
  EXPECT_TRUE(matching.Get(2));
  EXPECT_FALSE(matching.Get(3));
}

TEST(ProbeCountTest, PageCacheSuppressesRepeatCharges) {
  TransactionDatabase db = testing::MakeDb({
      {1, 2}, {1, 2}, {1, 2}, {1, 2},
  });
  // All four tiny records share one 4096-byte block.
  BitVector result(4, true);
  PageCache cache(8, BlocksFor(db.SerializedBytes(), db.block_size()));
  MineStats stats;
  ProbeCount(db, {1}, result, &cache, &stats);
  // The pool covers the whole (one-block) file, so the single first-touch
  // miss is charged as a sequential load; the other probes hit.
  EXPECT_EQ(stats.io.sequential_reads, 1u)
      << "one block miss, three hits expected";
  EXPECT_EQ(stats.io.random_reads, 0u);
  EXPECT_EQ(stats.probed_transactions, 4u);
}

TEST(ProbeCountTest, SmallPoolChargesRandomReads) {
  // 2100 distinct items spread records across several blocks; a pool of one
  // page cannot cover the file, so misses are genuine seeks.
  TransactionDatabase db;
  for (ItemId i = 0; i < 2100; ++i) db.Append({i});
  ASSERT_GT(BlocksFor(db.SerializedBytes(), db.block_size()), 2u);
  BitVector result(db.size());
  result.Set(0);
  result.Set(db.size() - 1);
  PageCache cache(1);
  MineStats stats;
  ProbeCount(db, {0}, result, &cache, &stats);
  EXPECT_EQ(stats.io.random_reads, 2u);
  EXPECT_EQ(stats.io.sequential_reads, 0u);
}

TEST(ProbeCountTest, EmptyResultVectorProbesNothing) {
  TransactionDatabase db = testing::MakeDb({{1}, {2}});
  BitVector result(2);
  MineStats stats;
  EXPECT_EQ(ProbeCount(db, {1}, result, nullptr, &stats), 0u);
  EXPECT_EQ(stats.probed_transactions, 0u);
  EXPECT_EQ(stats.io.random_reads, 0u);
}

}  // namespace
}  // namespace bbsmine
