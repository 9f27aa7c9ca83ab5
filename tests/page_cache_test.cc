#include "storage/page_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "util/rng.h"

namespace bbsmine {
namespace {

TEST(PageCacheTest, MissThenHit) {
  PageCache cache(4);
  IoStats io;
  EXPECT_FALSE(cache.Access(1, /*sequential=*/false, &io));
  EXPECT_EQ(io.random_reads, 1u);
  EXPECT_TRUE(cache.Access(1, false, &io));
  EXPECT_EQ(io.random_reads, 1u) << "hits must not charge I/O";
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(PageCacheTest, SequentialFlagRoutesCharge) {
  PageCache cache(4);
  IoStats io;
  cache.Access(9, /*sequential=*/true, &io);
  EXPECT_EQ(io.sequential_reads, 1u);
  EXPECT_EQ(io.random_reads, 0u);
}

TEST(PageCacheTest, EvictsLeastRecentlyUsed) {
  PageCache cache(2);
  IoStats io;
  cache.Access(1, false, &io);
  cache.Access(2, false, &io);
  cache.Access(1, false, &io);  // 1 now MRU, 2 is LRU
  cache.Access(3, false, &io);  // evicts 2
  EXPECT_TRUE(cache.Access(1, false, &io));
  EXPECT_FALSE(cache.Access(2, false, &io)) << "2 must have been evicted";
  EXPECT_EQ(cache.resident_blocks(), 2u);
}

TEST(PageCacheTest, ZeroCapacityAlwaysMisses) {
  PageCache cache(0);
  IoStats io;
  EXPECT_FALSE(cache.Access(5, false, &io));
  EXPECT_FALSE(cache.Access(5, false, &io));
  EXPECT_EQ(io.random_reads, 2u);
  EXPECT_EQ(cache.resident_blocks(), 0u);
}

TEST(PageCacheTest, NullIoStatsIsAllowed) {
  PageCache cache(2);
  EXPECT_FALSE(cache.Access(1, false, nullptr));
  EXPECT_TRUE(cache.Access(1, false, nullptr));
}

TEST(PageCacheTest, CountersPinScriptedAccessPattern) {
  // Scripted access pattern against a 2-block pool; every access below is
  // annotated with the expected outcome. Pins both the per-access results
  // and the cumulative Counters snapshot.
  PageCache cache(2);
  IoStats io;
  EXPECT_FALSE(cache.Access(1, false, &io));  // miss: cold
  EXPECT_FALSE(cache.Access(2, false, &io));  // miss: cold
  EXPECT_TRUE(cache.Access(1, false, &io));   // hit (1 now MRU)
  EXPECT_FALSE(cache.Access(3, false, &io));  // miss: evicts LRU block 2
  EXPECT_TRUE(cache.Access(1, false, &io));   // hit
  EXPECT_TRUE(cache.Access(3, false, &io));   // hit
  EXPECT_FALSE(cache.Access(2, false, &io));  // miss: 2 was evicted
  EXPECT_TRUE(cache.Access(2, false, &io));   // hit

  PageCache::Counters counters = cache.counters();
  EXPECT_EQ(counters.hits, 4u);
  EXPECT_EQ(counters.misses, 4u);
  EXPECT_EQ(counters.accesses(), 8u);
  EXPECT_DOUBLE_EQ(counters.hit_rate(), 0.5);
  EXPECT_EQ(counters.hits, cache.hits());
  EXPECT_EQ(counters.misses, cache.misses());
  EXPECT_EQ(io.random_reads, 4u) << "only misses charge I/O";
}

TEST(PageCacheTest, CountersEmptyCacheHasZeroHitRate) {
  PageCache cache(2);
  PageCache::Counters counters = cache.counters();
  EXPECT_EQ(counters.accesses(), 0u);
  EXPECT_EQ(counters.hit_rate(), 0.0);
}

TEST(PageCacheTest, ClearDropsResidency) {
  PageCache cache(4);
  IoStats io;
  cache.Access(1, false, &io);
  cache.Clear();
  EXPECT_EQ(cache.resident_blocks(), 0u);
  EXPECT_FALSE(cache.Access(1, false, &io));
}

TEST(PageCacheTest, WholeFileModeNeedsCapacityForEveryBlock) {
  EXPECT_TRUE(PageCache(8, 8).whole_file());
  EXPECT_TRUE(PageCache(9, 8).whole_file());
  EXPECT_FALSE(PageCache(7, 8).whole_file());
  EXPECT_FALSE(PageCache(8).whole_file()) << "unknown file size runs LRU";
}

/// Drives the same access sequence through a whole-file cache and an LRU
/// cache of equal capacity; every outcome and counter must agree.
void ExpectWholeFileMatchesLru(uint64_t file_blocks,
                               const std::vector<uint64_t>& blocks,
                               const std::vector<bool>& sequential) {
  PageCache whole(file_blocks, file_blocks);
  PageCache lru(file_blocks);
  ASSERT_TRUE(whole.whole_file());
  ASSERT_FALSE(lru.whole_file());
  IoStats whole_io, lru_io;
  for (size_t i = 0; i < blocks.size(); ++i) {
    ASSERT_EQ(whole.Access(blocks[i], sequential[i], &whole_io),
              lru.Access(blocks[i], sequential[i], &lru_io))
        << "access " << i << " to block " << blocks[i];
  }
  EXPECT_EQ(whole.hits(), lru.hits());
  EXPECT_EQ(whole.misses(), lru.misses());
  EXPECT_EQ(whole.resident_blocks(), lru.resident_blocks());
  EXPECT_EQ(whole_io.sequential_reads, lru_io.sequential_reads);
  EXPECT_EQ(whole_io.random_reads, lru_io.random_reads);
}

TEST(PageCacheTest, WholeFileModeMatchesLruOnScriptedSequence) {
  ExpectWholeFileMatchesLru(
      4, {0, 1, 0, 3, 3, 2, 1, 0, 2, 3},
      {false, true, false, false, true, true, false, true, false, false});
}

TEST(PageCacheTest, WholeFileModeMatchesLruOnRandomSequences) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    uint64_t file_blocks = 1 + rng.Uniform(200);
    std::vector<uint64_t> blocks(500);
    std::vector<bool> sequential(blocks.size());
    for (size_t i = 0; i < blocks.size(); ++i) {
      blocks[i] = rng.Uniform(file_blocks);
      sequential[i] = rng.Uniform(2) == 0;
    }
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectWholeFileMatchesLru(file_blocks, blocks, sequential);
  }
}

TEST(PageCacheTest, WholeFileModeBlocksPastTheFileAlwaysMiss) {
  PageCache cache(4, 4);
  IoStats io;
  EXPECT_FALSE(cache.Access(4, false, &io));
  EXPECT_FALSE(cache.Access(4, false, &io));
  EXPECT_EQ(io.random_reads, 2u);
  EXPECT_EQ(cache.resident_blocks(), 0u);
}

TEST(PageCacheTest, WholeFileModeHammerMissesEachBlockOnce) {
  // Four threads touch every block of the file in their own random orders.
  // However the touches interleave, each block misses exactly once.
  constexpr uint64_t kBlocks = 1000;
  constexpr int kThreads = 4;
  constexpr int kRounds = 20;
  PageCache cache(kBlocks, kBlocks);
  std::vector<IoStats> io(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + t);
      for (int round = 0; round < kRounds; ++round) {
        for (uint64_t i = 0; i < kBlocks; ++i) {
          cache.Access(rng.Uniform(kBlocks), /*sequential=*/true, &io[t]);
        }
        for (uint64_t b = 0; b < kBlocks; ++b) {
          cache.Access(b, /*sequential=*/true, &io[t]);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  uint64_t reads = 0;
  for (const IoStats& stats : io) reads += stats.sequential_reads;
  PageCache::Counters counters = cache.counters();
  EXPECT_EQ(counters.misses, kBlocks);
  EXPECT_EQ(counters.accesses(), uint64_t{kThreads} * kRounds * 2 * kBlocks);
  EXPECT_EQ(reads, kBlocks) << "each block is charged once";
  EXPECT_EQ(cache.resident_blocks(), kBlocks);
}

TEST(PageCacheTest, WholeFileModeClearResetsResidency) {
  PageCache cache(130, 130);  // spans three bitmap words
  IoStats io;
  for (uint64_t b : {0, 64, 129}) cache.Access(b, false, &io);
  EXPECT_EQ(cache.resident_blocks(), 3u);
  cache.Clear();
  EXPECT_EQ(cache.resident_blocks(), 0u);
  EXPECT_FALSE(cache.Access(129, false, &io)) << "cleared blocks miss again";
  EXPECT_EQ(cache.misses(), 4u) << "Clear keeps the counters";
  EXPECT_EQ(cache.resident_blocks(), 1u);
}

}  // namespace
}  // namespace bbsmine
