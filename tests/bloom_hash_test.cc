#include "core/bloom_hash.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "core/bbs_index.h"
#include "testing/allocation_cap.h"
#include "testing/reference.h"

namespace bbsmine {
namespace {

TEST(BloomHashTest, CreateValidatesArguments) {
  EXPECT_FALSE(BloomHashFamily::Create(0, 4, HashKind::kMd5).ok());
  EXPECT_FALSE(BloomHashFamily::Create(100, 0, HashKind::kMd5).ok());
  EXPECT_TRUE(BloomHashFamily::Create(100, 4, HashKind::kMd5).ok());
}

TEST(BloomHashTest, PositionsInRangeAndStable) {
  for (HashKind kind :
       {HashKind::kMd5, HashKind::kMultiplyShift, HashKind::kModulo}) {
    auto family = BloomHashFamily::Create(1600, 4, kind);
    ASSERT_TRUE(family.ok());
    for (ItemId item : {0u, 1u, 17u, 9999u, 123456u}) {
      std::vector<uint32_t> first = family->Positions(item).ToVector();
      ASSERT_EQ(first.size(), 4u);
      for (uint32_t p : first) EXPECT_LT(p, 1600u);
      // Memoized: the second call returns identical positions.
      EXPECT_EQ(family->Positions(item).ToVector(), first);
    }
  }
}

TEST(BloomHashTest, ModuloMatchesPaperRunningExample) {
  // Section 2.1: one hash function h(x) = x mod 8.
  auto family = BloomHashFamily::Create(8, 1, HashKind::kModulo);
  ASSERT_TRUE(family.ok());
  EXPECT_EQ(family->Positions(0).ToVector(), std::vector<uint32_t>{0});
  EXPECT_EQ(family->Positions(14).ToVector(), std::vector<uint32_t>{6});
  EXPECT_EQ(family->Positions(15).ToVector(), std::vector<uint32_t>{7});
  EXPECT_EQ(family->Positions(11).ToVector(), std::vector<uint32_t>{3});
}

TEST(BloomHashTest, Md5NeedsMoreThanFourGroups) {
  // k > 4 exercises the "concatenate the name with itself" extension.
  auto family = BloomHashFamily::Create(1 << 20, 9, HashKind::kMd5);
  ASSERT_TRUE(family.ok());
  std::vector<uint32_t> positions = family->Positions(42).ToVector();
  ASSERT_EQ(positions.size(), 9u);
  // The extended groups must not simply repeat the first four.
  std::set<uint32_t> distinct(positions.begin(), positions.end());
  EXPECT_GT(distinct.size(), 4u);
}

TEST(BloomHashTest, SeedChangesMd5Positions) {
  auto a = BloomHashFamily::Create(1600, 4, HashKind::kMd5, 0);
  auto b = BloomHashFamily::Create(1600, 4, HashKind::kMd5, 1);
  ASSERT_TRUE(a.ok() && b.ok());
  int differing = 0;
  for (ItemId item = 0; item < 50; ++item) {
    if (a->Positions(item) != b->Positions(item)) ++differing;
  }
  EXPECT_GT(differing, 40);
}

TEST(BloomHashTest, SeedChangesMultiplyShiftPositions) {
  auto a = BloomHashFamily::Create(1600, 4, HashKind::kMultiplyShift, 0);
  auto b = BloomHashFamily::Create(1600, 4, HashKind::kMultiplyShift, 99);
  ASSERT_TRUE(a.ok() && b.ok());
  int differing = 0;
  for (ItemId item = 0; item < 50; ++item) {
    if (a->Positions(item) != b->Positions(item)) ++differing;
  }
  EXPECT_GT(differing, 40);
}

// Distribution sanity: with m=1600 and many items, the positions should
// spread out — no bit position should receive a wildly disproportionate
// share. (A weak chi-square-style bound, just to catch broken mixing.)
class BloomHashDistributionTest : public ::testing::TestWithParam<HashKind> {};

TEST_P(BloomHashDistributionTest, SpreadsAcrossBits) {
  constexpr uint32_t kBits = 256;
  constexpr uint32_t kHashes = 4;
  constexpr ItemId kItems = 10'000;
  auto family = BloomHashFamily::Create(kBits, kHashes, GetParam());
  ASSERT_TRUE(family.ok());
  std::vector<uint32_t> load(kBits, 0);
  for (ItemId item = 0; item < kItems; ++item) {
    for (uint32_t p : family->Positions(item)) ++load[p];
  }
  double expected = static_cast<double>(kItems) * kHashes / kBits;  // ~156
  for (uint32_t p = 0; p < kBits; ++p) {
    EXPECT_GT(load[p], expected * 0.5) << "bit " << p << " underloaded";
    EXPECT_LT(load[p], expected * 1.6) << "bit " << p << " overloaded";
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, BloomHashDistributionTest,
                         ::testing::Values(HashKind::kMd5,
                                           HashKind::kMultiplyShift));

TEST(BloomHashTest, CacheGrowsLazily) {
  auto family = BloomHashFamily::Create(100, 2, HashKind::kMultiplyShift);
  ASSERT_TRUE(family.ok());
  EXPECT_EQ(family->cached_items(), 0u);
  family->Positions(7);
  EXPECT_EQ(family->cached_items(), 1u);
  family->Positions(7);
  EXPECT_EQ(family->cached_items(), 1u);
  family->Positions(100000);
  EXPECT_EQ(family->cached_items(), 2u);
}

TEST(BloomHashTest, IdsPastTheMemoAreHashedPerCallNotCached) {
  auto family = BloomHashFamily::Create(1000, 2, HashKind::kModulo);
  ASSERT_TRUE(family.ok());
  const ItemId huge = 4294967294u;
  testing::ScopedAllocationCap cap(1 << 20);
  EXPECT_EQ(family->Positions(huge).ToVector(),
            (std::vector<uint32_t>{294, 295}));
  EXPECT_EQ(family->cached_items(), 0u);
  EXPECT_LT(cap.largest(), size_t{1} << 20);
}

// Many threads meet fresh items (and grow the memo) at once; every answer
// must match a family that computed the same items serially.
TEST(BloomHashTest, ConcurrentFirstUsesMatchSerial) {
  for (HashKind kind : {HashKind::kMd5, HashKind::kMultiplyShift}) {
    auto shared = BloomHashFamily::Create(1600, 4, kind);
    auto serial = BloomHashFamily::Create(1600, 4, kind);
    ASSERT_TRUE(shared.ok() && serial.ok());
    constexpr int kThreads = 8;
    constexpr ItemId kItems = 3000;
    std::vector<int> mismatches(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        // Each thread walks the ids in its own stride so first uses and
        // table growth interleave across threads.
        for (ItemId i = 0; i < kItems; ++i) {
          ItemId item = (i * (2 * t + 1) + t) % kItems;
          auto positions = shared->Positions(item);
          if (positions.size() != 4) ++mismatches[t];
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);
    for (ItemId item = 0; item < kItems; ++item) {
      EXPECT_EQ(shared->Positions(item), serial->Positions(item));
    }
    EXPECT_EQ(shared->cached_items(), kItems);
  }
}

// The daemon's count scheduler runs CountItemSet for different items of
// one segment at once; on a fresh index each is a first use.
TEST(BloomHashTest, ConcurrentFreshItemCountsOnOneIndex) {
  TransactionDatabase db = testing::RandomDb(5, 400, 500, 6.0);
  BbsConfig config;
  config.num_bits = 800;
  config.num_hashes = 3;
  auto shared = BbsIndex::Create(config);
  auto serial = BbsIndex::Create(config);
  ASSERT_TRUE(shared.ok() && serial.ok());
  shared->InsertAll(db);
  serial->InsertAll(db);
  // Insert warmed the memo for the items in db; each query adds an id the
  // database never holds.
  constexpr int kThreads = 8;
  constexpr ItemId kBase = 10000;
  constexpr ItemId kQueries = 2000;
  std::vector<size_t> counts(kQueries);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (ItemId q = t; q < kQueries; q += kThreads) {
        counts[q] = shared->CountItemSet({kBase + q, q % 500});
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (ItemId q = 0; q < kQueries; ++q) {
    Itemset items = {q % 500, kBase + q};
    EXPECT_EQ(counts[q], serial->CountItemSet(items)) << "query " << q;
  }
}

TEST(BloomHashTest, HugeIdCountAnswersWithoutLargeAllocation) {
  TransactionDatabase db = testing::RandomDb(9, 300, 50, 5.0);
  BbsConfig config;
  config.num_bits = 400;
  config.num_hashes = 4;
  auto index = BbsIndex::Create(config);
  ASSERT_TRUE(index.ok());
  index->InsertAll(db);
  const ItemId huge = 4294967294u;
  BitVector signature = index->MakeSignature({huge});
  size_t expected = 0;
  size_t count = 0;
  {
    testing::ScopedAllocationCap cap(1 << 20);
    count = index->CountItemSet({huge});
    EXPECT_LT(cap.largest(), size_t{1} << 20);
  }
  // The estimate is the number of transactions whose signature covers the
  // item's bits.
  for (size_t i = 0; i < db.size(); ++i) {
    if (signature.IsSubsetOf(index->MakeSignature(db.At(i).items))) {
      ++expected;
    }
  }
  EXPECT_EQ(count, expected);
}

}  // namespace
}  // namespace bbsmine
