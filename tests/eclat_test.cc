#include "baseline/eclat.h"

#include <gtest/gtest.h>

#include "baseline/fp_tree.h"
#include "testing/allocation_cap.h"
#include "testing/reference.h"
#include "util/rng.h"

namespace bbsmine {
namespace {

/// Item i joins each transaction with probability p * decay^i, so the item
/// supports fall geometrically, across the walk's dense/sparse switch at
/// max(64, N / 64) transactions.
TransactionDatabase LadderDb(uint64_t seed, size_t n, ItemId universe,
                             double p, double decay) {
  Rng rng(seed);
  TransactionDatabase db;
  Itemset items;
  for (size_t t = 0; t < n; ++t) {
    items.clear();
    double prob = p;
    for (ItemId i = 0; i < universe; ++i, prob *= decay) {
      if (rng.Bernoulli(prob)) items.push_back(i);
    }
    db.Append(items);
  }
  return db;
}

TEST(EclatTest, MatchesBruteForce) {
  for (uint64_t seed : {2u, 6u, 10u}) {
    TransactionDatabase db = testing::RandomDb(seed, 300, 40, 6.0);
    EclatConfig config;
    config.min_support = 0.02;
    MiningResult result = MineEclat(db, config);
    result.SortPatterns();
    std::vector<Pattern> truth = testing::BruteForceMine(
        db, AbsoluteThreshold(config.min_support, db.size()));
    ASSERT_EQ(testing::ItemsetsOf(result.patterns),
              testing::ItemsetsOf(truth))
        << "seed " << seed;
    for (size_t i = 0; i < truth.size(); ++i) {
      EXPECT_EQ(result.patterns[i].support, truth[i].support);
    }
  }
}

TEST(EclatTest, MatchesFpGrowth) {
  TransactionDatabase db = testing::RandomDb(4, 500, 50, 7.0);
  EclatConfig eclat_config;
  eclat_config.min_support = 0.015;
  FpGrowthConfig fp_config;
  fp_config.min_support = 0.015;
  MiningResult eclat = MineEclat(db, eclat_config);
  MiningResult fp = MineFpGrowth(db, fp_config);
  eclat.SortPatterns();
  fp.SortPatterns();
  EXPECT_EQ(testing::ItemsetsOf(eclat.patterns),
            testing::ItemsetsOf(fp.patterns));
}

TEST(EclatTest, SingleScan) {
  TransactionDatabase db = testing::RandomDb(8, 200, 20, 5.0);
  MiningResult result = MineEclat(db, EclatConfig{});
  EXPECT_EQ(result.stats.db_scans, 1u);
}

TEST(EclatTest, EmptyDatabase) {
  TransactionDatabase db;
  MiningResult result = MineEclat(db, EclatConfig{});
  EXPECT_TRUE(result.patterns.empty());
}

TEST(EclatTest, AllPatternsExact) {
  TransactionDatabase db = testing::RandomDb(12, 200, 20, 6.0);
  EclatConfig config;
  config.min_support = 0.03;
  for (const Pattern& p : MineEclat(db, config).patterns) {
    EXPECT_EQ(p.kind, SupportKind::kExact);
    EXPECT_EQ(p.support, testing::BruteForceSupport(db, p.items));
  }
}

TEST(EclatTest, ParityAcrossTheDenseSparseSwitch) {
  // 6 400 transactions put the switch at 100; supports run from ~3 800
  // down to ~20 and tau (64) sits below the switch, so roots, children and
  // extension operands come in both representations.
  for (uint64_t seed : {1u, 2u, 3u}) {
    TransactionDatabase db = LadderDb(seed, 6400, 24, 0.6, 0.8);
    EclatConfig config;
    config.min_support = 0.01;
    uint64_t tau = AbsoluteThreshold(config.min_support, db.size());
    MiningResult eclat = MineEclat(db, config);
    for (const Pattern& p : eclat.patterns) {
      EXPECT_EQ(p.kind, SupportKind::kExact);
    }
    eclat.SortPatterns();
    std::vector<Pattern> truth = testing::BruteForceMine(db, tau);
    ASSERT_EQ(testing::ItemsetsOf(eclat.patterns), testing::ItemsetsOf(truth))
        << "seed " << seed;
    for (size_t i = 0; i < truth.size(); ++i) {
      EXPECT_EQ(eclat.patterns[i].support, truth[i].support);
    }
    FpGrowthConfig fp_config;
    fp_config.min_support = config.min_support;
    MiningResult fp = MineFpGrowth(db, fp_config);
    fp.SortPatterns();
    EXPECT_EQ(testing::ItemsetsOf(eclat.patterns),
              testing::ItemsetsOf(fp.patterns));
  }
}

TEST(EclatTest, EmissionOrderIsPinned) {
  // Roots by ascending support (ties by id), each subtree depth first with
  // extensions in root order. Captured from the tid-list implementation
  // this walk replaced; `bbsmine mine --algo eclat --out` writes this order.
  TransactionDatabase db = LadderDb(7, 640, 12, 0.8, 0.7);
  EclatConfig config;
  config.min_support = 0.06;
  std::vector<Pattern> golden = {
      {{7}, 45},          {{6}, 48},          {{0, 6}, 43},
      {{5}, 87},          {{1, 5}, 47},       {{0, 5}, 68},
      {{4}, 121},         {{2, 4}, 58},       {{0, 2, 4}, 43},
      {{1, 4}, 74},       {{0, 1, 4}, 54},    {{0, 4}, 91},
      {{3}, 158},         {{2, 3}, 68},       {{1, 2, 3}, 45},
      {{0, 2, 3}, 54},    {{1, 3}, 96},       {{0, 1, 3}, 71},
      {{0, 3}, 127},      {{2}, 252},         {{1, 2}, 149},
      {{0, 1, 2}, 115},   {{0, 2}, 197},      {{1}, 371},
      {{0, 1}, 295},      {{0}, 513},
  };
  EXPECT_EQ(MineEclat(db, config).patterns, golden);
}

TEST(EclatTest, HugeItemIdWithoutOutsizedAllocation) {
  const ItemId huge = 4'000'000'000u;
  TransactionDatabase db;
  for (ItemId t = 0; t < 300; ++t) {
    Itemset items;
    if (t % 2 == 0) items.push_back(huge);
    if (t % 3 == 0) items.push_back(7);
    items.push_back(100 + t % 5);
    db.Append(items);
  }
  EclatConfig config;
  config.min_support = 0.15;
  MiningResult result;
  {
    testing::ScopedAllocationCap cap(1 << 20);
    result = MineEclat(db, config);
    EXPECT_LT(cap.largest(), size_t{1} << 20);
  }
  std::vector<Pattern> golden = {
      {{7}, 100}, {{7, huge}, 50}, {{huge}, 150},
  };
  std::vector<Pattern> others;
  for (const Pattern& p : result.patterns) {
    if (p.items.size() == 1 && p.items[0] >= 100 && p.items[0] < 105) {
      EXPECT_EQ(p.support, 60u);
    } else {
      others.push_back(p);
    }
  }
  EXPECT_EQ(others, golden);
}

TEST(EclatTest, MinsupOneKeepsOnlyItemsInEveryTransaction) {
  TransactionDatabase db = testing::MakeDb({{1, 2, 3}, {1, 2}, {1, 2, 4}});
  EclatConfig config;
  config.min_support = 1.0;
  std::vector<Pattern> expected = {{{1}, 3}, {{1, 2}, 3}, {{2}, 3}};
  EXPECT_EQ(MineEclat(db, config).patterns, expected);
}

TEST(EclatTest, SingleTransactionYieldsEverySubset) {
  TransactionDatabase db = testing::MakeDb({{5, 9, 2}});
  std::vector<Pattern> expected = {{{2}, 1},    {{2, 5}, 1}, {{2, 5, 9}, 1},
                                   {{2, 9}, 1}, {{5}, 1},    {{5, 9}, 1},
                                   {{9}, 1}};
  EXPECT_EQ(MineEclat(db, EclatConfig{}).patterns, expected);
}

}  // namespace
}  // namespace bbsmine
