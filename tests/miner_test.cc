// End-to-end tests of the four mining algorithms: every scheme must produce
// exactly the true frequent patterns (the filter-and-refine contract), with
// correct support classification, across hash widths, thresholds and memory
// budgets.

#include "core/miner.h"

#include <gtest/gtest.h>

#include <tuple>

#include "testing/reference.h"

namespace bbsmine {
namespace {

BbsIndex MakeBbs(const TransactionDatabase& db, uint32_t bits, uint32_t hashes,
                 HashKind kind = HashKind::kMd5) {
  BbsConfig config;
  config.num_bits = bits;
  config.num_hashes = hashes;
  config.hash_kind = kind;
  auto index = BbsIndex::Create(config);
  EXPECT_TRUE(index.ok());
  index->InsertAll(db);
  return std::move(index).value();
}

void ExpectMatchesGroundTruth(const TransactionDatabase& db,
                              MiningResult result, uint64_t tau) {
  std::vector<Pattern> truth = testing::BruteForceMine(db, tau);
  result.SortPatterns();
  ASSERT_EQ(testing::ItemsetsOf(result.patterns), testing::ItemsetsOf(truth));
  for (size_t i = 0; i < truth.size(); ++i) {
    const Pattern& got = result.patterns[i];
    const Pattern& want = truth[i];
    if (got.kind == SupportKind::kExact) {
      EXPECT_EQ(got.support, want.support) << ItemsetToString(got.items);
    } else {
      // Guaranteed-frequent estimates may only overestimate.
      EXPECT_GE(got.support, want.support) << ItemsetToString(got.items);
      EXPECT_GE(want.support, tau);
    }
  }
}

using Param =
    std::tuple<Algorithm, uint32_t /*num_bits*/, uint64_t /*db seed*/>;

class MinerEquivalenceTest : public ::testing::TestWithParam<Param> {};

TEST_P(MinerEquivalenceTest, MatchesBruteForce) {
  auto [algorithm, bits, seed] = GetParam();
  TransactionDatabase db = testing::RandomDb(seed, 300, 40, 6.0);
  BbsIndex bbs = MakeBbs(db, bits, 2);

  MineConfig config;
  config.algorithm = algorithm;
  config.min_support = 0.025;  // tau = 8 on 300 transactions
  MiningResult result = MineFrequentPatterns(db, bbs, config);
  ExpectMatchesGroundTruth(db, std::move(result),
                           AbsoluteThreshold(config.min_support, db.size()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MinerEquivalenceTest,
    ::testing::Combine(::testing::Values(Algorithm::kSFS, Algorithm::kSFP,
                                         Algorithm::kDFS, Algorithm::kDFP),
                       ::testing::Values(48u, 128u, 512u),
                       ::testing::Values(1u, 2u, 3u)));

class MinerThresholdTest
    : public ::testing::TestWithParam<std::tuple<Algorithm, double>> {};

TEST_P(MinerThresholdTest, MatchesBruteForceAcrossThresholds) {
  auto [algorithm, min_support] = GetParam();
  TransactionDatabase db = testing::RandomDb(7, 400, 30, 5.0);
  BbsIndex bbs = MakeBbs(db, 128, 2);
  MineConfig config;
  config.algorithm = algorithm;
  config.min_support = min_support;
  MiningResult result = MineFrequentPatterns(db, bbs, config);
  ExpectMatchesGroundTruth(db, std::move(result),
                           AbsoluteThreshold(min_support, db.size()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MinerThresholdTest,
    ::testing::Combine(::testing::Values(Algorithm::kSFS, Algorithm::kSFP,
                                         Algorithm::kDFS, Algorithm::kDFP),
                       ::testing::Values(0.01, 0.03, 0.08)));

class MinerMemoryBudgetTest
    : public ::testing::TestWithParam<std::tuple<Algorithm, uint64_t>> {};

TEST_P(MinerMemoryBudgetTest, AdaptiveVariantStaysCorrect) {
  auto [algorithm, budget] = GetParam();
  TransactionDatabase db = testing::RandomDb(19, 400, 40, 6.0);
  BbsIndex bbs = MakeBbs(db, 1024, 3);
  // 1024 slices x 50 bytes = 51200 bytes of BBS; small budgets force folds.
  MineConfig config;
  config.algorithm = algorithm;
  config.min_support = 0.02;
  config.memory_budget_bytes = budget;
  MiningResult result = MineFrequentPatterns(db, bbs, config);
  ExpectMatchesGroundTruth(db, std::move(result),
                           AbsoluteThreshold(config.min_support, db.size()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MinerMemoryBudgetTest,
    ::testing::Combine(::testing::Values(Algorithm::kSFS, Algorithm::kSFP,
                                         Algorithm::kDFS, Algorithm::kDFP),
                       ::testing::Values(4'000u, 16'000u, 1'000'000u)));

TEST(MinerTest, TightenAfterProbeAblationStaysCorrect) {
  TransactionDatabase db = testing::RandomDb(23, 300, 30, 5.0);
  BbsIndex bbs = MakeBbs(db, 64, 2);  // narrow: many false drops
  for (Algorithm algorithm : {Algorithm::kSFP, Algorithm::kDFP}) {
    MineConfig config;
    config.algorithm = algorithm;
    config.min_support = 0.02;
    config.tighten_after_probe = true;
    MiningResult result = MineFrequentPatterns(db, bbs, config);
    ExpectMatchesGroundTruth(db, std::move(result),
                             AbsoluteThreshold(config.min_support, db.size()));
  }
}

TEST(MinerTest, ProbeSchemesHaveFewerFalseDropsThanScanSchemes) {
  // The integrated probe cuts false-drop chains (paper Section 3.3): SFP's
  // false drops must not exceed SFS's, and DFP's must not exceed DFS's.
  TransactionDatabase db = testing::RandomDb(29, 500, 40, 6.0);
  BbsIndex bbs = MakeBbs(db, 96, 2);
  MineConfig config;
  config.min_support = 0.015;

  auto run = [&](Algorithm algorithm) {
    MineConfig c = config;
    c.algorithm = algorithm;
    return MineFrequentPatterns(db, bbs, c);
  };
  MiningResult sfs = run(Algorithm::kSFS);
  MiningResult sfp = run(Algorithm::kSFP);
  MiningResult dfs = run(Algorithm::kDFS);
  MiningResult dfp = run(Algorithm::kDFP);

  EXPECT_LE(sfp.stats.false_drops, sfs.stats.false_drops);
  EXPECT_LE(dfp.stats.false_drops, dfs.stats.false_drops);
  // The paper states SFS and DFS see the same false drops; in fact DFS can
  // see slightly fewer because the exact 1-itemset counts prune subtrees of
  // exactly-known-infrequent singletons that SingleFilter still explores.
  EXPECT_LE(dfs.stats.false_drops, sfs.stats.false_drops);
}

TEST(MinerTest, DualFilterCertifiesPatterns) {
  TransactionDatabase db = testing::RandomDb(31, 400, 30, 5.0);
  BbsIndex bbs = MakeBbs(db, 1024, 4);  // wide: tight estimates
  MineConfig config;
  config.algorithm = Algorithm::kDFP;
  config.min_support = 0.02;
  MiningResult result = MineFrequentPatterns(db, bbs, config);
  ASSERT_GT(result.patterns.size(), 0u);
  EXPECT_GT(result.stats.certified, 0u);
  // Certified patterns never probe: probes only happen for the rest.
  EXPECT_LE(result.stats.certified, result.stats.candidates);
}

TEST(MinerTest, StatsAreCoherent) {
  TransactionDatabase db = testing::RandomDb(37, 300, 30, 5.0);
  BbsIndex bbs = MakeBbs(db, 128, 2);
  MineConfig config;
  config.algorithm = Algorithm::kSFS;
  config.min_support = 0.02;
  MiningResult result = MineFrequentPatterns(db, bbs, config);
  // candidates = surviving patterns + false drops for the scan schemes.
  EXPECT_EQ(result.stats.candidates,
            result.patterns.size() + result.stats.false_drops);
  EXPECT_GE(result.stats.extension_tests, result.stats.candidates);
  EXPECT_GT(result.stats.total_seconds, 0.0);
  EXPECT_GT(result.stats.io.TotalReads(), 0u);
  EXPECT_GE(result.FalseDropRatio(), 0.0);
}

TEST(MinerTest, ResidentProbeSchemesAreThreadCountInvariant) {
  // Enough transactions to spread the file over dozens of blocks, so the
  // probes of concurrent workers race for first touches. The resident pool
  // covers the file, so the hit and miss totals cannot depend on the
  // schedule: they, the I/O charges and the patterns match at 1 and 4
  // threads.
  TransactionDatabase db = testing::RandomDb(41, 3000, 60, 8.0);
  ASSERT_GT(BlocksFor(db.SerializedBytes(), db.block_size()), 16u);
  BbsIndex bbs = MakeBbs(db, 96, 2);
  for (Algorithm algorithm : {Algorithm::kSFP, Algorithm::kDFP}) {
    MineConfig config;
    config.algorithm = algorithm;
    config.min_support = 0.02;
    config.num_threads = 1;
    MiningResult serial = MineFrequentPatterns(db, bbs, config);
    config.num_threads = 4;
    MiningResult parallel = MineFrequentPatterns(db, bbs, config);
    SCOPED_TRACE(AlgorithmName(algorithm));
    ASSERT_GT(serial.stats.cache_misses, 0u);
    EXPECT_EQ(parallel.patterns, serial.patterns);
    EXPECT_EQ(parallel.stats.cache_hits, serial.stats.cache_hits);
    EXPECT_EQ(parallel.stats.cache_misses, serial.stats.cache_misses);
    EXPECT_EQ(parallel.stats.io.sequential_reads,
              serial.stats.io.sequential_reads);
    EXPECT_EQ(parallel.stats.io.random_reads, serial.stats.io.random_reads);
  }
}

TEST(MinerTest, EmptyDatabase) {
  TransactionDatabase db;
  BbsIndex bbs = MakeBbs(db, 64, 2);
  MineConfig config;
  config.algorithm = Algorithm::kDFP;
  MiningResult result = MineFrequentPatterns(db, bbs, config);
  EXPECT_TRUE(result.patterns.empty());
}

TEST(MinerTest, SingleTransactionDatabase) {
  TransactionDatabase db = testing::MakeDb({{1, 2, 3}});
  BbsIndex bbs = MakeBbs(db, 64, 2);
  MineConfig config;
  config.algorithm = Algorithm::kDFP;
  config.min_support = 1.0;  // tau = 1
  MiningResult result = MineFrequentPatterns(db, bbs, config);
  result.SortPatterns();
  // All 7 non-empty subsets of {1,2,3} are frequent.
  EXPECT_EQ(result.patterns.size(), 7u);
}

TEST(MinerTest, ExplicitUniverseRestrictsSearch) {
  TransactionDatabase db = testing::MakeDb({{1, 2}, {1, 2}, {3, 4}, {3, 4}});
  BbsIndex bbs = MakeBbs(db, 256, 3);
  MineConfig config;
  config.algorithm = Algorithm::kSFP;
  config.min_support = 0.5;  // tau = 2
  MiningResult result = MineFrequentPatterns(db, bbs, config, {1, 2});
  result.SortPatterns();
  EXPECT_EQ(testing::ItemsetsOf(result.patterns),
            (std::vector<Itemset>{{1}, {1, 2}, {2}}));
}

TEST(MinerTest, FindLocatesPatterns) {
  TransactionDatabase db = testing::MakeDb({{1, 2}, {1, 2}, {1}});
  BbsIndex bbs = MakeBbs(db, 256, 3);
  MineConfig config;
  config.algorithm = Algorithm::kDFP;
  config.min_support = 0.5;
  MiningResult result = MineFrequentPatterns(db, bbs, config);
  result.SortPatterns();
  const Pattern* p = result.Find({1, 2});
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->support, 2u);
  EXPECT_EQ(result.Find({9}), nullptr);
}

TEST(MinerTest, AbsoluteThresholdRounding) {
  EXPECT_EQ(AbsoluteThreshold(0.003, 10'000), 30u);
  EXPECT_EQ(AbsoluteThreshold(0.0031, 10'000), 31u);
  EXPECT_EQ(AbsoluteThreshold(0.00301, 10'000), 31u);
  EXPECT_EQ(AbsoluteThreshold(0.0, 10'000), 1u) << "never below 1";
  EXPECT_EQ(AbsoluteThreshold(0.5, 3), 2u);
}

}  // namespace
}  // namespace bbsmine
