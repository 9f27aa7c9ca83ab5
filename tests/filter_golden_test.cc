// Golden parity of the four BBS schemes.
//
// Pins, for SFS, SFP, DFS and DFP, the exact emitted pattern sequence (as a
// digest over items, support and support kind, in emission order) and every
// schedule-independent MineStats counter and by-depth histogram. The values
// were captured from the filter walks as they stood before the root level
// moved to occurrence delivery (FilterEngine::ExtendChildren), and every
// later change to the walks must reproduce them bit for bit, at 1 and at 4
// threads and in both singleton orders.
//
// The database is sized so that the singletons fall on both sides of
// TidSet::SparseThreshold: some roots are sparse position lists, some stay
// dense bit vectors, and sparse roots meet dense later siblings, so every
// branch of the extension step runs. One further run per scheme folds the
// index (a budget below the BBS size) well clear of the 16-bit floor.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/bbs_index.h"
#include "core/filter_engine.h"
#include "core/miner.h"
#include "datagen/quest_gen.h"

namespace bbsmine {
namespace {

constexpr double kMinSupport = 0.006;

/// The counters one golden row pins.
struct Golden {
  const char* name;
  uint64_t patterns;
  uint64_t digest;
  uint64_t candidates;
  uint64_t extension_tests;
  uint64_t certified;
  uint64_t false_drops;
  uint64_t probed_transactions;
  uint64_t db_scans;
  std::vector<uint64_t> candidates_by_depth;
  std::vector<uint64_t> pruned_by_depth;
  std::vector<uint64_t> false_drops_by_depth;
};

// clang-format off
const Golden kGoldens[] = {
  {"SFS/rare-first", 3920, 0x28b3863ed229d66ull, 4387, 40761, 0, 467, 0, 1,
   {247, 1363, 1444, 884, 346, 88, 14, 1},
   {749, 29018, 4988, 1319, 274, 26},
   {14, 99, 140, 110, 66, 29, 8, 1}},
  {"SFS/item-order", 3920, 0xf5c3200e648b7d5eull, 4387, 46630, 0, 467, 0, 1,
   {247, 1363, 1444, 884, 346, 88, 14, 1},
   {749, 29018, 10071, 1984, 373, 45, 3},
   {14, 99, 140, 110, 66, 29, 8, 1}},
  {"SFS/rare-first/folded", 3920, 0xf8aafd0c000bb846ull, 19042, 173464, 0, 467, 0, 3,
   {482, 3184, 4355, 4335, 3374, 2041, 923, 288, 55, 5},
   {749, 114558, 20086, 6512, 4245, 2423, 1067, 329, 61, 5},
   {14, 99, 140, 110, 66, 29, 8, 1}},
  {"SFP/rare-first", 3920, 0x28b3863ed229d66ull, 4110, 37155, 0, 190, 269103, 0,
   {247, 1330, 1370, 804, 292, 61, 6},
   {749, 26091, 4693, 1224, 263, 25},
   {14, 66, 66, 30, 12, 2}},
  {"SFP/item-order", 3920, 0xf5c3200e648b7d5eull, 4134, 44069, 0, 214, 271853, 0,
   {247, 1343, 1383, 807, 288, 60, 6},
   {749, 27515, 9466, 1805, 352, 45, 3},
   {14, 79, 79, 33, 8, 1}},
  {"SFP/rare-first/folded", 3920, 0xf8aafd0c000bb846ull, 19042, 173464, 0, 467, 0, 3,
   {482, 3184, 4355, 4335, 3374, 2041, 923, 288, 55, 5},
   {749, 114558, 20086, 6512, 4245, 2423, 1067, 329, 61, 5},
   {14, 99, 140, 110, 66, 29, 8, 1}},
  {"DFS/rare-first", 3920, 0xa46b2a43b5f4775cull, 4116, 37158, 1416, 196, 0, 1,
   {233, 1330, 1380, 813, 293, 61, 6},
   {749, 25698, 4980, 1308, 268, 25},
   {0, 66, 76, 39, 13, 2}},
  {"DFS/item-order", 3920, 0xa9e1a62c5e46bad0ull, 4116, 42759, 1373, 196, 0, 1,
   {233, 1330, 1380, 813, 293, 61, 6},
   {749, 25698, 9863, 1916, 355, 45, 3},
   {0, 66, 76, 39, 13, 2}},
  {"DFS/rare-first/folded", 3920, 0x316190a0fc615dc1ull, 7579, 56025, 360, 196, 0, 2,
   {233, 2076, 2392, 1704, 839, 274, 56, 5},
   {514, 25698, 13180, 3326, 1267, 380, 70, 6},
   {0, 66, 76, 39, 13, 2}},
  {"DFP/rare-first", 3920, 0x5166d8ff4a3fd929ull, 4096, 36762, 2193, 176, 94559, 0,
   {233, 1330, 1370, 804, 292, 61, 6},
   {749, 25698, 4693, 1224, 263, 25},
   {0, 66, 66, 30, 12, 2}},
  {"DFP/item-order", 3920, 0xe8a67ad4c09c52d0ull, 4086, 42062, 2107, 166, 98230, 0,
   {233, 1330, 1369, 801, 287, 60, 6},
   {749, 25698, 9357, 1767, 343, 45, 3},
   {0, 66, 65, 27, 7, 1}},
  {"DFP/rare-first/folded", 3920, 0x316190a0fc615dc1ull, 7579, 56025, 360, 196, 0, 2,
   {233, 2076, 2392, 1704, 839, 274, 56, 5},
   {514, 25698, 13180, 3326, 1267, 380, 70, 6},
   {0, 66, 76, 39, 13, 2}},
};
// clang-format on

const TransactionDatabase& Db() {
  static const TransactionDatabase* db = [] {
    QuestConfig quest;
    quest.num_transactions = 4000;
    quest.num_items = 1000;
    quest.avg_transaction_size = 10;
    quest.avg_pattern_size = 4;
    quest.num_patterns = 100;
    quest.seed = 7;
    auto generated = GenerateQuest(quest);
    EXPECT_TRUE(generated.ok());
    return new TransactionDatabase(std::move(generated).value());
  }();
  return *db;
}

const BbsIndex& Bbs() {
  static const BbsIndex* bbs = [] {
    BbsConfig config;
    config.num_bits = 256;
    config.num_hashes = 4;
    auto index = BbsIndex::Create(config);
    EXPECT_TRUE(index.ok());
    index->InsertAll(Db());
    return new BbsIndex(std::move(index).value());
  }();
  return *bbs;
}

/// FNV-1a over the emitted sequence: items, support and kind per pattern.
uint64_t Digest(const std::vector<Pattern>& patterns) {
  uint64_t hash = 14695981039346656037ull;
  auto mix = [&hash](uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xff;
      hash *= 1099511628211ull;
    }
  };
  for (const Pattern& pattern : patterns) {
    mix(pattern.items.size());
    for (ItemId item : pattern.items) mix(item);
    mix(pattern.support);
    mix(static_cast<uint64_t>(pattern.kind));
  }
  return hash;
}

std::vector<uint64_t> Buckets(const obs::DepthHistogram& histogram) {
  std::vector<uint64_t> buckets;
  for (size_t depth = 1; depth <= histogram.MaxNonZeroDepth(); ++depth) {
    buckets.push_back(histogram.at(depth));
  }
  return buckets;
}

std::string Join(const std::vector<uint64_t>& values) {
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < values.size(); ++i) {
    out << (i == 0 ? "" : ", ") << values[i];
  }
  out << "}";
  return out.str();
}

/// The golden row of a run, formatted as a kGoldens initializer so a
/// deliberate change can re-pin it by pasting the failure message.
std::string Row(const std::string& name, const MiningResult& result) {
  const MineStats& s = result.stats;
  std::ostringstream out;
  out << "  {\"" << name << "\", " << result.patterns.size() << ", 0x"
      << std::hex << Digest(result.patterns) << std::dec << "ull, "
      << s.candidates << ", " << s.extension_tests << ", " << s.certified
      << ", " << s.false_drops << ", " << s.probed_transactions << ", "
      << s.db_scans << ",\n   " << Join(Buckets(s.candidates_by_depth))
      << ",\n   " << Join(Buckets(s.pruned_by_depth)) << ",\n   "
      << Join(Buckets(s.false_drops_by_depth)) << "},";
  return out.str();
}

const Golden* Find(const std::string& name) {
  for (const Golden& golden : kGoldens) {
    if (name == golden.name) return &golden;
  }
  return nullptr;
}

struct Case {
  Algorithm algorithm;
  bool rare_first;
  bool folded;
};

std::string NameOf(const Case& c) {
  std::string name = AlgorithmName(c.algorithm);
  name += c.rare_first ? "/rare-first" : "/item-order";
  if (c.folded) name += "/folded";
  return name;
}

class FilterGoldenTest : public ::testing::TestWithParam<Case> {};

TEST_P(FilterGoldenTest, MatchesPinnedSequenceAndCounters) {
  const Case& c = GetParam();
  const std::string name = NameOf(c);
  const Golden* golden = Find(name);
  for (uint32_t threads : {1u, 4u}) {
    MineConfig config;
    config.algorithm = c.algorithm;
    config.min_support = kMinSupport;
    config.rare_first_order = c.rare_first;
    config.num_threads = threads;
    if (c.folded) config.memory_budget_bytes = Bbs().SerializedBytes() * 3 / 4;
    MiningResult result = MineFrequentPatterns(Db(), Bbs(), config);
    const std::string row = Row(name, result);
    SCOPED_TRACE(name + " at " + std::to_string(threads) + " threads");
    ASSERT_NE(golden, nullptr) << "no golden row; actual:\n" << row;
    const MineStats& s = result.stats;
    EXPECT_EQ(result.patterns.size(), golden->patterns) << row;
    EXPECT_EQ(Digest(result.patterns), golden->digest) << row;
    EXPECT_EQ(s.candidates, golden->candidates) << row;
    EXPECT_EQ(s.extension_tests, golden->extension_tests) << row;
    EXPECT_EQ(s.certified, golden->certified) << row;
    EXPECT_EQ(s.false_drops, golden->false_drops) << row;
    EXPECT_EQ(s.probed_transactions, golden->probed_transactions) << row;
    EXPECT_EQ(s.db_scans, golden->db_scans) << row;
    EXPECT_EQ(Buckets(s.candidates_by_depth), golden->candidates_by_depth)
        << row;
    EXPECT_EQ(Buckets(s.pruned_by_depth), golden->pruned_by_depth) << row;
    EXPECT_EQ(Buckets(s.false_drops_by_depth), golden->false_drops_by_depth)
        << row;
  }
}

std::vector<Case> AllCases() {
  std::vector<Case> cases;
  for (Algorithm algorithm : {Algorithm::kSFS, Algorithm::kSFP,
                              Algorithm::kDFS, Algorithm::kDFP}) {
    cases.push_back({algorithm, true, false});
    cases.push_back({algorithm, false, false});
    cases.push_back({algorithm, true, true});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, FilterGoldenTest, ::testing::ValuesIn(AllCases()),
    [](const ::testing::TestParamInfo<Case>& info) {
      std::string name = NameOf(info.param);
      for (char& ch : name) {
        if (ch == '/' || ch == '-') ch = '_';
      }
      return name;
    });

// The workload must keep exercising every branch the goldens are meant to
// cover: sparse roots whose sparse siblings both pass and fail tau (so
// delivered counts decide both ways), dense roots, and sparse roots with
// dense later siblings in walk order.
TEST(FilterGoldenWorkloadTest, SingletonsStraddleTheSparseThreshold) {
  uint64_t tau = AbsoluteThreshold(kMinSupport, Db().size());
  Itemset universe;
  for (ItemId item = 0; item < Db().item_universe(); ++item) {
    universe.push_back(item);
  }
  FilterEngine engine(Bbs(), tau);
  engine.Prepare(universe, nullptr, /*rare_first=*/false);
  const auto& singles = engine.singletons();
  size_t sparse = 0;
  size_t dense = 0;
  bool dense_after_sparse = false;
  for (const FilterEngine::Singleton& single : singles) {
    if (single.est <= engine.sparse_threshold()) {
      ++sparse;
    } else {
      ++dense;
      dense_after_sparse = dense_after_sparse || sparse > 0;
    }
  }
  EXPECT_GE(sparse, 10u);
  EXPECT_GE(dense, 10u);
  EXPECT_TRUE(dense_after_sparse);

  size_t sparse_pairs_passing = 0;
  for (size_t i = 0; i < singles.size(); ++i) {
    for (size_t j = i + 1; j < singles.size(); ++j) {
      if (singles[i].tids.empty() || singles[j].tids.empty()) continue;
      std::vector<uint32_t> both;
      std::set_intersection(singles[i].tids.begin(), singles[i].tids.end(),
                            singles[j].tids.begin(), singles[j].tids.end(),
                            std::back_inserter(both));
      if (both.size() >= tau) ++sparse_pairs_passing;
    }
  }
  EXPECT_GE(sparse_pairs_passing, 10u);
}

}  // namespace
}  // namespace bbsmine
