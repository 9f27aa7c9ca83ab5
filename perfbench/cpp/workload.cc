#include "workload.h"

#include <algorithm>
#include <thread>

#include "baseline/eclat.h"
#include "common.h"
#include "core/bbs_index.h"
#include "core/mining_types.h"
#include "service/client.h"
#include "service/wire.h"

namespace pbench {

using bbsmine::ItemId;
using bbsmine::TransactionDatabase;
using bbsmine::obs::JsonValue;

size_t DefaultConnections() {
  return std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
}

namespace {
double mine_minsup_override = 0;
}  // namespace

void SetMineMinsup(double minsup) { mine_minsup_override = minsup; }

TrafficShape ShapeOf(ServeKind kind) {
  TrafficShape shape;
  if (mine_minsup_override > 0) shape.mine_minsup = mine_minsup_override;
  if (kind == ServeKind::kServeRw) {
    shape.count = 0.84;
    shape.insert = 0.15;
    shape.mine = 0.01;
  } else {
    shape.count = 0.98;
    shape.mine = 0.02;
  }
  return shape;
}

std::vector<ItemId> RankItemsByFrequency(const TransactionDatabase& db) {
  std::map<ItemId, uint64_t> freq;
  for (size_t t = 0; t < db.size(); ++t) {
    for (ItemId item : db.At(t).items) ++freq[item];
  }
  std::vector<std::pair<uint64_t, ItemId>> ranked;
  for (const auto& [item, n] : freq) ranked.emplace_back(n, item);
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  std::vector<ItemId> items;
  for (const auto& entry : ranked) items.push_back(entry.second);
  return items;
}

std::vector<TrafficRequest> MakeSchedule(ServeKind kind,
                                         const std::vector<ItemId>& rank_to_item,
                                         double rate_rps, double seconds,
                                         uint64_t seed) {
  const TrafficShape shape = ShapeOf(kind);
  bbsmine::TrafficSpec spec;
  spec.seed = seed;
  spec.rate_rps = rate_rps;
  spec.duration_s = seconds;
  spec.mix.ping = 0;
  spec.mix.stats = 0;
  spec.mix.count = shape.count;
  spec.mix.insert = shape.insert;
  spec.mix.mine = shape.mine;
  spec.item_universe = static_cast<uint32_t>(rank_to_item.size());
  spec.zipf_s = 0.99;
  spec.query_len = 2;
  spec.insert_len_mean = 10;
  spec.mine_minsup = shape.mine_minsup;
  spec.mine_top = shape.mine_top;
  std::vector<TrafficRequest> stream =
      Unwrap(bbsmine::GenerateTraffic(spec), "traffic schedule");
  for (TrafficRequest& request : stream) {
    for (ItemId& item : request.items) item = rank_to_item[item];
    bbsmine::Canonicalize(&request.items);
  }
  return stream;
}

JsonValue BuildRequest(ServeKind kind, const TrafficRequest& request,
                       const std::string& trace_id) {
  JsonValue doc = JsonValue::Object();
  doc.Set("verb", JsonValue::String(bbsmine::TrafficVerbName(request.verb)));
  if (request.verb == TrafficVerb::kMine) {
    const TrafficShape shape = ShapeOf(kind);
    doc.Set("minsup", JsonValue::Double(shape.mine_minsup));
    doc.Set("top", JsonValue::Uint(shape.mine_top));
  } else {
    doc.Set("items", bbsmine::service::ItemsToJson(request.items));
  }
  if (!trace_id.empty()) doc.Set("trace_id", JsonValue::String(trace_id));
  return doc;
}

namespace {

std::string PatternsText(const std::vector<bbsmine::Pattern>& patterns) {
  JsonValue array = JsonValue::Array();
  for (const bbsmine::Pattern& pattern : patterns) {
    JsonValue entry = JsonValue::Object();
    entry.Set("items", bbsmine::service::ItemsToJson(pattern.items));
    entry.Set("support", JsonValue::Uint(pattern.support));
    array.Append(std::move(entry));
  }
  return array.Serialize(0);
}

bool IsOk(const JsonValue& response) {
  return response.at("ok").kind() == JsonValue::Kind::kBool &&
         response.at("ok").AsBool();
}

}  // namespace

Oracle Oracle::ForServe(const TransactionDatabase& base) {
  Oracle oracle;
  oracle.kind_ = ServeKind::kServeRw;
  oracle.base_transactions_ = base.size();
  ItemId max_item = 0;
  for (size_t t = 0; t < base.size(); ++t) {
    for (ItemId item : base.At(t).items) max_item = std::max(max_item, item);
  }
  oracle.tidsets_.assign(max_item + 1, bbsmine::BitVector(base.size()));
  for (size_t t = 0; t < base.size(); ++t) {
    for (ItemId item : base.At(t).items) oracle.tidsets_[item].Set(t);
  }
  return oracle;
}

Oracle Oracle::ForFleet(const std::vector<TransactionDatabase>& shards) {
  Oracle oracle;
  oracle.kind_ = ServeKind::kFleetRead;
  // One node over the concatenation: the same BbsConfig the shards were
  // built with, every transaction in shard order.
  auto single = std::make_shared<bbsmine::BbsIndex>(
      Unwrap(bbsmine::BbsIndex::Create(bbsmine::BbsConfig{}), "oracle index"));
  for (const TransactionDatabase& shard : shards) single->InsertAll(shard);
  oracle.single_ = std::move(single);
  TransactionDatabase all;
  for (const TransactionDatabase& shard : shards) {
    for (size_t t = 0; t < shard.size(); ++t) all.Append(shard.At(t).items);
  }
  oracle.base_transactions_ = all.size();
  const TrafficShape shape = ShapeOf(ServeKind::kFleetRead);
  bbsmine::EclatConfig config;
  config.min_support = shape.mine_minsup;
  bbsmine::MiningResult mined = bbsmine::MineEclat(all, config);
  std::sort(mined.patterns.begin(), mined.patterns.end(),
            [](const bbsmine::Pattern& a, const bbsmine::Pattern& b) {
              if (a.support != b.support) return a.support > b.support;
              return a.items < b.items;
            });
  const size_t total = mined.patterns.size();
  if (mined.patterns.size() > shape.mine_top) {
    mined.patterns.resize(shape.mine_top);
  }
  oracle.expected_mine_ = std::to_string(total) + "|" +
                          std::to_string(all.size()) + "|" +
                          PatternsText(mined.patterns);
  return oracle;
}

void Oracle::Prepare(const std::vector<TrafficRequest>& schedule) {
  if (kind_ != ServeKind::kFleetRead) return;
  std::vector<const Itemset*> todo;
  for (const TrafficRequest& request : schedule) {
    if (request.verb == TrafficVerb::kCount &&
        expected_counts_.count(request.items) == 0) {
      expected_counts_[request.items] = 0;
      todo.push_back(&request.items);
    }
  }
  for (const Itemset* items : todo) {
    expected_counts_[*items] = single_->CountItemSet(*items);
  }
}

uint64_t Oracle::ExactSupport(const Itemset& items) const {
  if (items.empty()) return base_transactions_;
  for (ItemId item : items) {
    if (item >= tidsets_.size()) return 0;
  }
  bbsmine::BitVector acc = tidsets_[items[0]];
  for (size_t i = 1; i < items.size(); ++i) acc.AndWith(tidsets_[items[i]]);
  return acc.Count();
}

bool Oracle::CheckMine(const JsonValue& response) const {
  const JsonValue& patterns = response.at("patterns");
  if (patterns.kind() != JsonValue::Kind::kArray) return false;
  if (kind_ == ServeKind::kFleetRead) {
    const std::string got =
        std::to_string(response.at("total_frequent").AsUint()) + "|" +
        std::to_string(response.at("transactions").AsUint()) + "|" +
        patterns.Serialize(0);
    return got == expected_mine_;
  }
  const TrafficShape shape = ShapeOf(kind_);
  const uint64_t transactions = response.at("transactions").AsUint();
  if (transactions < base_transactions_ || patterns.size() == 0 ||
      patterns.size() > shape.mine_top ||
      response.at("total_frequent").AsUint() < patterns.size()) {
    return false;
  }
  const uint64_t inserted = transactions - base_transactions_;
  const uint64_t tau =
      bbsmine::AbsoluteThreshold(shape.mine_minsup, transactions);
  uint64_t previous = UINT64_MAX;
  for (size_t p = 0; p < patterns.size(); ++p) {
    auto items = bbsmine::service::ItemsFromJson(patterns.at(p).at("items"));
    if (!items.ok()) return false;
    const uint64_t support = patterns.at(p).at("support").AsUint();
    const uint64_t base = ExactSupport(*items);
    if (support < tau || support < base || support > base + inserted ||
        support > previous) {
      return false;
    }
    previous = support;
  }
  return true;
}

bool Oracle::Check(const TrafficRequest& request,
                   const JsonValue& response) const {
  if (!IsOk(response)) return false;
  switch (request.verb) {
    case TrafficVerb::kCount: {
      const uint64_t count = response.at("count").AsUint();
      if (kind_ == ServeKind::kFleetRead) {
        auto it = expected_counts_.find(request.items);
        return it != expected_counts_.end() && it->second == count;
      }
      return count >= ExactSupport(request.items);
    }
    case TrafficVerb::kInsert:
      if (response.at("inserted").AsUint() != 1) return false;
      acked_->fetch_add(1);
      return true;
    case TrafficVerb::kMine:
      return CheckMine(response);
    default:
      return false;
  }
}

std::vector<Sample> RunOpenLoop(ServeKind kind,
                                const std::vector<TrafficRequest>& schedule,
                                const LoadTarget& target,
                                const Oracle& oracle) {
  std::vector<Sample> samples(schedule.size());
  std::atomic<size_t> next{0};
  const double start_us = NowUs() + 20'000;  // let every worker get ready
  auto worker = [&] {
    bbsmine::service::ClientSession session(target.host, target.port);
    for (;;) {
      const size_t i = next.fetch_add(1);
      if (i >= schedule.size()) return;
      Sample& sample = samples[i];
      sample.verb = schedule[i].verb;
      sample.due_us = start_us + static_cast<double>(schedule[i].scheduled_us);
      sample.claimed_us = NowUs();
      std::string trace_id;
      if (target.tag_trace_ids) trace_id = 'r' + std::to_string(i);
      const JsonValue request = BuildRequest(kind, schedule[i], trace_id);
      SleepUntilUs(sample.due_us);
      sample.sent_us = NowUs();
      auto response = session.Call(request, target.timeout_ms);
      sample.done_us = NowUs();
      sample.ok = response.ok() && oracle.Check(schedule[i], *response);
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 1; c < target.connections; ++c) threads.emplace_back(worker);
  worker();
  for (std::thread& thread : threads) thread.join();
  return samples;
}

VerbSummary Summarize(const std::vector<Sample>& samples, TrafficVerb verb) {
  VerbSummary summary;
  std::vector<double> latencies;
  for (const Sample& sample : samples) {
    if (sample.verb != verb) continue;
    ++summary.samples;
    if (!sample.ok) ++summary.failed;
    latencies.push_back(sample.ok ? sample.latency_us() : 1e12);
  }
  if (latencies.empty()) return summary;
  summary.mean_us = Mean(latencies);
  summary.p50_us = Percentile(&latencies, 0.5);
  summary.tail_percentile = SupportedTailPercentile(latencies.size());
  summary.tail_us = Percentile(&latencies, summary.tail_percentile);
  return summary;
}

double LatenessP99(const std::vector<Sample>& samples) {
  std::vector<double> late;
  for (const Sample& sample : samples) late.push_back(sample.late_us());
  return Percentile(&late, 0.99);
}

bool BacklogGrowing(const std::vector<Sample>& samples) {
  if (samples.size() < 8) return false;
  const size_t quarter = samples.size() / 4;
  auto wait_p50 = [&](size_t begin) {
    std::vector<double> waits;
    for (size_t i = begin; i < begin + quarter; ++i) {
      waits.push_back(samples[i].sent_us - samples[i].due_us);
    }
    return Percentile(&waits, 0.5);
  };
  // A sustained rate leaves the typical send delay flat; an overloaded one
  // keeps pushing it up (here: by more than 5 ms across the rung).
  return wait_p50(samples.size() - quarter) > wait_p50(0) + 5'000;
}

}  // namespace pbench
