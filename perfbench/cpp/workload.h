// The serving workloads (serve-rw, fleet-read): their traffic schedules,
// the oracle every answer is checked against, and the open-loop generator
// that drives a daemon or router with them.
//
// Open-loop discipline: every request has a due time drawn from a Poisson
// arrival process before any socket is touched. `connections` worker
// threads each own one ClientSession; an idle worker claims the next
// request in due order, sleeps until it is due and sends it. So a due
// request always goes to the first connection that is idle, and when all
// are busy it waits in the schedule -- that wait is part of its latency,
// which is measured from the due time, never from the send time.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/bbs_index.h"
#include "datagen/traffic_gen.h"
#include "obs/json.h"
#include "storage/transaction_db.h"
#include "util/bitvector.h"

namespace pbench {

using bbsmine::Itemset;
using bbsmine::TrafficRequest;
using bbsmine::TrafficVerb;

enum class ServeKind { kServeRw, kFleetRead };

/// Traffic shape of a serving workload.
struct TrafficShape {
  double count = 0;
  double insert = 0;
  double mine = 0;
  double mine_minsup = 0.02;
  uint32_t mine_top = 10;
};

TrafficShape ShapeOf(ServeKind kind);

/// Makes every shape's MINE requests use `minsup` (0 restores the shape's
/// own), for data on which nothing is frequent at the default.
void SetMineMinsup(double minsup);

/// Zipf rank -> item id table: the items of `db` by descending frequency
/// (ties by id), so Zipf rank 0 is the most frequent item.
std::vector<bbsmine::ItemId> RankItemsByFrequency(
    const bbsmine::TransactionDatabase& db);

/// The request stream of one ladder rung: Poisson arrivals at `rate_rps`
/// for `seconds`, COUNTs of two Zipf(0.99)-ranked items, INSERTs of one
/// Zipf-drawn transaction, MINEs at the shape's minsup and top.
std::vector<TrafficRequest> MakeSchedule(
    ServeKind kind, const std::vector<bbsmine::ItemId>& rank_to_item,
    double rate_rps, double seconds, uint64_t seed);

/// The wire request for one scheduled operation. A non-empty `trace_id`
/// is attached so spans on the serving side can be matched to it.
bbsmine::obs::JsonValue BuildRequest(ServeKind kind,
                                     const TrafficRequest& request,
                                     const std::string& trace_id);

/// Checks every answer of a serving workload.
///  * serve-rw: a COUNT must be >= the exact support over the base data
///    (inserts only add transactions; BBS never underestimates); a MINE
///    pattern's support must lie between its exact base support and that
///    plus the transactions inserted since; an INSERT must acknowledge its
///    one transaction.
///  * fleet-read: COUNT and MINE must be bit-identical to a single node
///    holding the concatenated shards (a BbsIndex over all transactions
///    and Eclat over the concatenated database).
class Oracle {
 public:
  static Oracle ForServe(const bbsmine::TransactionDatabase& base);
  /// The shards' indexes are built with bbsmine's default BbsConfig
  /// (m = 1600, k = 4), as `bbsmine build --bits 1600 --hashes 4` does.
  static Oracle ForFleet(
      const std::vector<bbsmine::TransactionDatabase>& shards);

  /// Precomputes the expected answers of every request in `schedule`
  /// (single-threaded; Check* are then read-only and thread-safe).
  void Prepare(const std::vector<TrafficRequest>& schedule);

  bool Check(const TrafficRequest& request,
             const bbsmine::obs::JsonValue& response) const;

  size_t base_transactions() const { return base_transactions_; }
  /// Transactions acknowledged by successful INSERTs so far.
  uint64_t acked_inserts() const { return acked_->load(); }

 private:
  uint64_t ExactSupport(const Itemset& items) const;
  bool CheckMine(const bbsmine::obs::JsonValue& response) const;

  ServeKind kind_ = ServeKind::kServeRw;
  size_t base_transactions_ = 0;
  // serve-rw: one bit per base transaction per item.
  std::vector<bbsmine::BitVector> tidsets_;
  // fleet-read: one index over every shard's transactions, and the answers.
  std::shared_ptr<const bbsmine::BbsIndex> single_;
  std::map<Itemset, uint64_t> expected_counts_;
  std::string expected_mine_;
  std::unique_ptr<std::atomic<uint64_t>> acked_ =
      std::make_unique<std::atomic<uint64_t>>(0);
};

/// One request's life, in NowUs() microseconds.
struct Sample {
  double due_us = 0;      ///< when the arrival process scheduled it
  double claimed_us = 0;  ///< when an idle connection picked it up
  double sent_us = 0;     ///< when ClientSession::Call began
  double done_us = 0;     ///< when the response (or error) arrived
  TrafficVerb verb = TrafficVerb::kCount;
  bool ok = false;        ///< answered, and the answer checked correct

  double latency_us() const { return done_us - due_us; }
  /// Generator lateness: how far past its due time a request was sent
  /// although a connection was idle for it (0 when it waited for one).
  double late_us() const {
    return claimed_us <= due_us ? sent_us - due_us : 0;
  }
};

/// COUNT tail limit of a sustained ladder rung.
inline constexpr double kCountTailLimitUs = 20'000;

/// Connections (and load threads) of the generator: min(4, nproc).
size_t DefaultConnections();

struct LoadTarget {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  size_t connections = DefaultConnections();
  int timeout_ms = 10'000;
  /// Attach "r<index>" trace ids (traced runs only).
  bool tag_trace_ids = false;
};

/// Drives `schedule` open-loop against `target`; `oracle` judges each
/// answer. Due times are offsets from the call.
std::vector<Sample> RunOpenLoop(ServeKind kind,
                                const std::vector<TrafficRequest>& schedule,
                                const LoadTarget& target, const Oracle& oracle);

/// Latency summary of one verb within one rung (failed requests count as
/// infinitely slow, so they miss every latency limit).
struct VerbSummary {
  size_t samples = 0;
  size_t failed = 0;
  double p50_us = 0;
  double tail_us = 0;
  double tail_percentile = 0;
  double mean_us = 0;
};

VerbSummary Summarize(const std::vector<Sample>& samples, TrafficVerb verb);

/// p99 of generator lateness over the rung, microseconds.
double LatenessP99(const std::vector<Sample>& samples);

/// True when the last quarter of the rung waited for a connection much
/// longer than the first quarter: the offered rate outran the service.
bool BacklogGrowing(const std::vector<Sample>& samples);

}  // namespace pbench

#endif  // PERFBENCH_WORKLOAD_H_
