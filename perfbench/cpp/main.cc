// pbench -- the compiled half of perfbench (perfbench/run.py is
// the other half: it builds, starts the shipped daemons and prints the
// result line). Subcommands:
//
//   gen-quest   write one pinned Quest database, transactions shuffled by seed
//   gen-fleet   write the fleet-read shard databases
//   load        open-loop rate ladder against a running bbsmined/bbsrouter,
//               then back-to-back MINEs (--mine-seconds)
//   traced      host one workload's layers in this process and report
//               per-layer metrics (--minsup sets the miners' threshold,
//               --mine-minsup the MINE requests')
//   selftest    show that a stall's backlog lands in the recorded latencies
//   fingerprint print the SIMD kernel the util dispatcher picked
//
// Every subcommand prints one JSON object as its last stdout line.

#include <cstdio>
#include <iostream>
#include <mutex>
#include <thread>

#include "common.h"
#include "datasets.h"
#include "service/client.h"
#include "service/server.h"
#include "service/wire.h"
#include "traced.h"
#include "util/bitvector_kernels.h"
#include "workload.h"

using namespace pbench;
using bbsmine::TransactionDatabase;
using bbsmine::obs::JsonValue;

namespace {

ServeKind ParseKind(const std::string& name) {
  if (name == "serve-rw") return ServeKind::kServeRw;
  if (name == "fleet-read") return ServeKind::kFleetRead;
  std::cerr << "pbench: unknown serving workload " << name << "\n";
  std::exit(2);
}

int CmdGenQuest(const Args& args) {
  TransactionDatabase db =
      MakeQuest(static_cast<uint32_t>(args.Uint("items", 10'000)),
                args.Uint("shuffle-seed", 1));
  DieIfError(db.Save(args.Require("out")), "save");
  JsonValue doc = JsonValue::Object();
  doc.Set("transactions", JsonValue::Uint(db.size()));
  PrintJsonLine(doc);
  return 0;
}

int CmdGenFleet(const Args& args) {
  JsonValue doc = JsonValue::Object();
  std::vector<TransactionDatabase> shards =
      MakeFleet(args.Uint("shuffle-seed", 1), &doc);
  const std::string prefix = args.Require("out-prefix");
  for (size_t s = 0; s < shards.size(); ++s) {
    DieIfError(shards[s].Save(prefix + "." + std::to_string(s) + ".db"),
               "save shard");
  }
  PrintJsonLine(doc);
  return 0;
}

JsonValue SummaryJson(const VerbSummary& summary) {
  JsonValue doc = JsonValue::Object();
  doc.Set("samples", JsonValue::Uint(summary.samples));
  doc.Set("failed", JsonValue::Uint(summary.failed));
  doc.Set("p50_us", JsonValue::Double(summary.p50_us));
  doc.Set("tail_us", JsonValue::Double(summary.tail_us));
  doc.Set("tail_percentile", JsonValue::Double(summary.tail_percentile));
  doc.Set("mean_us", JsonValue::Double(summary.mean_us));
  return doc;
}

JsonValue RungJson(double rate, double seconds,
                   const std::vector<Sample>& samples, bool sustained,
                   bool backlog) {
  JsonValue rung = JsonValue::Object();
  rung.Set("rate_rps", JsonValue::Double(rate));
  rung.Set("seconds", JsonValue::Double(seconds));
  rung.Set("count", SummaryJson(Summarize(samples, TrafficVerb::kCount)));
  rung.Set("insert", SummaryJson(Summarize(samples, TrafficVerb::kInsert)));
  rung.Set("mine", SummaryJson(Summarize(samples, TrafficVerb::kMine)));
  rung.Set("late_us_p99", JsonValue::Double(LatenessP99(samples)));
  rung.Set("backlog_growing", JsonValue::Bool(backlog));
  rung.Set("sustained", JsonValue::Bool(sustained));
  return rung;
}

/// Reads STATS from the instance on `port` after its share of the load:
/// for serve-rw, every INSERT it acknowledged (`acked`) must be visible;
/// for fleet-read, its pruned and total COUNT legs are added up.
bool CheckInstance(ServeKind kind, uint16_t port, uint64_t base,
                   uint64_t acked, double* pruned, double* legs) {
  JsonValue stats = JsonValue::Object();
  stats.Set("verb", JsonValue::String("STATS"));
  bbsmine::service::ClientSession session("127.0.0.1", port);
  auto response = session.Call(stats);
  if (!response.ok() || !response->at("ok").AsBool()) return false;
  const JsonValue& report = response->at("report");
  if (kind == ServeKind::kServeRw) {
    return report.at("service").at("transactions").AsUint() == base + acked;
  }
  *pruned += static_cast<double>(
      report.at("cluster").at("pruned_shard_queries").AsUint());
  *legs += static_cast<double>(
      report.at("metrics").at("counters").at("requests_count").AsUint() *
      report.at("cluster").at("shards_total").AsUint());
  return true;
}

// MINEs sent back to back on one connection to `port` for `seconds`, each
// judged by `oracle`: the mining request timed on an otherwise quiet,
// warm daemon, as mine-paper times its miners run after run. The first
// kMineWarmup answers are checked but not timed. Returns the latencies
// (send to answer) of the correct ones.
std::vector<double> BackToBackMines(ServeKind kind, uint16_t port,
                                    double seconds, const Oracle& oracle,
                                    uint64_t* attempted, uint64_t* failed) {
  bbsmine::service::ClientSession session("127.0.0.1", port);
  TrafficRequest request;
  request.verb = TrafficVerb::kMine;
  const JsonValue doc = BuildRequest(kind, request, "");
  constexpr size_t kMineWarmup = 2;
  std::vector<double> latencies;
  const double end_us = NowUs() + seconds * 1e6;
  for (size_t sent = 0; NowUs() < end_us || latencies.size() < 5; ++sent) {
    const double start_us = NowUs();
    auto response = session.Call(doc, 10'000);
    const double done_us = NowUs();
    ++*attempted;
    if (!response.ok() || !oracle.Check(request, *response)) {
      if (++*failed > 5) break;
    } else if (sent >= kMineWarmup) {
      latencies.push_back(done_us - start_us);
    }
  }
  return latencies;
}

// The nominal rung (the first rate) is split evenly over the instances
// named by --port (the run's set-up builds each one), so a single
// instance's luck does not set a run's figures; every latency metric
// comes from it. The other rates then run on the last instance for
// --rung-seconds each, ascending, stopping at the first rung that misses
// the COUNT tail limit or builds a backlog. Between the two, each instance
// in turn answers back-to-back MINEs for its share of --mine-seconds.
int CmdLoad(const Args& args) {
  const ServeKind kind = ParseKind(args.Require("workload"));
  const uint64_t seed = args.Uint("seed", 1);
  std::vector<TransactionDatabase> dbs;
  for (const std::string& path : SplitCommas(args.Require("db"))) {
    dbs.push_back(Unwrap(TransactionDatabase::Load(path), "load db"));
  }
  std::vector<bbsmine::ItemId> ranks = kind == ServeKind::kFleetRead
                                           ? FleetRankTable(dbs)
                                           : RankItemsByFrequency(dbs[0]);
  Oracle oracle = kind == ServeKind::kFleetRead ? Oracle::ForFleet(dbs)
                                                : Oracle::ForServe(dbs[0]);

  std::vector<uint16_t> ports;
  for (const std::string& port : SplitCommas(args.Require("port"))) {
    ports.push_back(static_cast<uint16_t>(std::strtoul(port.c_str(), nullptr, 10)));
  }
  LoadTarget target;
  const std::vector<std::string> rates = SplitCommas(args.Require("rates"));

  JsonValue rungs = JsonValue::Array();
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t shared_only = 0;
  uint64_t counts = 0;
  double pruned = 0;
  double legs = 0;
  double max_rps = 0;
  auto run_part = [&](double rate, double seconds, uint64_t schedule_seed,
                      uint16_t port) {
    std::vector<TrafficRequest> schedule =
        MakeSchedule(kind, ranks, rate, seconds, schedule_seed);
    oracle.Prepare(schedule);
    for (const TrafficRequest& request : schedule) {
      if (request.verb != TrafficVerb::kCount) continue;
      ++counts;
      if (request.items.back() < kFleetShared) ++shared_only;
    }
    target.port = port;
    std::vector<Sample> samples = RunOpenLoop(kind, schedule, target, oracle);
    for (const Sample& sample : samples) {
      ++attempted;
      if (!sample.ok) ++failed;
    }
    return samples;
  };

  // Nominal rung, one equal part per instance.
  const double nominal_rate = std::strtod(rates[0].c_str(), nullptr);
  const double nominal_seconds = args.Double("nominal-seconds", 6);
  std::vector<Sample> nominal;
  JsonValue instances = JsonValue::Array();
  for (size_t k = 0; k < ports.size(); ++k) {
    const uint64_t acked_before = oracle.acked_inserts();
    std::vector<Sample> part =
        run_part(nominal_rate, nominal_seconds / ports.size(),
                 seed * 1000 + k * 100, ports[k]);
    nominal.insert(nominal.end(), part.begin(), part.end());
    JsonValue instance = JsonValue::Object();
    instance.Set("count_p50_us", JsonValue::Double(
                                     Summarize(part, TrafficVerb::kCount).p50_us));
    instance.Set("mine_p50_us", JsonValue::Double(
                                    Summarize(part, TrafficVerb::kMine).p50_us));
    instances.Append(std::move(instance));
    ++attempted;
    if (!CheckInstance(kind, ports[k], oracle.base_transactions(),
                       oracle.acked_inserts() - acked_before, &pruned,
                       &legs)) {
      ++failed;
      std::cerr << "pbench: instance on port " << ports[k]
                << " failed its end-of-load check\n";
    }
  }
  const VerbSummary count = Summarize(nominal, TrafficVerb::kCount);
  bool backlog = BacklogGrowing(nominal);
  bool sustained = count.tail_us <= kCountTailLimitUs && !backlog;
  JsonValue rung = RungJson(nominal_rate, nominal_seconds, nominal,
                            sustained, backlog);
  rung.Set("instances", std::move(instances));
  rungs.Append(std::move(rung));

  std::vector<double> mines;
  JsonValue mine_instances = JsonValue::Array();
  const double mine_seconds = args.Double("mine-seconds", 0);
  for (size_t k = 0; k < ports.size() && mine_seconds > 0; ++k) {
    std::vector<double> part =
        BackToBackMines(kind, ports[k], mine_seconds / ports.size(), oracle,
                        &attempted, &failed);
    mines.insert(mines.end(), part.begin(), part.end());
    mine_instances.Append(JsonValue::Double(
        part.empty() ? 0 : Percentile(&part, 0.5)));
  }
  JsonValue back_to_back = JsonValue::Object();
  back_to_back.Set("instance_p50_us", std::move(mine_instances));
  back_to_back.Set("samples", JsonValue::Uint(mines.size()));
  back_to_back.Set("p50_us", JsonValue::Double(
                                 mines.empty() ? 0 : Percentile(&mines, 0.5)));

  for (size_t r = 1; r < rates.size() && sustained; ++r) {
    max_rps = std::max(max_rps, std::strtod(rates[r - 1].c_str(), nullptr));
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    const double rate = std::strtod(rates[r].c_str(), nullptr);
    const double seconds = args.Double("rung-seconds", 2);
    std::vector<Sample> samples =
        run_part(rate, seconds, seed * 1000 + r, ports.back());
    backlog = BacklogGrowing(samples);
    sustained =
        Summarize(samples, TrafficVerb::kCount).tail_us <= kCountTailLimitUs &&
        !backlog;
    rungs.Append(RungJson(rate, seconds, samples, sustained, backlog));
    if (sustained && r + 1 == rates.size()) max_rps = rate;
  }

  JsonValue doc = JsonValue::Object();
  doc.Set("rungs", std::move(rungs));
  doc.Set("max_rps", JsonValue::Double(max_rps));
  doc.Set("mine_back_to_back", std::move(back_to_back));
  doc.Set("attempted", JsonValue::Uint(attempted));
  doc.Set("failed", JsonValue::Uint(failed));
  doc.Set("acked_inserts", JsonValue::Uint(oracle.acked_inserts()));
  if (kind == ServeKind::kFleetRead) {
    // Shard legs Bloofi pruned, as a share of all COUNT legs.
    doc.Set("prune_ratio", JsonValue::Double(legs > 0 ? pruned / legs : 0));
  }
  doc.Set("shared_only_share",
          JsonValue::Double(counts == 0 ? 0
                                        : static_cast<double>(shared_only) /
                                              static_cast<double>(counts)));
  PrintJsonLine(doc);
  return 0;
}

// A handler that answers COUNT at once but, for one window, holds a global
// lock for `stall_ms` -- every connection stalls behind it, as they do
// behind a checkpoint holding the daemon's write mutex.
class StallingHandler : public bbsmine::service::RequestHandler {
 public:
  StallingHandler(double stall_at_us, double stall_ms)
      : stall_at_us_(stall_at_us), stall_ms_(stall_ms) {}

  JsonValue Handle(const JsonValue& request,
                   const bbsmine::service::RequestContext&) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!stalled_ && NowUs() >= stall_at_us_) {
        stalled_ = true;
        std::this_thread::sleep_for(
            std::chrono::microseconds(static_cast<int64_t>(stall_ms_ * 1e3)));
      }
    }
    JsonValue response = bbsmine::service::OkResponse("COUNT");
    response.Set("items", request.at("items"));
    response.Set("count", JsonValue::Uint(1u << 30));
    return response;
  }

  bbsmine::service::ServiceMetrics& metrics() override { return metrics_; }

 private:
  double stall_at_us_;
  double stall_ms_;
  std::mutex mu_;
  bool stalled_ = false;  // guarded by mu_
  bbsmine::service::ServiceMetrics metrics_;
};

}  // namespace

namespace pbench {

JsonValue RunSelfTest() {
  const double rate = 400;
  const double seconds = 2;
  const double stall_ms = 200;
  TransactionDatabase tiny;
  tiny.Append({1});
  tiny.Append({2});
  Oracle oracle = Oracle::ForServe(tiny);
  std::vector<bbsmine::ItemId> ranks = {1, 2};
  std::vector<TrafficRequest> schedule;
  for (TrafficRequest request :
       MakeSchedule(ServeKind::kServeRw, ranks, rate, seconds, 99)) {
    request.verb = TrafficVerb::kCount;
    request.items = {1, 2};
    schedule.push_back(request);
  }
  StallingHandler handler(NowUs() + 1e6, stall_ms);
  bbsmine::service::SocketServer server(&handler, {});
  DieIfError(server.Start(), "selftest server");
  LoadTarget target;
  target.port = server.port();
  std::vector<Sample> samples =
      RunOpenLoop(ServeKind::kServeRw, schedule, target, oracle);
  server.Stop();

  // Requests due during the stall must carry the stall in their latency;
  // timed from their send instead, most of it would vanish.
  std::vector<double> from_due;
  std::vector<double> from_send;
  size_t delayed = 0;
  for (const Sample& sample : samples) {
    from_due.push_back(sample.latency_us());
    from_send.push_back(sample.done_us - sample.sent_us);
    if (sample.latency_us() >= stall_ms * 1e3 / 2) ++delayed;
  }
  const double p95_due = Percentile(&from_due, 0.95);
  const double p95_send = Percentile(&from_send, 0.95);
  const double max_due = Percentile(&from_due, 1.0);
  // About rate * stall / 2 requests fall due in the stall's first half.
  const double expected_delayed = rate * stall_ms / 1e3 / 2;
  const bool ok = max_due >= stall_ms * 1e3 * 0.9 &&
                  static_cast<double>(delayed) >= expected_delayed * 0.8 &&
                  p95_due > 2 * p95_send;
  JsonValue doc = JsonValue::Object();
  doc.Set("ok", JsonValue::Bool(ok));
  doc.Set("stall_ms", JsonValue::Double(stall_ms));
  doc.Set("requests", JsonValue::Uint(samples.size()));
  doc.Set("delayed_by_half_stall", JsonValue::Uint(delayed));
  doc.Set("expected_delayed", JsonValue::Double(expected_delayed));
  doc.Set("p95_from_due_us", JsonValue::Double(p95_due));
  doc.Set("p95_from_send_us", JsonValue::Double(p95_send));
  doc.Set("max_from_due_us", JsonValue::Double(max_due));
  return doc;
}

}  // namespace pbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: pbench gen-quest|gen-fleet|load|traced|selftest|"
                 "fingerprint [--flag value ...]\n";
    return 2;
  }
  const std::string command = argv[1];
  Args args(argc, argv, 2);
  if (command == "gen-quest") return CmdGenQuest(args);
  if (command == "gen-fleet") return CmdGenFleet(args);
  if (command == "load") return CmdLoad(args);
  if (command == "traced") return CmdTraced(args);
  if (command == "selftest") {
    JsonValue doc = RunSelfTest();
    PrintJsonLine(doc);
    return doc.at("ok").AsBool() ? 0 : 1;
  }
  if (command == "fingerprint") {
    JsonValue doc = JsonValue::Object();
    doc.Set("kernel", JsonValue::String(bbsmine::kernels::ActiveName()));
    PrintJsonLine(doc);
    return 0;
  }
  std::cerr << "pbench: unknown command " << command << "\n";
  return 2;
}
