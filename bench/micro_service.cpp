// micro_service — overhead gate for the bbsmined observability plane.
//
// Measures BbsService::Handle on a COUNT request two ways: a bare service
// (no tracer, no slow log, no flight recorder) and one with the full plane
// attached but quiet — sampling set so no request traces, the slow-query
// threshold set so no request logs, the flight ring recording every
// request (it always does; recording is the plane's only unconditional
// per-request work). The delta is what production pays for having the
// plane armed, and the gate fails when it exceeds the limit (default 2%,
// the bound docs/OBSERVABILITY.md promises).
//
// The companion scripts/service_overhead.sh makes the same comparison
// end-to-end through bbsbench and a real daemon; this binary is the
// in-process version CI can run quickly and deterministically.
//
// Usage: micro_service [--limit-pct P]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/segmented_bbs.h"
#include "datagen/quest_gen.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "service/flight_recorder.h"
#include "service/metrics.h"
#include "service/server.h"
#include "service/slow_log.h"
#include "service/snapshot.h"
#include "service/wire.h"
#include "util/flags.h"

using namespace bbsmine;

namespace {

/// Keeps `value` observable so the handled responses are not optimized
/// away (same contract as benchmark::DoNotOptimize, without the library).
template <typename T>
inline void Consume(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Per-call wall time of `fn(thread, call)` replayed from `num_threads`
/// concurrent submitters, `batch` calls each. Concurrent submission is
/// what production sees (it is what makes the scheduler fuse batches),
/// and averaging over num_threads * batch calls drowns the per-wakeup
/// futex jitter that dominates a single request's latency.
template <typename Fn>
double TimeBatchNs(Fn&& fn, size_t num_threads, uint64_t batch) {
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&fn, t, batch] {
      for (uint64_t i = 0; i < batch; ++i) fn(t, i);
    });
  }
  for (std::thread& thread : threads) thread.join();
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - start)
             .count() /
         static_cast<double>(num_threads * batch);
}

/// Compares two workloads' per-call wall time and returns the median of
/// the per-rep B/A ratios (plus representative per-call times).
///
/// Handle() is µs-scale and dominated by the scheduler's batch fan-out
/// onto pool threads, whose cost drifts with CPU frequency and thread
/// placement over a run.
/// Sequential A-then-B timing (the micro_bbs idiom) drowns a percent-
/// level delta in that drift; here each rep times an A batch and a B
/// batch back to back, so the pair shares its drift and the ratio
/// isolates the configuration delta. The median over reps discards the
/// pairs a descheduling landed in.
template <typename FnA, typename FnB>
double MedianRatio(FnA&& a, FnB&& b, size_t num_threads, double* a_ns,
                   double* b_ns) {
  constexpr int kReps = 9;
  constexpr double kMinRepNs = 1e8;
  uint64_t batch = 16;
  while (TimeBatchNs(a, num_threads, batch) *
                 static_cast<double>(num_threads * batch) <
             kMinRepNs &&
         batch < (1u << 20)) {
    batch *= 4;
  }
  TimeBatchNs(b, num_threads, batch);  // equalize warm-up before the reps
  std::vector<double> ratios;
  std::vector<double> a_times;
  for (int rep = 0; rep < kReps; ++rep) {
    // Alternate which workload goes first: whichever runs second in a
    // pair inherits a slightly different cache/frequency state, and that
    // bias must not masquerade as plane overhead.
    double at;
    double bt;
    if (rep % 2 == 0) {
      at = TimeBatchNs(a, num_threads, batch);
      bt = TimeBatchNs(b, num_threads, batch);
    } else {
      bt = TimeBatchNs(b, num_threads, batch);
      at = TimeBatchNs(a, num_threads, batch);
    }
    ratios.push_back(bt / at);
    a_times.push_back(at);
  }
  std::sort(ratios.begin(), ratios.end());
  std::sort(a_times.begin(), a_times.end());
  *a_ns = a_times[kReps / 2];
  *b_ns = *a_ns * ratios[kReps / 2];
  return ratios[kReps / 2];
}

std::vector<obs::JsonValue> BuildRequests() {
  // A fixed COUNT mix (sizes 1..3), precomputed so both loops replay the
  // identical request sequence with no JSON construction in the timed
  // region.
  std::vector<obs::JsonValue> requests;
  for (uint32_t q = 0; q < 64; ++q) {
    Itemset items;
    for (uint32_t k = 0; k <= q % 3; ++k) {
      items.push_back(static_cast<ItemId>((q * 131 + k * 977) % 10'000));
    }
    Canonicalize(&items);
    obs::JsonValue request = obs::JsonValue::Object();
    request.Set("verb", obs::JsonValue::String("COUNT"));
    request.Set("items", service::ItemsToJson(items));
    requests.push_back(std::move(request));
  }
  return requests;
}

}  // namespace

int main(int argc, char** argv) {
  double limit_pct = 2.0;
  FlagSet flags("micro_service", "observability-plane overhead gate");
  flags.Double("limit-pct", &limit_pct, "fail at this overhead, percent");
  flags.ParseOrExit(argc, argv, 1);

  QuestConfig quest;  // default T10.I10.D10K
  TransactionDatabase db = std::move(GenerateQuest(quest)).value();
  BbsConfig config;
  // Wide vectors over many segments: each COUNT streams enough slice
  // words that Handle's cost is dominated by deterministic index work
  // (as production requests are), not by the futex wake-ups of the pool
  // fan-out, whose jitter would otherwise drown a percent-level overhead.
  config.num_bits = 16384;
  config.num_hashes = 4;
  auto index = SegmentedBbs::Create(config, /*segment_capacity=*/1024);
  if (!index.ok() || !index->InsertAll(db).ok()) {
    std::fprintf(stderr, "micro_service: failed to build the index\n");
    return 1;
  }
  auto manager = service::SnapshotManager::FromIndex(*index);
  if (!manager.ok()) {
    std::fprintf(stderr, "micro_service: %s\n",
                 manager.status().ToString().c_str());
    return 1;
  }
  std::vector<obs::JsonValue> requests = BuildRequests();

  // Bare: the plane absent, as a daemon started with no --trace-out /
  // --slow-log / --flight-recorder-size runs.
  service::BbsService bare(&*manager, nullptr, service::ServiceOptions{});

  // Armed-but-quiet: tracer attached with a sampling period no request
  // hits, slow log attached with an unreachable threshold, flight ring
  // recording every request.
  std::string slow_path =
      (std::filesystem::temp_directory_path() /
       ("micro_service_slow_" + std::to_string(::getpid()) + ".jsonl"))
          .string();
  auto slow_log = service::SlowQueryLog::Open(slow_path);
  if (!slow_log.ok()) {
    std::fprintf(stderr, "micro_service: %s\n",
                 slow_log.status().ToString().c_str());
    return 1;
  }
  obs::Tracer tracer(obs::kTraceService);
  service::FlightRecorder recorder(/*ring_capacity=*/64);
  service::ServiceOptions armed_options;
  armed_options.tracer = &tracer;
  armed_options.trace_sample = 1u << 30;  // sampled: effectively never
  armed_options.slow_log = slow_log->get();
  armed_options.slow_query_us = ~0ull;  // logged: never
  armed_options.flight_recorder = &recorder;
  service::BbsService armed(&*manager, nullptr, armed_options);
  // One flight ring per submitter: rings are single-writer, exactly as
  // the socket server hands one per connection.
  constexpr size_t kSubmitters = 4;
  std::vector<service::RequestContext> ctxs(kSubmitters);
  for (size_t t = 0; t < kSubmitters; ++t) {
    ctxs[t].connection_id = t + 1;
    ctxs[t].flight = recorder.AcquireRing(t + 1);
  }
  // Warm-up: request seq 0 always samples (seq % period == 0), so absorb
  // it outside the timed region; afterwards no request may trace or log.
  Consume(armed.Handle(requests[0], ctxs[0]));
  const size_t traced_after_warmup = tracer.event_count();

  // A descheduling storm can land entirely inside one mode's batches and
  // fake a percent-level delta, so a failing measurement gets re-measured:
  // a real regression fails every attempt, noise does not repeat.
  constexpr int kAttempts = 5;
  double bare_ns = 0;
  double armed_ns = 0;
  double overhead_pct = 0;
  for (int attempt = 1; attempt <= kAttempts; ++attempt) {
    double ratio = MedianRatio(
        [&](size_t t, uint64_t i) {
          Consume(bare.Handle(requests[(t * 17 + i) % requests.size()]));
        },
        [&](size_t t, uint64_t i) {
          Consume(armed.Handle(requests[(t * 17 + i) % requests.size()],
                               ctxs[t]));
        },
        kSubmitters, &bare_ns, &armed_ns);
    overhead_pct = (ratio - 1.0) * 100.0;
    std::printf(
        "observability-plane overhead on Handle(COUNT), attempt %d/%d: "
        "bare %.0f ns, armed-but-quiet %.0f ns, overhead %.2f%% "
        "(limit %.1f%%)\n",
        attempt, kAttempts, bare_ns, armed_ns, overhead_pct, limit_pct);
    if (overhead_pct < limit_pct) break;
  }
  uint64_t flight_recorded = 0;
  for (const service::RequestContext& ctx : ctxs) {
    flight_recorded += ctx.flight->recorded();
  }
  std::printf("sanity: traced=%zu slow_logged=%llu flight_recorded=%llu\n",
              tracer.event_count(),
              static_cast<unsigned long long>((*slow_log)->appended()),
              static_cast<unsigned long long>(flight_recorded));
  std::filesystem::remove(slow_path);

  if (tracer.event_count() != traced_after_warmup ||
      (*slow_log)->appended() != 0) {
    std::fprintf(stderr,
                 "FAIL: the quiet configuration produced trace/slow-log "
                 "output; the measurement is not an apples-to-apples "
                 "overhead\n");
    return 1;
  }
  if (overhead_pct >= limit_pct) {
    std::fprintf(stderr, "FAIL: observability-plane overhead above limit\n");
    return 1;
  }
  return 0;
}
