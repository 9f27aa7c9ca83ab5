// bbsrouter — the sharded-cluster front door.
//
// Fronts N bbsmined shards (a transaction-range partition of one logical
// database) behind the same wire protocol the daemon speaks, so unmodified
// clients (`bbsmine client`, bbsbench) talk to the fleet exactly as they
// talk to one daemon. COUNT fans out to the shards the Bloofi-style
// routing tree cannot rule out and sums in shard order; MINE runs the
// two-round global-τ candidate exchange; both are bit-identical to a
// single node over the concatenated database (docs/CLUSTER.md).
//
// Examples:
//   bbsrouter --shards 127.0.0.1:7071,127.0.0.1:7072 --port 7070
//   bbsrouter --shard-map cluster.shards --port 0
//
// SIGTERM / SIGINT drain gracefully: stop accepting, finish in-flight
// requests, write the service report (--report-out), exit 0.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>

#include "cluster/router.h"
#include "cluster/shard_map.h"
#include "obs/json.h"
#include "service/server.h"
#include "tool_flags.h"

using namespace bbsmine;

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true, std::memory_order_release); }

[[noreturn]] void Die(const Status& status) {
  std::cerr << "bbsrouter: " << status.ToString() << "\n";
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  std::string shards_flag;
  std::string map_flag;
  service::SocketServerOptions server_options;
  server_options.port = 7070;
  cluster::RouterOptions options;
  options.retry.retries = 3;
  bool no_prune = false;
  bool require_all = false;
  std::string report_out;
  uint64_t stats_window_s = 10;

  FlagSet flags("bbsrouter",
                "front N bbsmined shards (docs/CLUSTER.md); give exactly "
                "one of --shards or --shard-map");
  flags.String("shards", &shards_flag,
               "H:P[/replica H:P],... in transaction-range order");
  flags.String("shard-map", &map_flag, "file of H:P[/H:P] lines ('#' notes)");
  AddHostPortFlags(&flags, &server_options.host, &server_options.port);
  flags.Unsigned("fanout-deadline-ms", &options.fanout_deadline_ms,
                 "per-leg downstream budget, ms");
  AddRetryFlags(&flags, &options.retry);
  flags.Bool("no-prune", &no_prune, "fan out everywhere (same answers)");
  flags.Unsigned("branching", &options.branching, "Bloofi tree fan-in");
  flags.Bool("require-all", &require_all,
             "answer Unavailable, not degraded, when a shard is down");
  AddMinsupFlag(&flags, &options.default_min_support);
  flags.Unsigned("mine-top", &options.mine_top, "default MINE result cap");
  flags.Unsigned("mine-round1-top", &options.mine_round1_top,
                 "round-1 top; must exceed any shard's frequent-set size");
  flags.Unsigned("mine-snapshot-retries", &options.mine_snapshot_retries,
                 "extra MINE passes when INSERTs land between rounds");
  flags.Unsigned("connect-retries", &options.connect_retries,
                 "startup handshake attempts per shard");
  flags.Unsigned("connect-backoff-ms", &options.connect_backoff_ms,
                 "handshake retry spacing, ms");
  flags.Unsigned("probe-interval-ms", &options.probe_interval_ms,
                 "down-shard re-probe cadence, ms (0 disables)");
  flags.Unsigned("probe-timeout-ms", &options.probe_timeout_ms,
                 "per-probe SHARDINFO budget, ms");
  flags.Unsigned("failover-probe-failures", &options.failover_probe_failures,
                 "silent probes of a primary before its replica is promoted");
  flags.String("report-out", &report_out, "service report path, at exit");
  AddStatsWindowFlag(&flags, &stats_window_s);
  flags.ParseOrExit(argc, argv, 1);
  options.prune = !no_prune;
  options.allow_degraded = !require_all;
  options.stats_windows.interval_us = stats_window_s * 1'000'000;

  if (shards_flag.empty() == map_flag.empty()) {
    flags.UsageError("exactly one of --shards or --shard-map is required");
  }
  cluster::ShardMap map;
  if (!shards_flag.empty()) {
    auto parsed = cluster::ParseShardSpec(shards_flag);
    if (!parsed.ok()) {
      flags.UsageError("--shards: " + parsed.status().message());
    }
    map = std::move(*parsed);
  } else {
    auto loaded = cluster::LoadShardMapFile(map_flag);
    if (!loaded.ok()) Die(loaded.status());
    map = std::move(*loaded);
  }

  const size_t num_shards = map.size();
  cluster::RouterService router(std::move(map), options);
  if (Status initialized = router.Init(); !initialized.ok()) Die(initialized);

  service::SocketServer server(&router, server_options);
  if (Status started = server.Start(); !started.ok()) Die(started);

  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);

  // The cluster smoke script parses this line to learn the ephemeral port.
  std::printf(
      "bbsrouter listening on %s:%u (%zu shards, %llu up, %llu "
      "transactions)\n",
      server_options.host.c_str(), server.port(), num_shards,
      static_cast<unsigned long long>(router.shards_up()),
      static_cast<unsigned long long>(router.TotalTransactions()));
  std::fflush(stdout);

  while (!g_stop.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::printf("bbsrouter draining...\n");
  std::fflush(stdout);
  server.Stop();
  router.Drain();
  if (!report_out.empty()) {
    obs::JsonValue report = router.BuildStatsReport();
    if (Status written = obs::WriteJsonFile(report, report_out);
        !written.ok()) {
      std::cerr << "bbsrouter: cannot write report: " << written.ToString()
                << "\n";
      return 1;
    }
    std::printf("bbsrouter wrote service report to %s\n",
                report_out.c_str());
  }
  std::printf("bbsrouter exited cleanly (%llu/%zu shards up, %llu "
              "transactions)\n",
              static_cast<unsigned long long>(router.shards_up()), num_shards,
              static_cast<unsigned long long>(router.TotalTransactions()));
  return 0;
}
