// bbsmined — the BBS query daemon.
//
// Serves COUNT / MINE / INSERT / STATS / PING over length-prefixed JSON
// frames (docs/SERVICE.md is the protocol spec). Counting queries run
// against lock-free snapshots of a segmented index (snapshot-isolated from
// inserts), are batched by the scheduler, and are answered bit-identically
// to a direct SegmentedBbs::CountItemSet over the same prefix — which is
// what the CI smoke test checks against the `bbsmine count` oracle.
//
// Examples:
//   bbsmined --index data.seg --db data.db --port 7071
//   bbsmined --bits 1600 --hashes 4 --segment-capacity 4096 --port 0
//
// SIGTERM / SIGINT drain gracefully: stop accepting, finish in-flight
// requests, write the service report (--report-out), exit 0.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <sys/stat.h>
#include <thread>

#include "core/bbs_index.h"
#include "core/segmented_bbs.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "service/durability.h"
#include "service/replication.h"
#include "service/server.h"
#include "storage/transaction_db.h"
#include "tool_flags.h"
#include "util/fault_injector.h"
#include "util/socket.h"

using namespace bbsmine;

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true, std::memory_order_release); }

// Crash-hook plumbing: the fault-injection crash path (_Exit(137) at an
// armed boundary) dumps the flight recorder first, so post-mortem
// artifacts exist for exactly the runs that die mid-write. Plain stdio on
// purpose — the injected-fault file_io layer is what just "failed".
service::FlightRecorder* g_crash_recorder = nullptr;
service::BbsService* g_crash_service = nullptr;
std::string g_crash_flight_path;

void CrashDumpHook() {
  if (g_crash_recorder == nullptr || g_crash_flight_path.empty()) return;
  uint64_t now_rel_us =
      g_crash_service != nullptr ? g_crash_service->NowRelMicros() : 0;
  std::string text =
      g_crash_recorder->DumpJsonForCrash(now_rel_us).Serialize();
  if (std::FILE* out = std::fopen(g_crash_flight_path.c_str(), "wb")) {
    std::fwrite(text.data(), 1, text.size(), out);
    std::fclose(out);
  }
}

[[noreturn]] void Die(const Status& status) {
  std::cerr << "bbsmined: " << status.ToString() << "\n";
  std::exit(1);
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

/// The persisted fencing term (DIR/term), or 1 when the file is absent or
/// unreadable (a fresh node starts at term 1).
uint64_t LoadTermFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return 1;
  unsigned long long term = 1;
  if (std::fscanf(f, "%llu", &term) != 1 || term == 0) term = 1;
  std::fclose(f);
  return term;
}

}  // namespace

int main(int argc, char** argv) {
  std::string index_arg;
  std::string db_arg;
  BbsConfig config;
  uint64_t segment_capacity = 4096;
  std::string backend_name = "resident";
  std::string durable_dir;
  service::DurabilityOptions durable_options;
  std::string fsync_spec = "always";
  std::string follow_arg;
  service::SocketServerOptions server_options;
  server_options.port = 7071;
  service::ServiceOptions options;
  options.slow_query_us = 10'000;
  std::string report_out;
  std::string trace_out;
  uint64_t trace_sample = 0;
  std::string slow_log_path;
  uint64_t flight_size = 64;
  std::string flight_out;
  uint64_t stats_window_s = 10;

  FlagSet flags("bbsmined", "the BBS query daemon (docs/SERVICE.md)");
  flags.String("index", &index_arg,
               "SegmentedBbs prefix or monolithic .bbs file to serve");
  flags.String("db", &db_arg, "transaction database; enables MINE");
  flags.Unsigned("bits", &config.num_bits, "m of an empty index (no --index)");
  flags.Unsigned("hashes", &config.num_hashes, "k of an empty index");
  flags.Unsigned("segment-capacity", &segment_capacity,
                 "transactions per segment", 1);
  AddIndexBackendFlag(&flags, &backend_name);
  flags.Unsigned("compact-cold-epochs", &options.compaction.cold_epochs,
                 "fold segments cold for N epochs (counts become bounds)");
  flags.Unsigned("compact-fold-bits", &options.compaction.fold_bits,
                 "fold width for cold segments (set with the above)");
  AddHostPortFlags(&flags, &server_options.host, &server_options.port);
  flags.Unsigned("threads", &options.scheduler.num_threads,
                 "per-batch worker threads (0 = all cores)");
  flags.Unsigned("max-pending", &options.scheduler.max_pending,
                 "admission-queue bound");
  flags.Unsigned("max-batch", &options.scheduler.max_batch,
                 "requests fused per batch");
  AddMinsupFlag(&flags, &options.default_min_support);
  flags.String("report-out", &report_out, "service report path, at exit");
  flags.String("trace-out", &trace_out, "Chrome trace path, at exit");
  flags.Unsigned("trace-sample", &trace_sample,
                 "trace 1-in-N requests (1 when --trace-out is set)");
  flags.String("slow-log", &slow_log_path, "JSON-lines slow-query log");
  flags.Unsigned("slow-query-us", &options.slow_query_us,
                 "slow-query threshold, us (0 logs every request)");
  flags.Unsigned("flight-recorder-size", &flight_size,
                 "per-connection flight-ring events (0 disables DUMP)");
  flags.String("flight-out", &flight_out,
               "flight-recorder dump path, at exit and on injected crash");
  AddStatsWindowFlag(&flags, &stats_window_s);
  flags.String("durable-dir", &durable_dir,
               "WAL + checkpoints here; state is recovered at startup");
  flags.String("fsync", &fsync_spec, "WAL fsync: always | none | every=N");
  flags.Unsigned("checkpoint-every", &durable_options.checkpoint_every,
                 "auto-checkpoint every N inserts (0 = manual only)");
  flags.String("follow", &follow_arg,
               "HOST:PORT of the primary to tail as a warm replica");
  flags.Bool("repl-ack", &options.repl_ack,
             "semi-sync: ack an INSERT once the follower has it");
  flags.Unsigned("repl-ack-timeout-ms", &options.repl_ack_timeout_ms,
                 "semi-sync wait before answering replicated=false");
  flags.ParseOrExit(argc, argv, 1);
  if (!flags.WasSet("trace-sample") && !trace_out.empty()) trace_sample = 1;
  // Replication needs the durable directory: the stream's positions are
  // WAL positions.
  if ((!follow_arg.empty() || options.repl_ack) && durable_dir.empty()) {
    flags.UsageError("--follow and --repl-ack require --durable-dir");
  }
  service::ReplicationFollowerOptions follow_options;
  if (!follow_arg.empty()) {
    Result<Endpoint> primary = ParseEndpoint(follow_arg);
    if (!primary.ok()) {
      flags.UsageError("--follow: " + primary.status().message());
    }
    follow_options.host = primary->host;
    follow_options.port = primary->port;
  }
  const IndexBackend backend = *ParseIndexBackend(backend_name);

  // Assemble the snapshot manager from the requested source.
  std::optional<service::SnapshotManager> index;
  std::optional<TransactionDatabase> db;
  std::unique_ptr<service::DurabilityManager> durability;

  if (backend == IndexBackend::kMmap && index_arg.empty()) {
    // An empty index has no file to map; the flag would silently serve a
    // heap-backed index while STATS claims mmap.
    flags.UsageError("--index-backend=mmap requires --index");
  }

  if (!durable_dir.empty()) {
    if (backend == IndexBackend::kMmap) {
      // Checkpoints rewrite the segment files the mappings would be backed
      // by, so durable mode pins the resident backend.
      flags.UsageError(
          "--index-backend=mmap is incompatible with --durable-dir "
          "(checkpoints rewrite the mapped files); use the resident backend");
    }
    // Durable mode: the durable directory is the source of truth; --index
    // and --db only seed the very first start (before any checkpoint/WAL
    // exists there).
    std::optional<SegmentedBbs> bootstrap;
    if (!index_arg.empty()) {
      if (!FileExists(index_arg + ".manifest")) {
        flags.UsageError(
            "with --durable-dir, --index must be a SegmentedBbs prefix "
            "(monolithic .bbs files are not supported)");
      }
      auto segmented = SegmentedBbs::Load(index_arg);
      if (!segmented.ok()) Die(segmented.status());
      bootstrap.emplace(std::move(*segmented));
    } else {
      auto empty = SegmentedBbs::Create(config, segment_capacity);
      if (!empty.ok()) Die(empty.status());
      bootstrap.emplace(std::move(*empty));
    }
    if (!db_arg.empty()) {
      if (FileExists(db_arg)) {
        auto loaded = TransactionDatabase::Load(db_arg);
        if (!loaded.ok()) Die(loaded.status());
        db.emplace(std::move(*loaded));
      } else {
        // The durable directory owns the database from here on; an absent
        // seed file just means "enable MINE, start empty".
        db.emplace();
      }
    }

    durable_options.dir = durable_dir;
    if (Status parsed =
            service::ParseFsyncSpec(fsync_spec, &durable_options.wal);
        !parsed.ok()) {
      flags.UsageError("--fsync: " + parsed.message());
    }
    auto opened = service::DurabilityManager::Open(
        durable_options, std::move(*bootstrap), db ? &*db : nullptr);
    if (!opened.ok()) Die(opened.status());
    durability = std::move(*opened);

    const auto& recovery = durability->recovery();
    std::printf(
        "bbsmined recovery: checkpoint=%s epoch=%llu base=%llu "
        "wal_records=%llu replayed_txns=%llu torn_tail_bytes=%llu "
        "(%.3f s)\n",
        recovery.checkpoint_loaded ? "loaded" : "none",
        static_cast<unsigned long long>(recovery.checkpoint_epoch),
        static_cast<unsigned long long>(recovery.checkpoint_transactions),
        static_cast<unsigned long long>(recovery.wal_records_scanned),
        static_cast<unsigned long long>(recovery.recovered_records),
        static_cast<unsigned long long>(recovery.torn_tail_bytes),
        recovery.recovery_seconds);

    SegmentedBbs recovered = durability->TakeRecoveredIndex();
    auto manager = service::SnapshotManager::FromIndex(recovered);
    if (!manager.ok()) Die(manager.status());
    index.emplace(std::move(*manager));
  } else if (!index_arg.empty()) {
    if (FileExists(index_arg + ".manifest")) {
      auto segmented = SegmentedBbs::Load(index_arg, nullptr, backend);
      if (!segmented.ok()) Die(segmented.status());
      auto manager = service::SnapshotManager::FromIndex(*segmented);
      if (!manager.ok()) Die(manager.status());
      index.emplace(std::move(*manager));
    } else {
      auto monolithic = backend == IndexBackend::kMmap
                            ? BbsIndex::OpenMmap(index_arg)
                            : BbsIndex::Load(index_arg);
      if (!monolithic.ok()) Die(monolithic.status());
      auto manager =
          service::SnapshotManager::FromIndex(*monolithic, segment_capacity);
      if (!manager.ok()) Die(manager.status());
      index.emplace(std::move(*manager));
    }
  } else {
    auto manager = service::SnapshotManager::Create(config, segment_capacity);
    if (!manager.ok()) Die(manager.status());
    index.emplace(std::move(*manager));
  }

  if (durable_dir.empty()) {
    if (!db_arg.empty()) {
      auto loaded = TransactionDatabase::Load(db_arg);
      if (!loaded.ok()) Die(loaded.status());
      db.emplace(std::move(*loaded));
      if (db->size() != index->num_transactions()) {
        std::cerr << "bbsmined: index/database mismatch: "
                  << index->num_transactions() << " vs " << db->size()
                  << " transactions\n";
        return 1;
      }
    }
  }

  // Observability plane: tracer, slow-query log, flight recorder, window
  // shape. All off (or passive) unless their flags are given.
  std::unique_ptr<obs::Tracer> tracer;
  if (!trace_out.empty() && trace_sample > 0) {
    tracer = std::make_unique<obs::Tracer>(obs::kTraceService);
  }
  std::unique_ptr<service::SlowQueryLog> slow_log;
  if (!slow_log_path.empty()) {
    auto opened = service::SlowQueryLog::Open(slow_log_path);
    if (!opened.ok()) Die(opened.status());
    slow_log = std::move(*opened);
  }
  std::unique_ptr<service::FlightRecorder> flight_recorder;
  if (flight_size > 0) {
    flight_recorder = std::make_unique<service::FlightRecorder>(flight_size);
  }

  // Replication wiring (docs/CLUSTER.md): a durable daemon is a primary
  // (serves WALSTREAM); --follow makes it a warm follower instead.
  std::unique_ptr<service::ReplicationSource> replication;
  std::unique_ptr<service::ReplicationFollower> follower;
  service::BbsService* follower_target = nullptr;  // set once built
  if (durability != nullptr) {
    service::ReplicationSourceOptions source_options;
    replication = std::make_unique<service::ReplicationSource>(
        durability.get(),
        [&index] {
          return static_cast<uint64_t>(index->num_transactions());
        },
        source_options);
  }
  if (!follow_arg.empty()) {
    follower = std::make_unique<service::ReplicationFollower>(
        follow_options,
        [&index] {
          return static_cast<uint64_t>(index->num_transactions());
        },
        [&follower_target](
            const std::vector<std::vector<Itemset>>& batches) {
          return follower_target->ApplyReplicated(batches);
        });
  }

  options.durability = durability.get();
  options.index_backend = backend;
  options.tracer = tracer.get();
  options.trace_sample = trace_sample;
  options.slow_log = slow_log.get();
  options.flight_recorder = flight_recorder.get();
  options.stats_windows.interval_us = stats_window_s * 1'000'000;
  if ((flags.WasSet("compact-cold-epochs") ||
       flags.WasSet("compact-fold-bits")) &&
      !options.compaction.enabled()) {
    flags.UsageError(
        "--compact-cold-epochs and --compact-fold-bits must be set together "
        "(both positive)");
  }
  options.replication = replication.get();
  options.follower = follower.get();
  if (!durable_dir.empty()) {
    options.term_file = durable_dir + "/term";
    options.term = LoadTermFile(options.term_file);
  }
  options.role = follower != nullptr ? service::ServiceRole::kFollower
                 : durability != nullptr ? service::ServiceRole::kPrimary
                                         : service::ServiceRole::kStandalone;
  options.on_promote = [&follower] {
    if (follower != nullptr) follower->Stop();
  };
  service::BbsService bbs_service(&*index, db ? &*db : nullptr, options);
  follower_target = &bbs_service;
  if (follower != nullptr) follower->Start();

  if (flight_recorder != nullptr && !flight_out.empty()) {
    g_crash_recorder = flight_recorder.get();
    g_crash_service = &bbs_service;
    g_crash_flight_path = flight_out;
    FaultInjector::SetCrashHook(CrashDumpHook);
  }

  service::SocketServer server(&bbs_service, server_options);
  if (Status started = server.Start(); !started.ok()) Die(started);

  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);

  // The smoke script parses this line to learn the ephemeral port.
  std::printf("bbsmined listening on %s:%u (%zu transactions, epoch %llu)\n",
              server_options.host.c_str(), server.port(),
              index->num_transactions(),
              static_cast<unsigned long long>(index->epoch()));
  if (options.role != service::ServiceRole::kStandalone) {
    std::printf("bbsmined role %s term %llu%s%s\n",
                service::ServiceRoleName(options.role),
                static_cast<unsigned long long>(options.term),
                follower != nullptr ? " following " : "",
                follower != nullptr ? follow_arg.c_str() : "");
  }
  std::fflush(stdout);

  while (!g_stop.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::printf("bbsmined draining...\n");
  std::fflush(stdout);
  // Stop the replication tail before the final checkpoint so no stream
  // apply races it.
  if (follower != nullptr) follower->Stop();
  server.Stop();
  bbs_service.Drain();
  if (durability != nullptr) {
    // A final checkpoint makes the next startup instant (empty WAL). Its
    // failure costs nothing but recovery time — the WAL still covers
    // everything — so sync it and carry on.
    Status final_checkpoint =
        durability->Checkpoint(index->Acquire(), db ? &*db : nullptr);
    if (!final_checkpoint.ok()) {
      std::cerr << "bbsmined: final checkpoint failed: "
                << final_checkpoint.ToString() << "\n";
      if (Status synced = durability->SyncWal(); !synced.ok()) {
        std::cerr << "bbsmined: final WAL sync failed: " << synced.ToString()
                  << "\n";
      }
    } else {
      std::printf("bbsmined checkpointed %zu transactions\n",
                  index->num_transactions());
    }
  }
  if (!report_out.empty()) {
    obs::JsonValue report = bbs_service.BuildStatsReport();
    if (Status written = obs::WriteJsonFile(report, report_out);
        !written.ok()) {
      std::cerr << "bbsmined: cannot write report: " << written.ToString()
                << "\n";
      return 1;
    }
    std::printf("bbsmined wrote service report to %s\n", report_out.c_str());
  }
  if (flight_recorder != nullptr && !flight_out.empty()) {
    obs::JsonValue dump =
        flight_recorder->DumpJson(bbs_service.NowRelMicros());
    if (Status written = obs::WriteJsonFile(dump, flight_out);
        !written.ok()) {
      std::cerr << "bbsmined: cannot write flight dump: "
                << written.ToString() << "\n";
      return 1;
    }
    std::printf("bbsmined wrote flight-recorder dump to %s\n",
                flight_out.c_str());
  }
  if (tracer != nullptr && !trace_out.empty()) {
    if (Status written = tracer->WriteJson(trace_out); !written.ok()) {
      std::cerr << "bbsmined: cannot write trace: " << written.ToString()
                << "\n";
      return 1;
    }
    std::printf("bbsmined wrote trace (%zu events) to %s\n",
                tracer->event_count(), trace_out.c_str());
  }
  std::printf("bbsmined exited cleanly (epoch %llu, %zu transactions)\n",
              static_cast<unsigned long long>(index->epoch()),
              index->num_transactions());
  return 0;
}
