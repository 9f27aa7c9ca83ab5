// WAL shipping between a primary bbsmined and a warm follower.
//
// The design reuses every durability invariant the single-node daemon
// already proves instead of inventing a parallel replication format:
//
//  * The unit of shipping is the WAL record — the exact `[len|crc|payload]`
//    bytes the primary fsynced (service/wal.h). The follower re-verifies
//    the CRC, appends the batch to its *own* WAL via the normal
//    DurabilityManager path, and applies it to its in-memory index. A
//    follower is therefore just a daemon whose INSERTs arrive over the
//    stream instead of the INSERT verb, and promotion is literally PR 5
//    recovery: everything acked to the primary's WAL that was shipped is
//    replayable on the follower.
//
//  * Positions are absolute transaction numbers (the WAL's base + offsets),
//    so the follower's resume watermark is simply its applied transaction
//    count — no separate replication log or offset file.
//
// Wire protocol (rides the length-prefixed JSON frames of service/wire.h;
// docs/SERVICE.md documents it under WALSTREAM):
//
//   follower -> primary   {"verb": "WALSTREAM", "watermark": W}
//   primary  -> follower  {"ok": true, "verb": "WALSTREAM",
//                          "watermark": W, "end_txn": E}      (handshake ok)
//   primary  -> follower  {"ok": true, "verb": "WALSTREAM",
//                          "kind": "records", "start_txn": S,
//                          "transactions": T, "records": R,
//                          "data": "<hex of raw WAL record bytes>"}
//   primary  -> follower  {"ok": true, "verb": "WALSTREAM",
//                          "kind": "heartbeat", "end_txn": E}
//   follower -> primary   {"ack": N}      (after N txns are durably applied)
//
// Loss modes: in async mode an acked INSERT the primary had not yet
// shipped dies with the primary; the report's lag_records bounds that
// tail. With --repl-ack (semi-sync) the INSERT response is withheld until
// the follower acks the record, so acked writes survive primary loss; an
// ack timeout degrades that one response ("replicated": false) rather
// than failing the write — the MySQL semi-sync compromise.
//
// Thread model: ReplicationSource::Serve runs on the server's connection
// thread (the WALSTREAM connection is consumed by the stream until either
// side closes). ReplicationFollower owns one background thread that
// connects, tails, applies, and reconnects until Stop(), or until the
// primary refuses its watermark (before the WAL base, or ahead of the
// primary): no reconnect can fix that, so it halts and STATS says why.

#ifndef BBSMINE_SERVICE_REPLICATION_H_
#define BBSMINE_SERVICE_REPLICATION_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "service/durability.h"
#include "storage/transaction.h"
#include "util/status.h"

namespace bbsmine::service {

/// Lowercase hex of raw bytes (the records-frame "data" member).
std::string HexEncode(std::string_view bytes);

/// Inverse of HexEncode; InvalidArgument on odd length or non-hex digits.
Result<std::string> HexDecode(const std::string& hex);

struct ReplicationSourceOptions {
  /// Raw record bytes per records frame. Hex encoding doubles this on the
  /// wire, so it must stay under half the frame cap (wire.h).
  uint64_t chunk_bytes = 4u << 20;
  /// Idle poll: how often the source re-scans the WAL for new records and
  /// emits a heartbeat when there are none.
  int poll_interval_ms = 20;
};

/// Primary side: serves WALSTREAM connections and tracks the follower's
/// durable watermark (which also feeds the checkpoint-truncate replication
/// floor, durability.h).
class ReplicationSource {
 public:
  /// `durability` must outlive the source. `applied_txns` reports the
  /// primary's applied transaction count (for lag accounting).
  ReplicationSource(DurabilityManager* durability,
                    std::function<uint64_t()> applied_txns,
                    const ReplicationSourceOptions& options);

  /// Serves one follower connection until `stop`, disconnect, or error.
  /// `handshake` is the already-read WALSTREAM request. Runs on the
  /// caller's (connection) thread.
  void Serve(const obs::JsonValue& handshake, int fd,
             const std::atomic<bool>& stop);

  /// Semi-sync: blocks until the follower has acked through `txn` or
  /// `timeout_ms` elapses. Returns whether the ack arrived.
  bool WaitForAck(uint64_t txn, int timeout_ms);

  /// Bumped by the semi-sync insert path when WaitForAck times out.
  void NoteAckTimeout() {
    ack_timeouts_.fetch_add(1, std::memory_order_relaxed);
  }

  struct Stats {
    uint64_t followers = 0;  ///< currently-attached stream connections
    uint64_t last_streamed_txn = 0;
    uint64_t last_acked_txn = 0;
    uint64_t records_shipped = 0;
    uint64_t bytes_shipped = 0;
    uint64_t lag_bytes = 0;  ///< WAL record bytes not yet streamed
    uint64_t ack_timeouts = 0;
  };
  Stats stats() const;

  uint64_t applied_txns() const { return applied_txns_(); }

 private:
  void NoteAck(uint64_t txn);
  /// Drains any {"ack": N} frames waiting on the connection, blocking at
  /// most `timeout_ms` for the first. False when the peer is gone.
  bool DrainAcks(int fd, int timeout_ms);

  DurabilityManager* durability_;
  std::function<uint64_t()> applied_txns_;
  ReplicationSourceOptions options_;

  std::mutex ack_mu_;
  std::condition_variable ack_cv_;
  std::atomic<uint64_t> followers_{0};
  std::atomic<uint64_t> last_streamed_txn_{0};
  std::atomic<uint64_t> last_acked_txn_{0};
  std::atomic<uint64_t> records_shipped_{0};
  std::atomic<uint64_t> bytes_shipped_{0};
  std::atomic<uint64_t> lag_bytes_{0};
  std::atomic<uint64_t> ack_timeouts_{0};
};

struct ReplicationFollowerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  int connect_timeout_ms = 2'000;
  /// Read timeout per frame poll; also bounds Stop() latency.
  int io_timeout_ms = 250;
  int reconnect_backoff_ms = 500;
};

/// Follower side: a background thread that tails the primary's WAL stream
/// and applies each record through the caller's apply hook.
class ReplicationFollower {
 public:
  /// The follower's durable applied transaction count: the resume
  /// watermark sent at each (re)connect. Must reflect only fully-applied
  /// records — it is read between applies on the follower thread.
  using WatermarkFn = std::function<uint64_t()>;
  /// Applies decoded record batches in order, durably (WAL + index + db
  /// under the service write mutex). A failure drops the connection; the
  /// records are re-fetched from the watermark on reconnect.
  using ApplyFn = std::function<Status(
      const std::vector<std::vector<Itemset>>&)>;

  ReplicationFollower(const ReplicationFollowerOptions& options,
                      WatermarkFn watermark, ApplyFn apply);
  ~ReplicationFollower();

  ReplicationFollower(const ReplicationFollower&) = delete;
  ReplicationFollower& operator=(const ReplicationFollower&) = delete;

  void Start();
  /// Stops the tail loop and joins the thread. Idempotent; called on
  /// shutdown and on promotion (a primary must not keep tailing anyone).
  void Stop();

  struct Stats {
    bool running = false;
    bool connected = false;
    uint64_t primary_end_txn = 0;  ///< from the last heartbeat/handshake
    uint64_t records_applied = 0;
    uint64_t crc_rejects = 0;
    uint64_t reconnects = 0;
    /// The primary rejected this follower's position; the tail stopped.
    bool halted = false;
    std::string error;  ///< why it halted (empty unless halted)
  };
  Stats stats() const;

  std::string primary_endpoint() const {
    return options_.host + ":" + std::to_string(options_.port);
  }

 private:
  void Run();
  /// One connection lifetime: connect, handshake, tail. The status says
  /// why it ended (NotFound = peer closed; anything else is logged).
  /// Sets *rejected when the primary refused this follower's position.
  Status RunOnce(bool* rejected);

  ReplicationFollowerOptions options_;
  WatermarkFn watermark_;
  ApplyFn apply_;

  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  std::atomic<bool> connected_{false};
  std::atomic<uint64_t> primary_end_txn_{0};
  std::atomic<uint64_t> records_applied_{0};
  std::atomic<uint64_t> crc_rejects_{0};
  std::atomic<uint64_t> reconnects_{0};
  std::atomic<bool> halted_{false};
  std::string halt_error_;  // written once, before halted_ is set
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
};

}  // namespace bbsmine::service

#endif  // BBSMINE_SERVICE_REPLICATION_H_
