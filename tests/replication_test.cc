// Tests for per-shard WAL replication: the WALSTREAM read path over the
// log, the checkpoint-truncate replication floor, a live primary→follower
// tail over real sockets, semi-sync acknowledgement, watermark resume
// after a follower restart, and fenced promotion.
//
// The load-bearing property is the acked-prefix contract: every
// transaction a primary acknowledged is bit-identically countable on the
// follower once the stream catches up, and nothing the follower applies
// can diverge from the primary's WAL order.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/segmented_bbs.h"
#include "obs/json.h"
#include "service/durability.h"
#include "service/replication.h"
#include "service/server.h"
#include "service/snapshot.h"
#include "service/wal.h"
#include "service/wire.h"
#include "storage/transaction_db.h"
#include "util/socket.h"
#include "util/status.h"

namespace bbsmine::service {
namespace {

BbsConfig SmallConfig() {
  BbsConfig config;
  config.num_bits = 256;
  config.num_hashes = 3;
  return config;
}

constexpr uint64_t kCapacity = 4;

/// A fresh empty directory under the system temp dir.
std::string TempDir(const std::string& name) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     (std::to_string(::getpid()) + "_" + name))
                        .string();
  std::filesystem::remove_all(dir);
  return dir;
}

SegmentedBbs EmptyIndex() {
  return SegmentedBbs::Create(SmallConfig(), kCapacity).value();
}

std::vector<std::vector<Itemset>> SampleBatches() {
  return {
      {{1, 2, 3}},
      {{2, 3}, {4, 5}},
      {{1}, {2}, {3, 4, 5, 6}},
      {{7, 8}},
  };
}

uint64_t TotalTxns(const std::vector<std::vector<Itemset>>& batches) {
  uint64_t total = 0;
  for (const auto& batch : batches) total += batch.size();
  return total;
}

obs::JsonValue InsertRequest(const std::vector<Itemset>& batch) {
  obs::JsonValue request = obs::JsonValue::Object();
  request.Set("verb", obs::JsonValue::String("INSERT"));
  obs::JsonValue txns = obs::JsonValue::Array();
  for (const Itemset& items : batch) txns.Append(ItemsToJson(items));
  request.Set("transactions", std::move(txns));
  return request;
}

obs::JsonValue CountRequest(const Itemset& items) {
  obs::JsonValue request = obs::JsonValue::Object();
  request.Set("verb", obs::JsonValue::String("COUNT"));
  request.Set("items", ItemsToJson(items));
  return request;
}

obs::JsonValue PromoteRequest(uint64_t term) {
  obs::JsonValue request = obs::JsonValue::Object();
  request.Set("verb", obs::JsonValue::String("PROMOTE"));
  request.Set("term", obs::JsonValue::Uint(term));
  return request;
}

/// Polls `pred` until it holds or `timeout_ms` elapses.
bool WaitUntil(const std::function<bool()>& pred, int timeout_ms = 15'000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

/// One in-process bbsmined node wired exactly as tools/bbsmined_main.cpp
/// wires it: durable directory, snapshot manager, replication source
/// (always — a primary streams whenever a follower asks), optional
/// follower tailing another node, service, and a real TCP server.
struct Node {
  std::string dir;
  TransactionDatabase db;
  std::unique_ptr<DurabilityManager> durability;
  std::optional<SnapshotManager> manager;
  std::unique_ptr<ReplicationSource> source;
  std::unique_ptr<ReplicationFollower> follower;
  std::unique_ptr<BbsService> service;
  std::unique_ptr<SocketServer> server;
  /// The follower's apply target; set once `service` exists (the follower
  /// object is built first because ServiceOptions carries its pointer).
  BbsService* apply_target = nullptr;

  ~Node() {
    // The follower thread applies into `service`; stop it before any of
    // that machinery is torn down.
    if (follower != nullptr) follower->Stop();
    if (server != nullptr) server->Stop();
  }

  uint16_t port() const { return server->port(); }
  uint64_t applied() const { return manager->num_transactions(); }
  obs::JsonValue Call(const obs::JsonValue& request) {
    return service->Handle(request);
  }
  uint64_t Count(const Itemset& items) {
    obs::JsonValue response = Call(CountRequest(items));
    EXPECT_TRUE(response.at("ok").AsBool()) << response.Serialize(0);
    return response.at("count").AsUint();
  }
  obs::JsonValue ReplicationStats() {
    obs::JsonValue stats = obs::JsonValue::Object();
    stats.Set("verb", obs::JsonValue::String("STATS"));
    obs::JsonValue response = Call(stats);
    EXPECT_TRUE(response.at("ok").AsBool()) << response.Serialize(0);
    return response.at("report").at("replication");
  }
};

struct NodeOptions {
  uint16_t follow_port = 0;  ///< 0 = primary; else tail this endpoint
  bool repl_ack = false;
  int repl_ack_timeout_ms = 5'000;
};

std::unique_ptr<Node> MakeNode(const std::string& name,
                               const NodeOptions& node_options) {
  auto node = std::make_unique<Node>();
  node->dir = TempDir(name);
  auto opened = DurabilityManager::Open(
      DurabilityOptions{node->dir, WalOptions(), 0}, EmptyIndex(), &node->db);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  if (!opened.ok()) return nullptr;
  node->durability = std::move(*opened);
  auto manager = SnapshotManager::FromIndex(node->durability->TakeRecoveredIndex());
  EXPECT_TRUE(manager.ok());
  if (!manager.ok()) return nullptr;
  node->manager.emplace(std::move(*manager));

  SnapshotManager* index = &*node->manager;
  node->source = std::make_unique<ReplicationSource>(
      node->durability.get(),
      [index] { return static_cast<uint64_t>(index->num_transactions()); },
      ReplicationSourceOptions{});

  if (node_options.follow_port != 0) {
    ReplicationFollowerOptions follow;
    follow.host = "127.0.0.1";
    follow.port = node_options.follow_port;
    follow.reconnect_backoff_ms = 50;
    Node* raw = node.get();
    node->follower = std::make_unique<ReplicationFollower>(
        follow,
        [index] { return static_cast<uint64_t>(index->num_transactions()); },
        [raw](const std::vector<std::vector<Itemset>>& batches) {
          return raw->apply_target->ApplyReplicated(batches);
        });
  }

  ServiceOptions options;
  options.durability = node->durability.get();
  options.replication = node->source.get();
  options.follower = node->follower.get();
  options.repl_ack = node_options.repl_ack;
  options.repl_ack_timeout_ms = node_options.repl_ack_timeout_ms;
  options.term_file = node->dir + "/term";
  options.term = 1;
  options.role = node->follower != nullptr ? ServiceRole::kFollower
                                           : ServiceRole::kPrimary;
  ReplicationFollower* follower_raw = node->follower.get();
  options.on_promote = [follower_raw] {
    if (follower_raw != nullptr) follower_raw->Stop();
  };
  node->service =
      std::make_unique<BbsService>(&*node->manager, &node->db, options);
  node->apply_target = node->service.get();

  node->server = std::make_unique<SocketServer>(node->service.get(),
                                                SocketServerOptions{});
  Status started = node->server->Start();
  EXPECT_TRUE(started.ok()) << started.ToString();
  if (!started.ok()) return nullptr;
  if (node->follower != nullptr) node->follower->Start();
  return node;
}

// ---------------------------------------------------------------------------
// Hex codec.

TEST(ReplicationCodecTest, HexRoundTripAndRejects) {
  EXPECT_EQ(HexEncode(""), "");
  const std::string bytes = std::string("\x00\x7f\xff\x10", 4);
  const std::string hex = HexEncode(bytes);
  EXPECT_EQ(hex, "007fff10");
  auto decoded = HexDecode(hex);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, bytes);
  // Upper-case digits decode too (be liberal in what you accept).
  EXPECT_EQ(HexDecode("007FFF10").value(), bytes);
  EXPECT_EQ(HexDecode("abc").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(HexDecode("zz").status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// The WALSTREAM read path over the log file.

/// A WAL at `dir`/wal holding SampleBatches-shaped records.
std::string MakeWal(const std::string& name,
                    const std::vector<std::vector<Itemset>>& batches) {
  std::string dir = TempDir(name);
  std::filesystem::create_directories(dir);
  std::string path = dir + "/wal";
  auto wal = WriteAheadLog::Create(path, 0, WalOptions());
  EXPECT_TRUE(wal.ok());
  for (const auto& batch : batches) {
    EXPECT_TRUE(wal->Append(batch).ok());
  }
  return path;
}

TEST(WalStreamTest, ReadsWholeRecordsFromAnyAlignedWatermark) {
  // Batches of 1, 2, and 1 transactions: records start at txns 0, 1, 3.
  std::vector<std::vector<Itemset>> batches = {
      {{1, 2, 3}}, {{2, 3}, {4, 5}}, {{6}}};
  std::string path = MakeWal("repl_stream", batches);

  auto all = WriteAheadLog::ReadRecordsFrom(path, 0, 1 << 20);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->start_txn, 0u);
  EXPECT_EQ(all->records, 3u);
  EXPECT_EQ(all->transactions, 4u);
  EXPECT_EQ(all->log_end_txn, 4u);
  EXPECT_EQ(all->bytes_remaining, all->data.size());
  std::vector<std::vector<Itemset>> decoded;
  ASSERT_TRUE(WriteAheadLog::DecodeRecords(all->data, &decoded).ok());
  EXPECT_EQ(decoded, batches);

  // Resume mid-log at a record boundary: only the suffix ships.
  auto tail = WriteAheadLog::ReadRecordsFrom(path, 1, 1 << 20);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail->start_txn, 1u);
  EXPECT_EQ(tail->records, 2u);
  EXPECT_EQ(tail->transactions, 3u);
  decoded.clear();
  ASSERT_TRUE(WriteAheadLog::DecodeRecords(tail->data, &decoded).ok());
  EXPECT_EQ(decoded,
            std::vector<std::vector<Itemset>>({{{2, 3}, {4, 5}}, {{6}}}));

  // Caught up: an empty chunk that still reports where the log ends.
  auto end = WriteAheadLog::ReadRecordsFrom(path, 4, 1 << 20);
  ASSERT_TRUE(end.ok());
  EXPECT_EQ(end->records, 0u);
  EXPECT_EQ(end->log_end_txn, 4u);
  EXPECT_TRUE(end->data.empty());

  // A watermark past the log or inside a record is never valid: batches
  // are the atomic unit, so no correct follower can produce either.
  EXPECT_EQ(WriteAheadLog::ReadRecordsFrom(path, 5, 1 << 20).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(WriteAheadLog::ReadRecordsFrom(path, 2, 1 << 20).status().code(),
            StatusCode::kCorruption);
}

TEST(WalStreamTest, WatermarkBeforeLogBaseDemandsBootstrap) {
  std::string path = MakeWal("repl_base", {{{1, 2}}, {{3}}});
  auto wal = WriteAheadLog::OpenForAppend(path, WalOptions());
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal->Truncate(2).ok());  // checkpoint covered both records
  Status below = WriteAheadLog::ReadRecordsFrom(path, 1, 1 << 20).status();
  EXPECT_EQ(below.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(below.message().find("bootstrap"), std::string::npos);
}

TEST(WalStreamTest, MaxBytesCapsChunksWithoutLosingRecords) {
  std::vector<std::vector<Itemset>> batches = {
      {{1, 2, 3}}, {{2, 3}, {4, 5}}, {{1}, {2}}, {{7, 8}}};
  std::string path = MakeWal("repl_chunk", batches);

  // max_bytes=1 still ships one whole record (progress is guaranteed) and
  // reports the bytes it had to hold back as lag.
  auto first = WriteAheadLog::ReadRecordsFrom(path, 0, 1);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->records, 1u);
  EXPECT_GT(first->bytes_remaining, first->data.size());

  // Walking the log one starved chunk at a time reassembles every batch.
  std::vector<std::vector<Itemset>> streamed;
  uint64_t cursor = 0;
  while (true) {
    auto chunk = WriteAheadLog::ReadRecordsFrom(path, cursor, 1);
    ASSERT_TRUE(chunk.ok());
    if (chunk->records == 0) break;
    std::vector<std::vector<Itemset>> decoded;
    ASSERT_TRUE(WriteAheadLog::DecodeRecords(chunk->data, &decoded).ok());
    for (auto& batch : decoded) streamed.push_back(std::move(batch));
    cursor += chunk->transactions;
  }
  EXPECT_EQ(streamed, batches);
}

TEST(WalStreamTest, NeverShipsATornTail) {
  std::vector<std::vector<Itemset>> batches = {{{1, 2}}, {{3, 4}}};
  std::string path = MakeWal("repl_torn", batches);
  {
    // A kill -9 mid-append: a frame header promising 64 bytes, then EOF.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    const char torn[4] = {0x40, 0x00, 0x00, 0x00};
    out.write(torn, sizeof torn);
  }
  auto chunk = WriteAheadLog::ReadRecordsFrom(path, 0, 1 << 20);
  ASSERT_TRUE(chunk.ok());
  EXPECT_EQ(chunk->records, 2u);
  EXPECT_EQ(chunk->log_end_txn, 2u);
  // The torn bytes are neither shipped nor counted as lag.
  EXPECT_EQ(chunk->bytes_remaining, chunk->data.size());
  std::vector<std::vector<Itemset>> decoded;
  ASSERT_TRUE(WriteAheadLog::DecodeRecords(chunk->data, &decoded).ok());
  EXPECT_EQ(decoded, batches);
}

TEST(WalStreamTest, CursorResumesWithoutRescanningTheStreamedPrefix) {
  std::vector<std::vector<Itemset>> batches = {{{1, 2, 3}}, {{2, 3}, {4, 5}}};
  std::string path = MakeWal("repl_cursor", batches);

  WriteAheadLog::StreamCursor cursor;
  auto first = WriteAheadLog::ReadRecordsFrom(path, 0, 1 << 20, &cursor);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->records, 2u);
  EXPECT_EQ(cursor.txn, 3u);

  // More records land; a cursor'd poll ships exactly the new ones.
  auto wal = WriteAheadLog::OpenForAppend(path, WalOptions());
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal->Append({{7}}).ok());
  auto second = WriteAheadLog::ReadRecordsFrom(path, 3, 1 << 20, &cursor);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->records, 1u);
  std::vector<std::vector<Itemset>> decoded;
  ASSERT_TRUE(WriteAheadLog::DecodeRecords(second->data, &decoded).ok());
  const std::vector<std::vector<Itemset>> appended = {{{7}}};
  EXPECT_EQ(decoded, appended);
  EXPECT_EQ(cursor.txn, 4u);

  // Proof the streamed prefix is genuinely skipped, not just re-parsed:
  // flip a byte inside the FIRST record on disk. The cursor'd poll seeks
  // past it and succeeds; a cursor-less scan of the same watermark must
  // walk the file from its base and trips over the damage.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(24 + 8);  // header, then the first record's 8-byte frame
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    f.seekp(24 + 8);
    f.write(&byte, 1);
  }
  auto cached = WriteAheadLog::ReadRecordsFrom(path, 4, 1 << 20, &cursor);
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  EXPECT_EQ(cached->records, 0u);
  EXPECT_EQ(WriteAheadLog::ReadRecordsFrom(path, 4, 1 << 20).status().code(),
            StatusCode::kCorruption);

  // A checkpoint truncation atomically replaces the file with a new
  // base: the stale cursor must be detected and the scan fall back to a
  // fresh walk of the (now empty) log rather than trust a dead offset.
  ASSERT_TRUE(wal->Truncate(4).ok());
  auto after = WriteAheadLog::ReadRecordsFrom(path, 4, 1 << 20, &cursor);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->records, 0u);
  EXPECT_EQ(cursor.base_txn, 4u);
  EXPECT_EQ(cursor.txn, 4u);
  EXPECT_EQ(cursor.offset, 24u);  // right after the fresh header
}

TEST(WalStreamTest, DecodeRejectsCorruptOrTruncatedChunks) {
  std::string path = MakeWal("repl_decode", {{{1, 2, 3}}, {{4, 5}}});
  auto chunk = WriteAheadLog::ReadRecordsFrom(path, 0, 1 << 20);
  ASSERT_TRUE(chunk.ok());

  std::vector<std::vector<Itemset>> decoded;
  std::string flipped = chunk->data;
  flipped[flipped.size() / 2] ^= 0x01;
  EXPECT_EQ(WriteAheadLog::DecodeRecords(flipped, &decoded).code(),
            StatusCode::kCorruption);

  std::string truncated = chunk->data.substr(0, chunk->data.size() - 3);
  EXPECT_EQ(WriteAheadLog::DecodeRecords(truncated, &decoded).code(),
            StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// Checkpoint-truncate replication floor.

TEST(DurabilityReplicationTest, CheckpointDefersTruncationUntilFollowerAck) {
  std::string dir = TempDir("repl_floor");
  auto batches = SampleBatches();
  const uint64_t total = TotalTxns(batches);
  {
    auto opened = DurabilityManager::Open(
        DurabilityOptions{dir, WalOptions(), 0}, EmptyIndex(), nullptr);
    ASSERT_TRUE(opened.ok());
    auto mgr = std::move(*opened);
    auto manager =
        SnapshotManager::FromIndex(mgr->TakeRecoveredIndex()).value();
    for (const auto& batch : batches) {
      ASSERT_TRUE(mgr->LogInsert(batch).ok());
      for (const Itemset& items : batch) {
        ASSERT_TRUE(manager.Insert(items).ok());
      }
    }
    // A follower attached but has acked nothing: the checkpoint itself
    // commits, yet the WAL keeps every record the follower still needs.
    mgr->EnableReplicationRetention();
    ASSERT_TRUE(mgr->Checkpoint(manager.Acquire(), nullptr).ok());
    EXPECT_EQ(mgr->wal_truncations_deferred(), 1u);
    EXPECT_EQ(WriteAheadLog::ReadBaseTxnCount(dir + "/wal").value(), 0u);
    // The records are still fetchable from the follower's watermark.
    EXPECT_TRUE(
        WriteAheadLog::ReadRecordsFrom(dir + "/wal", 0, 1 << 20).ok());
  }

  // Recovery must tolerate the deferred state: a WAL based before the
  // checkpoint's coverage is exactly what the floor produces.
  auto reopened = DurabilityManager::Open(
      DurabilityOptions{dir, WalOptions(), 0}, EmptyIndex(), nullptr);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto mgr = std::move(*reopened);
  EXPECT_TRUE(mgr->recovery().checkpoint_loaded);
  auto manager = SnapshotManager::FromIndex(mgr->TakeRecoveredIndex()).value();
  EXPECT_EQ(manager.num_transactions(), total);

  // A partial ack still blocks truncation; acking through the checkpoint
  // boundary releases it on the next checkpoint.
  mgr->EnableReplicationRetention();
  mgr->NoteReplicationAck(3);
  ASSERT_TRUE(mgr->Checkpoint(manager.Acquire(), nullptr).ok());
  EXPECT_EQ(mgr->wal_truncations_deferred(), 1u);
  EXPECT_EQ(WriteAheadLog::ReadBaseTxnCount(dir + "/wal").value(), 0u);
  mgr->NoteReplicationAck(total);
  ASSERT_TRUE(mgr->Checkpoint(manager.Acquire(), nullptr).ok());
  EXPECT_EQ(WriteAheadLog::ReadBaseTxnCount(dir + "/wal").value(), total);
}

// ---------------------------------------------------------------------------
// End-to-end: a follower tails a primary over real sockets.

TEST(ReplicationE2ETest, FollowerTailsPrimaryAndMatchesEveryCount) {
  auto primary = MakeNode("repl_e2e_p", NodeOptions{});
  ASSERT_NE(primary, nullptr);
  auto batches = SampleBatches();
  for (const auto& batch : batches) {
    obs::JsonValue response = primary->Call(InsertRequest(batch));
    ASSERT_TRUE(response.at("ok").AsBool()) << response.Serialize(0);
  }
  const uint64_t total = TotalTxns(batches);

  NodeOptions follow;
  follow.follow_port = primary->port();
  auto follower = MakeNode("repl_e2e_f", follow);
  ASSERT_NE(follower, nullptr);

  // Backlog catch-up: everything inserted before the follower existed.
  ASSERT_TRUE(WaitUntil([&] { return follower->applied() == total; }));

  // Live tail: an insert after attach reaches the follower too.
  obs::JsonValue live = primary->Call(InsertRequest({{2, 3}, {9}}));
  ASSERT_TRUE(live.at("ok").AsBool());
  ASSERT_TRUE(WaitUntil([&] { return follower->applied() == total + 2; }));

  for (const Itemset& probe : std::vector<Itemset>{
           {1}, {2}, {2, 3}, {4, 5}, {3, 4, 5}, {7, 8}, {9}}) {
    EXPECT_EQ(follower->Count(probe), primary->Count(probe))
        << "probe diverged after replication";
  }

  // Both roles surface the stream in STATS.
  ASSERT_TRUE(WaitUntil([&] {
    return primary->source->stats().last_acked_txn == total + 2;
  }));
  obs::JsonValue primary_repl = primary->ReplicationStats();
  EXPECT_EQ(primary_repl.at("role").AsString(), "primary");
  EXPECT_EQ(primary_repl.at("followers").AsUint(), 1u);
  EXPECT_EQ(primary_repl.at("last_acked_txn").AsUint(), total + 2);
  EXPECT_EQ(primary_repl.at("lag_records").AsUint(), 0u);

  obs::JsonValue follower_repl = follower->ReplicationStats();
  EXPECT_EQ(follower_repl.at("role").AsString(), "follower");
  EXPECT_TRUE(follower_repl.at("connected").AsBool());
  EXPECT_EQ(follower_repl.at("last_applied_txn").AsUint(), total + 2);
  EXPECT_GE(follower_repl.at("records_applied").AsUint(), batches.size());

  // A follower is read-only: client INSERTs would fork its history.
  obs::JsonValue rejected = follower->Call(InsertRequest({{1}}));
  EXPECT_FALSE(rejected.at("ok").AsBool());
  EXPECT_NE(rejected.at("error").at("message").AsString().find(
                "read-only follower"),
            std::string::npos);
}

TEST(ReplicationE2ETest, SecondConcurrentFollowerIsRejected) {
  auto primary = MakeNode("repl_two_p", NodeOptions{});
  ASSERT_NE(primary, nullptr);
  NodeOptions follow;
  follow.follow_port = primary->port();
  auto follower = MakeNode("repl_two_f", follow);
  ASSERT_NE(follower, nullptr);
  ASSERT_TRUE(
      WaitUntil([&] { return primary->source->stats().followers == 1; }));

  // A second WALSTREAM handshake must be refused outright: the
  // replication floor and the semi-sync ack are one watermark, so a
  // second stream would let the faster follower's acks truncate WAL
  // records the slower one still needs — with no bootstrap path left.
  Result<OwnedFd> fd = ConnectTcp("127.0.0.1", primary->port(), 2'000);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  obs::JsonValue handshake = obs::JsonValue::Object();
  handshake.Set("verb", obs::JsonValue::String("WALSTREAM"));
  handshake.Set("watermark", obs::JsonValue::Uint(0));
  ASSERT_TRUE(WriteFrame(fd->get(), handshake).ok());
  Result<obs::JsonValue> reply = ReadFrame(fd->get(), 5'000);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_FALSE(reply->at("ok").AsBool()) << reply->Serialize(0);
  EXPECT_NE(reply->at("error").at("message").AsString().find(
                "already attached"),
            std::string::npos);

  // The attached follower is untroubled and still streams.
  EXPECT_EQ(primary->source->stats().followers, 1u);
  obs::JsonValue inserted = primary->Call(InsertRequest({{11, 12}}));
  ASSERT_TRUE(inserted.at("ok").AsBool());
  ASSERT_TRUE(WaitUntil([&] { return follower->applied() == 1; }));
  EXPECT_EQ(follower->Count({11, 12}), 1u);
}

TEST(ReplicationE2ETest, SemiSyncAcksOnlyAfterFollowerIsDurable) {
  NodeOptions semi;
  semi.repl_ack = true;
  auto primary = MakeNode("repl_semi_p", semi);
  ASSERT_NE(primary, nullptr);
  NodeOptions follow;
  follow.follow_port = primary->port();
  auto follower = MakeNode("repl_semi_f", follow);
  ASSERT_NE(follower, nullptr);
  ASSERT_TRUE(
      WaitUntil([&] { return follower->follower->stats().connected; }));

  obs::JsonValue response = primary->Call(InsertRequest({{1, 2}, {3}}));
  ASSERT_TRUE(response.at("ok").AsBool()) << response.Serialize(0);
  ASSERT_TRUE(response.Has("replicated"));
  EXPECT_TRUE(response.at("replicated").AsBool());
  // The ack implies the follower already has the batch durably.
  EXPECT_EQ(follower->applied(), 2u);
}

TEST(ReplicationE2ETest, SemiSyncDegradesToUnreplicatedWithoutAFollower) {
  NodeOptions semi;
  semi.repl_ack = true;
  semi.repl_ack_timeout_ms = 50;
  auto primary = MakeNode("repl_semi_alone", semi);
  ASSERT_NE(primary, nullptr);

  obs::JsonValue response = primary->Call(InsertRequest({{1, 2}}));
  // MySQL-style degrade: the write is acked (it is durable locally) but
  // flagged so the operator can see the replication debt.
  ASSERT_TRUE(response.at("ok").AsBool()) << response.Serialize(0);
  ASSERT_TRUE(response.Has("replicated"));
  EXPECT_FALSE(response.at("replicated").AsBool());
  EXPECT_EQ(primary->source->stats().ack_timeouts, 1u);
  obs::JsonValue repl = primary->ReplicationStats();
  EXPECT_TRUE(repl.at("semi_sync").AsBool());
  EXPECT_EQ(repl.at("ack_timeouts").AsUint(), 1u);
}

TEST(ReplicationE2ETest, FollowerRestartResumesFromItsWatermark) {
  auto primary = MakeNode("repl_resume_p", NodeOptions{});
  ASSERT_NE(primary, nullptr);
  ASSERT_TRUE(primary->Call(InsertRequest({{1, 2}})).at("ok").AsBool());
  ASSERT_TRUE(primary->Call(InsertRequest({{3}, {4}})).at("ok").AsBool());

  NodeOptions follow;
  follow.follow_port = primary->port();
  auto follower = MakeNode("repl_resume_f", follow);
  ASSERT_NE(follower, nullptr);
  ASSERT_TRUE(WaitUntil([&] { return follower->applied() == 3; }));
  follower->follower->Stop();

  ASSERT_TRUE(primary->Call(InsertRequest({{5, 6}})).at("ok").AsBool());
  ASSERT_TRUE(primary->Call(InsertRequest({{7}})).at("ok").AsBool());

  // A fresh follower instance (same durable state) hands the primary its
  // applied watermark and receives only the two new records.
  SnapshotManager* index = &*follower->manager;
  BbsService* target = follower->service.get();
  ReplicationFollowerOptions options;
  options.host = "127.0.0.1";
  options.port = primary->port();
  options.reconnect_backoff_ms = 50;
  auto restarted = std::make_unique<ReplicationFollower>(
      options,
      [index] { return static_cast<uint64_t>(index->num_transactions()); },
      [target](const std::vector<std::vector<Itemset>>& batches) {
        return target->ApplyReplicated(batches);
      });
  restarted->Start();
  EXPECT_TRUE(WaitUntil([&] { return follower->applied() == 5; }));
  restarted->Stop();

  // Four records shipped in total across both sessions — a resume from
  // zero would have re-shipped the first two and made this six.
  EXPECT_EQ(primary->source->stats().records_shipped, 4u);
  EXPECT_EQ(follower->Count({1, 2}), 1u);
  EXPECT_EQ(follower->Count({5, 6}), 1u);
  EXPECT_EQ(follower->Count({7}), 1u);
}

TEST(ReplicationE2ETest, FollowerBehindTheWalBaseHaltsInsteadOfRetrying) {
  // Checkpointed before any follower attached, the primary's WAL starts
  // past transaction 0: a follower at watermark 0 can never be served.
  auto primary = MakeNode("repl_halt_p", NodeOptions{});
  ASSERT_NE(primary, nullptr);
  ASSERT_TRUE(primary->Call(InsertRequest({{1, 2}, {3}})).at("ok").AsBool());
  obs::JsonValue checkpoint = obs::JsonValue::Object();
  checkpoint.Set("verb", obs::JsonValue::String("CHECKPOINT"));
  ASSERT_TRUE(primary->Call(checkpoint).at("ok").AsBool());
  ASSERT_EQ(WriteAheadLog::ReadBaseTxnCount(primary->dir + "/wal").value(), 2u);

  NodeOptions follow;
  follow.follow_port = primary->port();
  auto follower = MakeNode("repl_halt_f", follow);
  ASSERT_NE(follower, nullptr);
  ASSERT_TRUE(WaitUntil([&] { return follower->follower->stats().halted; }));

  // Several reconnect backoffs later the follower has still not retried.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const ReplicationFollower::Stats stats = follower->follower->stats();
  EXPECT_FALSE(stats.running);
  EXPECT_EQ(stats.reconnects, 0u);
  EXPECT_EQ(follower->applied(), 0u);
  obs::JsonValue repl = follower->ReplicationStats();
  EXPECT_TRUE(repl.at("halted").AsBool()) << repl.Serialize(0);
  EXPECT_NE(repl.at("error").AsString().find("precedes WAL base"),
            std::string::npos)
      << repl.Serialize(0);
}

// ---------------------------------------------------------------------------
// Promotion: term persistence, fencing, idempotency.

TEST(PromoteTest, PromotionPersistsTermStopsTheTailAndOpensWrites) {
  auto primary = MakeNode("repl_promo_p", NodeOptions{});
  ASSERT_NE(primary, nullptr);
  ASSERT_TRUE(primary->Call(InsertRequest({{1, 2}, {3}})).at("ok").AsBool());

  NodeOptions follow;
  follow.follow_port = primary->port();
  auto node = MakeNode("repl_promo_f", follow);
  ASSERT_NE(node, nullptr);
  ASSERT_TRUE(WaitUntil([&] { return node->applied() == 2; }));

  obs::JsonValue missing = obs::JsonValue::Object();
  missing.Set("verb", obs::JsonValue::String("PROMOTE"));
  EXPECT_FALSE(node->Call(missing).at("ok").AsBool());

  obs::JsonValue promoted = node->Call(PromoteRequest(5));
  ASSERT_TRUE(promoted.at("ok").AsBool()) << promoted.Serialize(0);
  EXPECT_TRUE(promoted.at("promoted").AsBool());
  EXPECT_EQ(promoted.at("role").AsString(), "primary");
  EXPECT_EQ(promoted.at("term").AsUint(), 5u);
  EXPECT_EQ(promoted.at("transactions").AsUint(), 2u);

  // The term survives a restart (read back the fencing token file) and
  // the promotion hook stopped the replication tail.
  std::ifstream term_file(node->dir + "/term");
  uint64_t persisted = 0;
  term_file >> persisted;
  EXPECT_EQ(persisted, 5u);
  EXPECT_TRUE(WaitUntil([&] { return !node->follower->stats().running; }));

  // Writes open up exactly at promotion.
  obs::JsonValue insert = node->Call(InsertRequest({{9}}));
  EXPECT_TRUE(insert.at("ok").AsBool()) << insert.Serialize(0);

  // Fencing: a staler router cannot move the node backwards; a retried
  // PROMOTE at the same term is idempotent, not an error.
  obs::JsonValue stale = node->Call(PromoteRequest(3));
  EXPECT_FALSE(stale.at("ok").AsBool());
  EXPECT_NE(stale.at("error").at("message").AsString().find("stale term"),
            std::string::npos);
  obs::JsonValue retried = node->Call(PromoteRequest(5));
  ASSERT_TRUE(retried.at("ok").AsBool());
  EXPECT_FALSE(retried.at("promoted").AsBool());

  obs::JsonValue repl = node->ReplicationStats();
  EXPECT_EQ(repl.at("role").AsString(), "primary");
  EXPECT_EQ(repl.at("term").AsUint(), 5u);
  EXPECT_EQ(repl.at("promotions").AsUint(), 1u);
}

// ---------------------------------------------------------------------------
// util satellite: connect timeouts must be honored, not inherited from
// the kernel's minutes-long SYN retry schedule.

TEST(SocketTest, ConnectTcpHonorsTimeoutWhenTheSynIsDropped) {
  // A local blackhole that needs no network assumptions: a listener whose
  // accept queue is full drops further SYNs, so the next connect hangs in
  // retransmission exactly like a connect to a dead host.
  auto listener = ListenTcp("127.0.0.1", 0, /*backlog=*/1);
  ASSERT_TRUE(listener.ok());
  const uint16_t port = BoundPort(listener->get()).value();

  std::vector<OwnedFd> queued;
  bool timed_out = false;
  for (int i = 0; i < 32; ++i) {
    const auto start = std::chrono::steady_clock::now();
    Result<OwnedFd> fd = ConnectTcp("127.0.0.1", port, 250);
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    if (fd.ok()) {
      queued.push_back(std::move(*fd));
      continue;
    }
    // The old blocking connect() ignored the caller's budget and hung for
    // the kernel's minutes-long SYN retry schedule; the poll-based path
    // must come back in roughly the 250 ms it was given.
    EXPECT_EQ(fd.status().code(), StatusCode::kUnavailable)
        << fd.status().ToString();
    EXPECT_GE(elapsed, 200);
    EXPECT_LT(elapsed, 5'000);
    timed_out = true;
    break;
  }
  EXPECT_TRUE(timed_out) << "accept queue never filled; no SYN was dropped";
}

}  // namespace
}  // namespace bbsmine::service
