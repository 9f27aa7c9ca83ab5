#include "service/flight_recorder.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>

namespace bbsmine::service {

const char* RecordedVerbName(RecordedVerb verb) {
  switch (verb) {
    case RecordedVerb::kPing:
      return "PING";
    case RecordedVerb::kCount:
      return "COUNT";
    case RecordedVerb::kInsert:
      return "INSERT";
    case RecordedVerb::kMine:
      return "MINE";
    case RecordedVerb::kStats:
      return "STATS";
    case RecordedVerb::kCheckpoint:
      return "CHECKPOINT";
    case RecordedVerb::kDump:
      return "DUMP";
    case RecordedVerb::kUnknown:
      break;
  }
  return "UNKNOWN";
}

RecordedVerb RecordedVerbFromString(const std::string& verb) {
  if (verb == "PING") return RecordedVerb::kPing;
  if (verb == "COUNT") return RecordedVerb::kCount;
  if (verb == "INSERT") return RecordedVerb::kInsert;
  if (verb == "MINE") return RecordedVerb::kMine;
  if (verb == "STATS") return RecordedVerb::kStats;
  if (verb == "CHECKPOINT") return RecordedVerb::kCheckpoint;
  if (verb == "DUMP") return RecordedVerb::kDump;
  return RecordedVerb::kUnknown;
}

FlightRing::FlightRing(size_t capacity)
    : slots_(std::max<size_t>(1, capacity)) {}

void FlightRing::Record(const FlightEvent& event) {
  uint64_t head = head_.load(std::memory_order_relaxed);
  Slot& slot = slots_[head % slots_.size()];
  // Seqlock write side: odd lock value marks the slot torn. The single
  // writer never contends with itself, so plain increment semantics hold.
  // The release fence orders the odd store before every field store below
  // (a release store would only order the stores before it).
  uint64_t lock = slot.lock.load(std::memory_order_relaxed);
  slot.lock.store(lock + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.seq.store(head, std::memory_order_relaxed);
  slot.start_rel_us.store(event.start_rel_us, std::memory_order_relaxed);
  slot.latency_us.store(event.latency_us, std::memory_order_relaxed);
  slot.queue_wait_us.store(event.queue_wait_us, std::memory_order_relaxed);
  slot.epoch.store(event.epoch, std::memory_order_relaxed);
  slot.batch_size.store(event.batch_size, std::memory_order_relaxed);
  slot.verb.store(static_cast<uint8_t>(event.verb),
                  std::memory_order_relaxed);
  slot.ok.store(event.ok ? 1 : 0, std::memory_order_relaxed);
  for (size_t w = 0; w < kTraceIdWords; ++w) {
    uint64_t word;
    std::memcpy(&word, event.trace_id + 8 * w, sizeof(word));
    slot.trace_id[w].store(word, std::memory_order_relaxed);
  }
  slot.lock.store(lock + 2, std::memory_order_release);
  head_.store(head + 1, std::memory_order_release);
}

std::vector<FlightEvent> FlightRing::Read() const {
  uint64_t head = head_.load(std::memory_order_acquire);
  size_t retained = static_cast<size_t>(
      std::min<uint64_t>(head, slots_.size()));
  std::vector<FlightEvent> events;
  events.reserve(retained);
  uint64_t first = head - retained;
  for (uint64_t s = first; s < head; ++s) {
    const Slot& slot = slots_[s % slots_.size()];
    uint64_t before = slot.lock.load(std::memory_order_acquire);
    if (before & 1) continue;  // mid-write
    FlightEvent event;
    event.seq = slot.seq.load(std::memory_order_relaxed);
    event.start_rel_us = slot.start_rel_us.load(std::memory_order_relaxed);
    event.latency_us = slot.latency_us.load(std::memory_order_relaxed);
    event.queue_wait_us = slot.queue_wait_us.load(std::memory_order_relaxed);
    event.epoch = slot.epoch.load(std::memory_order_relaxed);
    event.batch_size = slot.batch_size.load(std::memory_order_relaxed);
    event.verb = static_cast<RecordedVerb>(
        slot.verb.load(std::memory_order_relaxed));
    event.ok = slot.ok.load(std::memory_order_relaxed) != 0;
    for (size_t w = 0; w < kTraceIdWords; ++w) {
      uint64_t word = slot.trace_id[w].load(std::memory_order_relaxed);
      std::memcpy(event.trace_id + 8 * w, &word, sizeof(word));
    }
    event.trace_id[FlightEvent::kTraceIdBytes - 1] = '\0';
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.lock.load(std::memory_order_relaxed) != before) {
      continue;  // overwritten while reading
    }
    events.push_back(event);
  }
  return events;
}

void FlightRing::Reset() {
  head_.store(0, std::memory_order_release);
}

FlightRecorder::FlightRecorder(size_t ring_capacity, size_t max_rings)
    : ring_capacity_(std::max<size_t>(1, ring_capacity)),
      max_rings_(std::max<size_t>(1, max_rings)) {}

FlightRing* FlightRecorder::AcquireRing(uint64_t connection_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (holders_.size() >= max_rings_) {
    // Recycle the oldest released ring; its history is the price of the
    // bound. With every ring still active, fall through and grow anyway —
    // wedging live connections over a debug buffer would be backwards.
    Holder* oldest = nullptr;
    for (Holder& holder : holders_) {
      if (holder.active) continue;
      if (oldest == nullptr || holder.acquired_order < oldest->acquired_order) {
        oldest = &holder;
      }
    }
    if (oldest != nullptr) {
      oldest->ring->Reset();
      oldest->connection_id = connection_id;
      oldest->acquired_order = next_order_++;
      oldest->active = true;
      return oldest->ring.get();
    }
  }
  Holder holder;
  holder.ring = std::make_unique<FlightRing>(ring_capacity_);
  holder.connection_id = connection_id;
  holder.acquired_order = next_order_++;
  holder.active = true;
  holders_.push_back(std::move(holder));
  return holders_.back().ring.get();
}

void FlightRecorder::ReleaseRing(FlightRing* ring) {
  if (ring == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (Holder& holder : holders_) {
    if (holder.ring.get() == ring) {
      holder.active = false;
      return;
    }
  }
}

obs::JsonValue FlightRecorder::DumpLocked(uint64_t now_rel_us) const {
  using obs::JsonValue;
  JsonValue dump = JsonValue::Object();
  dump.Set("schema_version", JsonValue::Int(1));
  dump.Set("kind", JsonValue::String("bbsmined_flight_recorder"));
  dump.Set("ring_capacity", JsonValue::Uint(ring_capacity_));
  dump.Set("dumped_at_us", JsonValue::Uint(now_rel_us));
  JsonValue connections = JsonValue::Array();
  for (const Holder& holder : holders_) {
    JsonValue conn = JsonValue::Object();
    conn.Set("connection", JsonValue::Uint(holder.connection_id));
    conn.Set("active", JsonValue::Bool(holder.active));
    conn.Set("recorded", JsonValue::Uint(holder.ring->recorded()));
    JsonValue events = JsonValue::Array();
    for (const FlightEvent& event : holder.ring->Read()) {
      JsonValue e = JsonValue::Object();
      e.Set("seq", JsonValue::Uint(event.seq));
      e.Set("trace_id", JsonValue::String(event.trace_id));
      e.Set("verb", JsonValue::String(RecordedVerbName(event.verb)));
      e.Set("start_us", JsonValue::Uint(event.start_rel_us));
      e.Set("latency_us", JsonValue::Uint(event.latency_us));
      e.Set("queue_wait_us", JsonValue::Uint(event.queue_wait_us));
      e.Set("batch_size", JsonValue::Uint(event.batch_size));
      e.Set("epoch", JsonValue::Uint(event.epoch));
      e.Set("ok", JsonValue::Bool(event.ok));
      events.Append(std::move(e));
    }
    conn.Set("events", std::move(events));
    connections.Append(std::move(conn));
  }
  dump.Set("connections", std::move(connections));
  return dump;
}

obs::JsonValue FlightRecorder::DumpJson(uint64_t now_rel_us) const {
  std::lock_guard<std::mutex> lock(mu_);
  return DumpLocked(now_rel_us);
}

obs::JsonValue FlightRecorder::DumpJsonForCrash(uint64_t now_rel_us) const {
  // The crash path must never deadlock on a lock a doomed thread holds;
  // spin briefly for the holders lock, then dump whatever we can.
  for (int attempt = 0; attempt < 100; ++attempt) {
    if (mu_.try_lock()) {
      std::lock_guard<std::mutex> lock(mu_, std::adopt_lock);
      return DumpLocked(now_rel_us);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  using obs::JsonValue;
  JsonValue dump = JsonValue::Object();
  dump.Set("schema_version", JsonValue::Int(1));
  dump.Set("kind", JsonValue::String("bbsmined_flight_recorder"));
  dump.Set("ring_capacity", JsonValue::Uint(ring_capacity_));
  dump.Set("dumped_at_us", JsonValue::Uint(now_rel_us));
  dump.Set("truncated", JsonValue::Bool(true));
  dump.Set("connections", JsonValue::Array());
  return dump;
}

}  // namespace bbsmine::service
