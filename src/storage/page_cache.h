// An LRU page cache used to model buffered block access.
//
// The paper's Probe refinement fetches individual transactions through the
// position index; on a real machine, probes to the same disk block within a
// short window are served from the buffer pool. PageCache models exactly
// that: Access() charges a block read to an IoStats only when the block is
// not resident, and evicts least-recently-used blocks once the configured
// memory budget (in blocks) is exceeded. It stores no data — only residency —
// because the reproduction keeps all data in memory and models the I/O cost.
//
// Access() is thread-safe (a real buffer pool is shared by all workers, and
// the parallel miner probes from several threads at once). Two modes:
//   * whole-file — the capacity covers every block of the file, so nothing
//     can ever be evicted and a miss is exactly the first touch of a block.
//     Residency is a bitmap of atomic words and the counters are relaxed
//     atomics; Access() never locks. Hit and miss totals are the same at
//     every thread count and under every schedule.
//   * LRU — a smaller pool (the adaptive miner's constrained budgets). One
//     mutex guards the recency list. Which block is evicted depends on the
//     probe interleaving, so miss counts may vary between multi-threaded
//     runs — exactly as on real hardware — while probe *results* are
//     unaffected.
//
// Scope: this cache is the *paper's cost model only* — it charges synthetic
// IoStats reads for a 2002-era buffered-disk setup; it never stores or
// fetches data. Runs on the mmap slice backend skip the analogous synthetic
// slice-read charging (SliceSource::charges_synthetic_io() is false there):
// a slice the kernel actually faulted in must not also be billed by the
// model, so IoStats never double-counts. Real paging behavior for mmap runs
// is observed through getrusage page-fault deltas (util/rusage.h) instead.

#ifndef BBSMINE_STORAGE_PAGE_CACHE_H_
#define BBSMINE_STORAGE_PAGE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "util/iomodel.h"

namespace bbsmine {

/// Tracks which blocks of a single file are resident, with LRU eviction.
class PageCache {
 public:
  /// `file_blocks` value for a file of unknown size: the cache always runs
  /// the LRU path.
  static constexpr uint64_t kUnknownFileBlocks =
      std::numeric_limits<uint64_t>::max();

  /// Creates a cache holding at most `capacity_blocks` blocks of a file that
  /// is `file_blocks` blocks long. A capacity of zero disables caching
  /// (every access misses). When the capacity covers the whole file the
  /// cache runs lock-free (see the file comment); blocks at or past
  /// `file_blocks` then lie outside the file and always miss.
  explicit PageCache(uint64_t capacity_blocks,
                     uint64_t file_blocks = kUnknownFileBlocks);

  /// Touches `block`. On a miss, charges one read to `io` (random or
  /// sequential according to `sequential`) and admits the block, evicting the
  /// LRU block if the cache is full. On a hit, only recency is updated.
  /// Returns true on a hit.
  bool Access(uint64_t block, bool sequential, IoStats* io) {
    return whole_file_ ? AccessWholeFile(block, sequential, io)
                       : AccessLru(block, sequential, io);
  }

  /// Drops all resident blocks. The hit and miss counters are kept.
  void Clear();

  uint64_t capacity() const { return capacity_; }

  /// True when the capacity covers the whole file: nothing is ever evicted,
  /// so first-touch misses amount to loading the file once.
  bool whole_file() const { return whole_file_; }

  uint64_t resident_blocks() const;
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

  /// Hit/miss counters read together. Exact once probing has finished; in
  /// whole-file mode an Access() racing with the read may land between the
  /// two loads.
  struct Counters {
    uint64_t hits = 0;
    uint64_t misses = 0;

    uint64_t accesses() const { return hits + misses; }
    /// Fraction of accesses served from the pool (0 when never accessed).
    double hit_rate() const {
      return accesses() == 0
                 ? 0.0
                 : static_cast<double>(hits) / static_cast<double>(accesses());
    }
  };
  Counters counters() const {
    std::lock_guard<std::mutex> lock(mu_);
    return Counters{hits(), misses()};
  }

 private:
  static constexpr uint64_t kBitsPerWord = 64;

  uint64_t bitmap_words() const {
    return (file_blocks_ + kBitsPerWord - 1) / kBitsPerWord;
  }

  bool AccessWholeFile(uint64_t block, bool sequential, IoStats* io);
  bool AccessLru(uint64_t block, bool sequential, IoStats* io);
  void ChargeMiss(bool sequential, IoStats* io);

  const uint64_t capacity_;
  const uint64_t file_blocks_;
  const bool whole_file_;

  // Every worker bumps `hits_`; keep it off the lines the others read.
  alignas(64) std::atomic<uint64_t> hits_{0};
  alignas(64) std::atomic<uint64_t> misses_{0};

  // Whole-file mode: bit b of the bitmap is set once block b is resident.
  std::unique_ptr<std::atomic<uint64_t>[]> resident_;

  // LRU mode. Front = most recently used.
  std::list<uint64_t> lru_;
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> index_;
  // Guards lru_ and index_, and makes counters() an atomic pair in LRU mode.
  mutable std::mutex mu_;
};

}  // namespace bbsmine

#endif  // BBSMINE_STORAGE_PAGE_CACHE_H_
