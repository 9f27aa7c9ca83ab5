#include "storage/page_cache.h"

#include <bit>

namespace bbsmine {

PageCache::PageCache(uint64_t capacity_blocks, uint64_t file_blocks)
    : capacity_(capacity_blocks),
      file_blocks_(file_blocks),
      whole_file_(file_blocks != kUnknownFileBlocks &&
                  capacity_blocks >= file_blocks) {
  if (whole_file_) {
    resident_ = std::make_unique<std::atomic<uint64_t>[]>(bitmap_words());
  }
}

void PageCache::ChargeMiss(bool sequential, IoStats* io) {
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (io != nullptr) {
    if (sequential) {
      ++io->sequential_reads;
    } else {
      ++io->random_reads;
    }
  }
}

bool PageCache::AccessWholeFile(uint64_t block, bool sequential,
                                IoStats* io) {
  if (block < file_blocks_) {
    std::atomic<uint64_t>& word = resident_[block / kBitsPerWord];
    const uint64_t bit = uint64_t{1} << (block % kBitsPerWord);
    // Resident blocks stay resident, so a plain load answers almost every
    // access; only a first touch pays for the read-modify-write, and exactly
    // one of several racing first touches sees the bit clear.
    if ((word.load(std::memory_order_relaxed) & bit) != 0 ||
        (word.fetch_or(bit, std::memory_order_relaxed) & bit) != 0) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  ChargeMiss(sequential, io);
  return false;
}

bool PageCache::AccessLru(uint64_t block, bool sequential, IoStats* io) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(block);
  if (it != index_.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    lru_.splice(lru_.begin(), lru_, it->second);
    return true;
  }

  ChargeMiss(sequential, io);
  if (capacity_ == 0) return false;

  if (lru_.size() >= capacity_) {
    uint64_t victim = lru_.back();
    lru_.pop_back();
    index_.erase(victim);
  }
  lru_.push_front(block);
  index_[block] = lru_.begin();
  return false;
}

uint64_t PageCache::resident_blocks() const {
  if (whole_file_) {
    uint64_t resident = 0;
    for (uint64_t w = 0; w < bitmap_words(); ++w) {
      resident += std::popcount(resident_[w].load(std::memory_order_relaxed));
    }
    return resident;
  }
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

void PageCache::Clear() {
  if (whole_file_) {
    for (uint64_t w = 0; w < bitmap_words(); ++w) {
      resident_[w].store(0, std::memory_order_relaxed);
    }
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
}

}  // namespace bbsmine
