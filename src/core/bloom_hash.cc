#include "core/bloom_hash.h"

#include <algorithm>

#include "util/md5.h"

namespace bbsmine {

Result<BloomHashFamily> BloomHashFamily::Create(uint32_t num_bits,
                                                uint32_t num_hashes,
                                                HashKind kind, uint64_t seed) {
  if (num_bits == 0) {
    return Status::InvalidArgument("num_bits must be positive");
  }
  if (num_hashes == 0) {
    return Status::InvalidArgument("num_hashes must be positive");
  }
  return BloomHashFamily(num_bits, num_hashes, kind, seed);
}

BloomHashFamily::Table::Table(size_t capacity, uint32_t num_hashes)
    : capacity(capacity),
      ready(new std::atomic<bool>[capacity]),
      positions(new uint32_t[capacity * num_hashes]) {
  for (size_t i = 0; i < capacity; ++i) {
    ready[i].store(false, std::memory_order_relaxed);
  }
}

BloomHashFamily::ItemPositions BloomHashFamily::Positions(ItemId item) const {
  const size_t max_items = kMemoPositions / num_hashes_;
  if (item >= max_items) {
    std::vector<uint32_t> own;
    ComputePositions(item, &own);
    return ItemPositions(std::move(own));
  }
  const Table* table = memo_->current.load(std::memory_order_acquire);
  if (table == nullptr || item >= table->capacity ||
      !table->ready[item].load(std::memory_order_acquire)) {
    table = &FillMemo(item);
  }
  return ItemPositions(std::span<const uint32_t>(
      table->positions.get() + size_t{item} * num_hashes_, num_hashes_));
}

const BloomHashFamily::Table& BloomHashFamily::FillMemo(ItemId item) const {
  std::lock_guard<std::mutex> lock(memo_->mu);
  const Table* table = memo_->current.load(std::memory_order_relaxed);
  if (table == nullptr || item >= table->capacity) {
    // Grow a copy (doubling, within the cap) and publish it; readers of
    // the old table keep reading entries that never change again.
    size_t old_capacity = table == nullptr ? 0 : table->capacity;
    size_t capacity = std::min(
        kMemoPositions / num_hashes_,
        std::max({size_t{item} + 1, 2 * old_capacity, size_t{64}}));
    auto grown = std::make_unique<Table>(capacity, num_hashes_);
    if (table != nullptr) {
      std::copy_n(table->positions.get(), old_capacity * num_hashes_,
                  grown->positions.get());
      for (size_t i = 0; i < old_capacity; ++i) {
        grown->ready[i].store(table->ready[i].load(std::memory_order_relaxed),
                              std::memory_order_relaxed);
      }
    }
    table = grown.get();
    memo_->tables.push_back(std::move(grown));
    memo_->current.store(table, std::memory_order_release);
  }
  if (!table->ready[item].load(std::memory_order_relaxed)) {
    std::vector<uint32_t> computed;
    ComputePositions(item, &computed);
    std::copy(computed.begin(), computed.end(),
              table->positions.get() + size_t{item} * num_hashes_);
    table->ready[item].store(true, std::memory_order_release);
    memo_->filled.fetch_add(1, std::memory_order_relaxed);
  }
  return *table;
}

void BloomHashFamily::ComputePositions(ItemId item,
                                       std::vector<uint32_t>* out) const {
  out->clear();
  out->reserve(num_hashes_);
  switch (kind_) {
    case HashKind::kMd5: {
      std::string name = std::to_string(item);
      if (seed_ != 0) {
        name += '#';
        name += std::to_string(seed_);
      }
      ComputeMd5Positions(name, out);
      break;
    }
    case HashKind::kMultiplyShift:
      ComputeMultiplyShiftPositions(item, out);
      break;
    case HashKind::kModulo:
      for (uint32_t j = 0; j < num_hashes_; ++j) {
        out->push_back((item + j) % num_bits_);
      }
      break;
  }
}

void BloomHashFamily::ComputeMd5Positions(const std::string& name,
                                          std::vector<uint32_t>* out) const {
  // Each MD5 digest of the (repeatedly self-concatenated) item name yields
  // four disjoint 32-bit groups; each group mod m is one hash position.
  std::string message = name;
  while (out->size() < num_hashes_) {
    Md5Digest digest = Md5::Hash(message);
    for (int group = 0; group < 4 && out->size() < num_hashes_; ++group) {
      uint32_t value = 0;
      for (int byte = 0; byte < 4; ++byte) {
        value |= static_cast<uint32_t>(digest[4 * group + byte]) << (8 * byte);
      }
      out->push_back(value % num_bits_);
    }
    // "If more bits are needed, we calculate the MD5 signature of the item
    // name concatenated with itself."
    message += name;
  }
}

void BloomHashFamily::ComputeMultiplyShiftPositions(
    ItemId item, std::vector<uint32_t>* out) const {
  // Fibonacci-style multiply-shift mixing; one 64-bit product per function.
  uint64_t x = (static_cast<uint64_t>(item) + 1) ^ seed_;
  for (uint32_t j = 0; j < num_hashes_; ++j) {
    uint64_t z = x + 0x9e3779b97f4a7c15ull * (j + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    out->push_back(static_cast<uint32_t>(z % num_bits_));
  }
}

}  // namespace bbsmine
