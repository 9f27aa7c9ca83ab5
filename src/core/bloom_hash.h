// The Bloom-filter hash family mapping items to bit positions in [0, m).
//
// Paper, Section 4: "we take the four disjoint groups of bits from the
// 128-bit MD5 signature of the item name; if more bits are needed, we
// calculate the MD5 signature of the item name concatenated with itself."
// Item names here are the decimal renderings of the item ids.
//
// Positions are memoized per item: mining touches the same (few hundred)
// frequent items millions of times, so the MD5 cost is paid once per item,
// matching the paper's observation that "the computational overhead of MD5 is
// negligible".

#ifndef BBSMINE_CORE_BLOOM_HASH_H_
#define BBSMINE_CORE_BLOOM_HASH_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/bbs_config.h"
#include "storage/transaction.h"
#include "util/status.h"

namespace bbsmine {

/// A family of `num_hashes` hash functions h_j : ItemId -> [0, num_bits).
///
/// Thread-safe. The position memo is a table indexed by item id, published
/// through an atomic pointer: a warm lookup is two acquire loads and takes
/// no lock, while a first use fills its entry, and an id past the table
/// grows a copy of it, under a mutex. Retired tables stay alive, so a view
/// never dangles. The table stops growing at kMemoPositions positions; ids
/// past that are hashed on every call. Copies of a family share one memo.
class BloomHashFamily {
 public:
  /// The memo holds at most this many positions (4 MiB), that is
  /// kMemoPositions / num_hashes items.
  static constexpr size_t kMemoPositions = size_t{1} << 20;

  /// The positions of one item: a view of the memo, or, for an item past
  /// it, a copy of its own. Move-only so that the view can never outlive
  /// the copy.
  class ItemPositions {
   public:
    explicit ItemPositions(std::span<const uint32_t> memo) : view_(memo) {}
    explicit ItemPositions(std::vector<uint32_t> own)
        : own_(std::move(own)), view_(own_) {}
    ItemPositions(ItemPositions&&) = default;
    ItemPositions& operator=(ItemPositions&&) = default;

    const uint32_t* begin() const { return view_.data(); }
    const uint32_t* end() const { return view_.data() + view_.size(); }
    size_t size() const { return view_.size(); }
    std::vector<uint32_t> ToVector() const { return {begin(), end()}; }

    friend bool operator==(const ItemPositions& a, const ItemPositions& b) {
      return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }

   private:
    std::vector<uint32_t> own_;  // empty for a memo view
    std::span<const uint32_t> view_;
  };

  /// Validates the parameters and constructs the family.
  /// Fails if num_bits == 0 or num_hashes == 0.
  static Result<BloomHashFamily> Create(uint32_t num_bits, uint32_t num_hashes,
                                        HashKind kind, uint64_t seed = 0);

  uint32_t num_bits() const { return num_bits_; }
  uint32_t num_hashes() const { return num_hashes_; }
  HashKind kind() const { return kind_; }
  uint64_t seed() const { return seed_; }

  /// The `num_hashes` positions of `item`, each in [0, num_bits).
  ItemPositions Positions(ItemId item) const;

  /// Number of items with memoized positions (diagnostics).
  size_t cached_items() const {
    return memo_->filled.load(std::memory_order_relaxed);
  }

 private:
  /// One published memo table: positions of items [0, capacity), entry i
  /// valid once ready[i] is set (release, after its positions are written).
  struct Table {
    explicit Table(size_t capacity, uint32_t num_hashes);
    size_t capacity;
    std::unique_ptr<std::atomic<bool>[]> ready;
    std::unique_ptr<uint32_t[]> positions;  // capacity * num_hashes
  };

  struct Memo {
    std::atomic<const Table*> current{nullptr};
    std::atomic<size_t> filled{0};
    std::mutex mu;  // serializes fills and growth
    std::vector<std::unique_ptr<Table>> tables;  // every table published
  };

  BloomHashFamily(uint32_t num_bits, uint32_t num_hashes, HashKind kind,
                  uint64_t seed)
      : num_bits_(num_bits),
        num_hashes_(num_hashes),
        kind_(kind),
        seed_(seed),
        memo_(std::make_shared<Memo>()) {}

  /// Fills (and first grows the table to hold) `item`'s memo entry, under
  /// memo_->mu, and returns the table that holds it.
  const Table& FillMemo(ItemId item) const;

  /// Computes positions without consulting the memo.
  void ComputePositions(ItemId item, std::vector<uint32_t>* out) const;
  void ComputeMd5Positions(const std::string& name,
                           std::vector<uint32_t>* out) const;
  void ComputeMultiplyShiftPositions(ItemId item,
                                     std::vector<uint32_t>* out) const;

  uint32_t num_bits_;
  uint32_t num_hashes_;
  HashKind kind_;
  uint64_t seed_;
  std::shared_ptr<Memo> memo_;
};

}  // namespace bbsmine

#endif  // BBSMINE_CORE_BLOOM_HASH_H_
