#include "storage/transaction_db.h"

#include <algorithm>
#include <cstring>

#include "util/crc32.h"
#include "util/file_io.h"

namespace bbsmine {

namespace {

constexpr char kMagic[8] = {'B', 'B', 'S', 'T', 'X', 'D', 'B', '1'};
constexpr uint32_t kFormatVersion = 1;

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

bool ReadU32(const std::string& in, size_t* pos, uint32_t* v) {
  if (*pos + 4 > in.size()) return false;
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(static_cast<uint8_t>(in[*pos + i])) << (8 * i);
  }
  *pos += 4;
  *v = out;
  return true;
}

bool ReadU64(const std::string& in, size_t* pos, uint64_t* v) {
  if (*pos + 8 > in.size()) return false;
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(static_cast<uint8_t>(in[*pos + i])) << (8 * i);
  }
  *pos += 8;
  *v = out;
  return true;
}

}  // namespace

void TidIndex::Append(uint64_t record_bytes) {
  offsets_.push_back(total_bytes_);
  total_bytes_ += record_bytes;
}

uint64_t TidIndex::BlockSpan(size_t position, uint32_t block_size) const {
  uint64_t first = offsets_[position] / block_size;
  uint64_t last_byte = offsets_[position] + SizeOf(position) - 1;
  return last_byte / block_size - first + 1;
}

Tid TransactionDatabase::Append(Itemset items) {
  Tid tid = transactions_.empty() ? 0 : transactions_.back().tid + 1;
  AppendTransaction(Transaction{tid, std::move(items)});
  return tid;
}

void TransactionDatabase::AppendTransaction(Transaction txn) {
  Canonicalize(&txn.items);
  if (!txn.items.empty()) {
    item_universe_ = std::max(item_universe_, txn.items.back() + 1);
  }
  tid_index_.Append(RecordBytes(txn));
  transactions_.push_back(std::move(txn));
}

Itemset TransactionDatabase::DistinctItems() const {
  Itemset all;
  for (const Transaction& txn : transactions_) {
    all.insert(all.end(), txn.items.begin(), txn.items.end());
  }
  Canonicalize(&all);
  return all;
}

void TransactionDatabase::ForEach(
    IoStats* io, const std::function<void(const Transaction&)>& fn) const {
  ChargeFullScan(io);
  for (const Transaction& txn : transactions_) fn(txn);
}

const Transaction& TransactionDatabase::Probe(size_t position,
                                              IoStats* io) const {
  if (io != nullptr) {
    io->random_reads += tid_index_.BlockSpan(position, block_size_);
  }
  return transactions_[position];
}

void TransactionDatabase::ChargeFullScan(IoStats* io) const {
  if (io != nullptr) {
    io->sequential_reads += BlocksFor(SerializedBytes(), block_size_);
  }
}

Status TransactionDatabase::Save(const std::string& path) const {
  std::string payload;
  payload.reserve(SerializedBytes() + 64);
  AppendU64(&payload, transactions_.size());
  AppendU32(&payload, item_universe_);
  AppendU32(&payload, block_size_);
  for (const Transaction& txn : transactions_) {
    AppendU64(&payload, txn.tid);
    AppendU32(&payload, static_cast<uint32_t>(txn.items.size()));
    for (ItemId item : txn.items) AppendU32(&payload, item);
  }

  std::string file;
  file.append(kMagic, sizeof(kMagic));
  AppendU32(&file, kFormatVersion);
  AppendU32(&file, Crc32(payload));
  file += payload;

  return WriteBinaryFile(path, file);
}

Result<TransactionDatabase> TransactionDatabase::Load(
    const std::string& path) {
  Result<std::string> contents = ReadBinaryFile(path);
  if (!contents.ok()) return contents.status();
  const std::string& file = *contents;

  if (file.size() < sizeof(kMagic) + 8 ||
      std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad magic in " + path);
  }
  size_t pos = sizeof(kMagic);
  uint32_t version = 0;
  uint32_t expected_crc = 0;
  if (!ReadU32(file, &pos, &version) || !ReadU32(file, &pos, &expected_crc)) {
    return Status::Corruption("truncated header in " + path);
  }
  if (version != kFormatVersion) {
    return Status::Corruption("unsupported format version " +
                              std::to_string(version));
  }
  std::string_view payload(file.data() + pos, file.size() - pos);
  if (Crc32(payload) != expected_crc) {
    return Status::Corruption("checksum mismatch in " + path);
  }

  TransactionDatabase db;
  uint64_t count = 0;
  uint32_t universe = 0;
  uint32_t block_size = 0;
  if (!ReadU64(file, &pos, &count) || !ReadU32(file, &pos, &universe) ||
      !ReadU32(file, &pos, &block_size)) {
    return Status::Corruption("truncated payload in " + path);
  }
  if (block_size == 0) {
    return Status::Corruption("zero block size in " + path);
  }
  db.block_size_ = block_size;
  for (uint64_t i = 0; i < count; ++i) {
    Transaction txn;
    uint64_t tid = 0;
    uint32_t num_items = 0;
    if (!ReadU64(file, &pos, &tid) || !ReadU32(file, &pos, &num_items)) {
      return Status::Corruption("truncated record in " + path);
    }
    txn.tid = tid;
    txn.items.reserve(num_items);
    for (uint32_t j = 0; j < num_items; ++j) {
      uint32_t item = 0;
      if (!ReadU32(file, &pos, &item)) {
        return Status::Corruption("truncated record items in " + path);
      }
      txn.items.push_back(item);
    }
    db.AppendTransaction(std::move(txn));
  }
  if (db.item_universe_ < universe) db.item_universe_ = universe;
  return db;
}

}  // namespace bbsmine
