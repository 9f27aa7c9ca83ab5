#include "core/refine.h"

#include <algorithm>
#include <unordered_map>

#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace bbsmine {

namespace {

/// Approximate resident bytes of one candidate during SequentialScan:
/// itemset data + counter + bookkeeping.
uint64_t CandidateBytes(const Candidate& candidate) {
  return 32 + 4 * static_cast<uint64_t>(candidate.items.size());
}

/// Counts, for every candidate in [begin, end), its occurrences among the
/// transactions at positions [first_txn, last_txn). `present` is a caller-
/// provided scratch array of dense.size() zeros (left zeroed on return).
void CountBatchOverRange(
    const TransactionDatabase& db,
    const std::unordered_map<ItemId, uint32_t>& dense,
    const std::vector<std::vector<uint32_t>>& dense_items, size_t begin,
    size_t end, size_t first_txn, size_t last_txn,
    std::vector<uint8_t>* present, std::vector<uint64_t>* counts) {
  std::vector<uint32_t> touched;
  for (size_t t = first_txn; t < last_txn; ++t) {
    const Transaction& txn = db.At(t);
    touched.clear();
    for (ItemId item : txn.items) {
      auto it = dense.find(item);
      if (it != dense.end()) {
        (*present)[it->second] = 1;
        touched.push_back(it->second);
      }
    }
    for (size_t c = begin; c < end; ++c) {
      bool contained = true;
      for (uint32_t d : dense_items[c]) {
        if (!(*present)[d]) {
          contained = false;
          break;
        }
      }
      if (contained) ++(*counts)[c - begin];
    }
    for (uint32_t d : touched) (*present)[d] = 0;
  }
}

}  // namespace

std::vector<Pattern> RefineSequentialScan(
    const TransactionDatabase& db, const std::vector<Candidate>& candidates,
    uint64_t tau, uint64_t memory_budget_bytes, MineStats* stats,
    size_t num_threads, obs::Tracer* tracer) {
  std::vector<Pattern> frequent;
  if (candidates.empty()) return frequent;

  // Dense remapping of every item mentioned by any candidate, so that the
  // per-transaction membership test is an array lookup.
  std::unordered_map<ItemId, uint32_t> dense;
  std::vector<std::vector<uint32_t>> dense_items(candidates.size());
  for (size_t c = 0; c < candidates.size(); ++c) {
    dense_items[c].reserve(candidates[c].items.size());
    for (ItemId item : candidates[c].items) {
      auto [it, _] = dense.emplace(item, static_cast<uint32_t>(dense.size()));
      dense_items[c].push_back(it->second);
    }
  }

  size_t threads = std::min(ResolveThreads(num_threads), db.size());
  if (threads == 0) threads = 1;

  size_t begin = 0;
  while (begin < candidates.size()) {
    // Fill one memory batch.
    size_t end = begin;
    uint64_t used = 0;
    while (end < candidates.size()) {
      uint64_t bytes = CandidateBytes(candidates[end]);
      if (memory_budget_bytes != 0 && end > begin &&
          used + bytes > memory_budget_bytes) {
        break;
      }
      used += bytes;
      ++end;
    }

    // One sequential pass over the database per batch, regardless of the
    // thread count (parallel workers split the same pass, they don't repeat
    // it — the I/O charge must match).
    obs::TraceSpan span(tracer, obs::kTraceRefine, "refine.batch");
    span.AddArg("candidates", end - begin);
    std::vector<uint64_t> counts(end - begin, 0);
    if (stats != nullptr) {
      ++stats->db_scans;
      db.ChargeFullScan(&stats->io);
    }
    if (threads <= 1) {
      Stopwatch cpu;
      std::vector<uint8_t> present(dense.size(), 0);
      CountBatchOverRange(db, dense, dense_items, begin, end, 0, db.size(),
                          &present, &counts);
      if (stats != nullptr) stats->refine_cpu_seconds += cpu.ElapsedSeconds();
    } else {
      // Disjoint transaction ranges; per-thread counts summed element-wise
      // afterwards (addition commutes, so the totals are schedule-
      // independent and identical to the serial scan).
      std::vector<std::vector<uint64_t>> chunk_counts(
          threads, std::vector<uint64_t>(end - begin, 0));
      std::vector<double> chunk_cpu(threads, 0.0);
      size_t per_chunk = (db.size() + threads - 1) / threads;
      uint64_t queue_depth = 0;
      ParallelFor(
          threads, threads,
          [&](size_t chunk) {
            size_t first_txn = chunk * per_chunk;
            size_t last_txn = std::min(db.size(), first_txn + per_chunk);
            if (first_txn >= last_txn) return;
            Stopwatch cpu;
            std::vector<uint8_t> present(dense.size(), 0);
            CountBatchOverRange(db, dense, dense_items, begin, end, first_txn,
                                last_txn, &present, &chunk_counts[chunk]);
            chunk_cpu[chunk] = cpu.ElapsedSeconds();
          },
          &queue_depth);
      for (const std::vector<uint64_t>& chunk : chunk_counts) {
        for (size_t c = 0; c < counts.size(); ++c) counts[c] += chunk[c];
      }
      if (stats != nullptr) {
        for (double s : chunk_cpu) stats->refine_cpu_seconds += s;
        stats->max_queue_depth = std::max(stats->max_queue_depth, queue_depth);
      }
    }

    for (size_t c = begin; c < end; ++c) {
      if (counts[c - begin] >= tau) {
        frequent.push_back(
            Pattern{candidates[c].items, counts[c - begin], SupportKind::kExact});
      } else if (stats != nullptr) {
        ++stats->false_drops;
        stats->false_drops_by_depth.Add(candidates[c].items.size());
      }
    }
    begin = end;
  }
  return frequent;
}

namespace {

/// Probes one transaction position, charging I/O through the cache model
/// when present. Returns whether the transaction contains `items`.
bool ProbeOne(const TransactionDatabase& db, const Itemset& items,
              size_t position, PageCache* cache, MineStats* stats) {
  if (stats != nullptr) ++stats->probed_transactions;
  IoStats* io = stats != nullptr ? &stats->io : nullptr;
  const Transaction* txn;
  if (cache != nullptr) {
    const TidIndex& index = db.tid_index();
    uint32_t block_size = db.block_size();
    // When the pool can hold the whole file, first-touch misses amount to
    // loading the file once; probe-heavy access then costs one sequential
    // sweep, not a seek per block. With a smaller pool, re-misses are
    // genuine seeks.
    bool pool_covers_db = cache->whole_file();
    uint64_t first_block = index.BlockOf(position, block_size);
    uint64_t span = index.BlockSpan(position, block_size);
    for (uint64_t b = 0; b < span; ++b) {
      cache->Access(first_block + b, /*sequential=*/pool_covers_db, io);
    }
    txn = &db.At(position);
  } else {
    txn = &db.Probe(position, io);
  }
  return IsSubsetOf(items, txn->items);
}

}  // namespace

uint64_t ProbeCount(const TransactionDatabase& db, const Itemset& items,
                    const TidSet& result, PageCache* cache, MineStats* stats,
                    std::vector<uint32_t>* matching_tids) {
  if (matching_tids != nullptr) matching_tids->clear();
  uint64_t count = 0;
  auto visit = [&](uint32_t position) {
    if (ProbeOne(db, items, position, cache, stats)) {
      ++count;
      if (matching_tids != nullptr) matching_tids->push_back(position);
    }
  };
  if (result.sparse()) {
    for (uint32_t position : result.tids()) visit(position);
  } else {
    for (size_t p = result.dense().FindNext(0); p != BitVector::npos;
         p = result.dense().FindNext(p + 1)) {
      visit(static_cast<uint32_t>(p));
    }
  }
  return count;
}

uint64_t ProbeCount(const TransactionDatabase& db, const Itemset& items,
                    const BitVector& result, PageCache* cache,
                    MineStats* stats, BitVector* matching) {
  uint64_t count = 0;
  if (matching != nullptr) {
    matching->Resize(result.size());
    matching->Clear();
  }
  for (size_t position = result.FindNext(0); position != BitVector::npos;
       position = result.FindNext(position + 1)) {
    if (ProbeOne(db, items, position, cache, stats)) {
      ++count;
      if (matching != nullptr) matching->Set(position);
    }
  }
  return count;
}

}  // namespace bbsmine
