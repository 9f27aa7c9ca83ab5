#include "core/miner.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <utility>

#include "core/dual_filter.h"
#include "core/filter_engine.h"
#include "core/refine.h"
#include "core/single_filter.h"
#include "obs/trace.h"
#include "storage/page_cache.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace bbsmine {

namespace {

/// Shared per-run context.
struct RunContext {
  const TransactionDatabase& db;
  const BbsIndex& bbs;       // the full (on-disk) index
  const BbsIndex* filter_index;  // the index the filter runs on (may be folded)
  const MineConfig& config;
  uint64_t tau;
  PageCache* cache;          // buffer pool model for probes (may be null)
  size_t num_threads;        // resolved worker count (>= 1)
  MiningResult* result;
};

/// Integrated filter+probe recursion shared by SFP and DFP.
///
/// For SFP every accepted candidate is probed immediately; for DFP only the
/// flag-0 (uncertain) candidates are. In both schemes the recursion only
/// descends into candidates known to be truly frequent (or, for DFP flag 2,
/// guaranteed frequent), which prevents false drops from triggering further
/// false drops.
///
/// As in the pure filter walks, the recursion splits at the root: subtree i
/// depends only on the read-only root table (and the thread-safe database /
/// page cache), so subtrees run on independent threads, each emitting into
/// its own pattern buffer; buffers are concatenated in root order, which
/// reproduces the serial emission exactly. Probes return exact counts, so
/// the pattern set and supports are schedule-independent.
class IntegratedProbeWalk {
 public:
  struct Node {
    size_t idx = 0;
    uint64_t est = 0;
    CheckCountResult check;  // only meaningful for DFP
    TidSet set;
  };

  IntegratedProbeWalk(RunContext* ctx, const FilterEngine& engine, bool dual,
                      MineStats* stats, std::vector<Pattern>* out)
      : ctx_(ctx), engine_(engine), dual_(dual), stats_(stats), out_(out) {}

  /// Roots: every estimated-frequent singleton (minus, for DFP, the
  /// exactly-known infrequent ones).
  static std::vector<Node> BuildRoots(const FilterEngine& engine, bool dual) {
    const auto& singles = engine.singletons();
    ParentState root;
    std::vector<Node> roots;
    roots.reserve(singles.size());
    for (size_t idx = 0; idx < singles.size(); ++idx) {
      const FilterEngine::Singleton& single = singles[idx];
      Node node;
      node.idx = idx;
      node.est = single.est;
      if (dual) {
        node.check = CheckCount(single.exact, single.est, root, single.est,
                                engine.tau());
        if (node.check.flag < 0) continue;  // exactly-known infrequent
      }
      node.set = engine.RootSet(idx);
      roots.push_back(std::move(node));
    }
    return roots;
  }

  void RunSubtree(const std::vector<Node>& roots, size_t i) {
    // Local copy: tighten-after-probe may shrink the node's TidSet, and the
    // shared root table must stay read-only across threads.
    Node node = roots[i];
    Visit(&node, roots, i);
  }

  double probe_seconds() const { return probe_seconds_; }

 private:
  void Visit(Node* node, const std::vector<Node>& siblings, size_t i) {
    const auto& singles = engine_.singletons();
    current_.push_back(singles[node->idx].item);
    canonical_ = current_;
    Canonicalize(&canonical_);
    ++stats_->candidates;
    stats_->candidates_by_depth.Add(current_.size());

    ParentState state;
    state.est = node->est;
    state.empty = false;
    bool keep = false;

    if (dual_ && node->check.flag > 0) {
      ++stats_->certified;
      out_->push_back(
          Pattern{canonical_, node->check.count,
                  node->check.flag == 1 ? SupportKind::kExact
                                        : SupportKind::kGuaranteedEstimate});
      state.flag = node->check.flag;
      state.count = node->check.count;
      keep = true;
    } else {
      keep = ProbeAndEmit(&node->set, &state);
    }

    if (keep) {
      std::vector<Node> children;
      engine_.ExtendChildren(
          node->set, current_.size(), siblings, i, &counters_, stats_,
          [&](size_t idx, uint64_t est, TidSet set) {
            const FilterEngine::Singleton& single = singles[idx];
            CheckCountResult check;
            if (dual_) {
              check = CheckCount(single.exact, single.est, state, est,
                                 ctx_->tau);
            }
            children.push_back({idx, est, check, std::move(set)});
          });
      for (size_t j = 0; j < children.size(); ++j) {
        Visit(&children[j], children, j);
      }
    }
    current_.pop_back();
  }

  /// Probes the database for the current itemset. On success emits the
  /// pattern with its exact support, fills `next` (flag 1), and returns
  /// true. On failure records a false drop and returns false.
  bool ProbeAndEmit(TidSet* extended, ParentState* next) {
    Stopwatch probe_timer;
    std::vector<uint32_t> matching;
    std::vector<uint32_t>* matching_out =
        ctx_->config.tighten_after_probe ? &matching : nullptr;
    uint64_t actual;
    {
      obs::TraceSpan span(ctx_->config.tracer, obs::kTraceProbe, "probe");
      actual = ProbeCount(ctx_->db, canonical_, *extended, ctx_->cache,
                          stats_, matching_out);
      span.AddArg("items", canonical_.size());
      span.AddArg("support", actual);
    }
    probe_seconds_ += probe_timer.ElapsedSeconds();
    if (actual < ctx_->tau) {
      ++stats_->false_drops;
      stats_->false_drops_by_depth.Add(canonical_.size());
      return false;
    }
    out_->push_back(Pattern{canonical_, actual, SupportKind::kExact});
    next->flag = 1;
    next->count = actual;
    if (ctx_->config.tighten_after_probe) {
      extended->AssignSparse(std::move(matching));
      // The tightened set makes the estimate exact for descendants.
      next->est = actual;
    }
    return true;
  }

  RunContext* ctx_;
  const FilterEngine& engine_;
  bool dual_;
  MineStats* stats_;
  std::vector<Pattern>* out_;
  Itemset current_;
  Itemset canonical_;
  std::vector<uint32_t> counters_;  // occurrence-delivery scratch
  double probe_seconds_ = 0;
};

/// Runs the integrated walk over all root subtrees (in parallel when the
/// context allows), appending the patterns to ctx->result in root order.
/// Each subtree's busy time lands in its shard's filter_cpu_seconds, minus
/// the probe time, which lands in refine_cpu_seconds (the integrated
/// schemes refine inside the filter walk).
void RunIntegratedProbeWalk(RunContext* ctx, const FilterEngine& engine,
                            bool dual, MineStats* stats) {
  std::vector<IntegratedProbeWalk::Node> roots =
      IntegratedProbeWalk::BuildRoots(engine, dual);

  std::vector<std::vector<Pattern>> per_root(roots.size());
  std::vector<MineStats> per_root_stats(roots.size());
  uint64_t queue_depth = 0;
  ParallelFor(
      ctx->num_threads, roots.size(),
      [&](size_t i) {
        obs::TraceSpan span(ctx->config.tracer, obs::kTraceFilter,
                            "filter.subtree");
        Stopwatch cpu;
        IntegratedProbeWalk walk(ctx, engine, dual, &per_root_stats[i],
                                 &per_root[i]);
        walk.RunSubtree(roots, i);
        double probe_seconds = walk.probe_seconds();
        per_root_stats[i].refine_cpu_seconds = probe_seconds;
        per_root_stats[i].filter_cpu_seconds =
            std::max(0.0, cpu.ElapsedSeconds() - probe_seconds);
        span.AddArg("root", i);
        span.AddArg("candidates", per_root_stats[i].candidates);
      },
      &queue_depth);

  for (size_t i = 0; i < roots.size(); ++i) {
    for (Pattern& pattern : per_root[i]) {
      ctx->result->patterns.push_back(std::move(pattern));
    }
    *stats += per_root_stats[i];
  }
  stats->max_queue_depth = std::max(stats->max_queue_depth, queue_depth);
}

/// Phase-3 postprocessing of the adaptive variant: re-estimates every
/// candidate on the full BBS in one streaming pass and drops the ones below
/// threshold. Returns the survivors with their (tighter) full-BBS estimates.
/// The per-candidate CountItemSet calls are independent and run in parallel;
/// survivors keep candidate order, so the output is schedule-independent.
std::vector<Candidate> PostprocessOnFullBbs(const BbsIndex& bbs,
                                            std::vector<Candidate> candidates,
                                            uint64_t tau, uint32_t block_size,
                                            MineStats* stats,
                                            size_t num_threads,
                                            obs::Tracer* tracer) {
  obs::TraceSpan span(tracer, obs::kTracePhase, "postprocess");
  span.AddArg("candidates", candidates.size());
  bbs.ChargeFullScan(&stats->io, block_size);  // one pass over the full BBS
  std::vector<size_t> estimates(candidates.size(), 0);
  std::vector<double> cpu(candidates.size(), 0.0);
  ParallelFor(
      num_threads, candidates.size(),
      [&](size_t i) {
        obs::TraceSpan kernel(tracer, obs::kTraceKernel, "bbs.count_full");
        Stopwatch sw;
        estimates[i] = bbs.CountItemSet(candidates[i].items);
        cpu[i] = sw.ElapsedSeconds();
      },
      &stats->max_queue_depth);
  stats->extension_tests += candidates.size();
  for (double s : cpu) stats->filter_cpu_seconds += s;

  std::vector<Candidate> survivors;
  survivors.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (estimates[i] >= tau) {
      candidates[i].est = estimates[i];
      survivors.push_back(std::move(candidates[i]));
    } else {
      stats->pruned_by_depth.Add(candidates[i].items.size());
    }
  }
  return survivors;
}

}  // namespace

MiningResult MineFrequentPatterns(const TransactionDatabase& db,
                                  const BbsIndex& bbs,
                                  const MineConfig& config,
                                  const Itemset& universe) {
  assert(bbs.num_transactions() == db.size() &&
         "the BBS must index exactly the database's transactions");
  Stopwatch total_timer;
  obs::TraceSpan mine_span(config.tracer, obs::kTracePhase, "mine");
  mine_span.AddArg("algorithm", AlgorithmName(config.algorithm));
  MiningResult result;
  MineStats& stats = result.stats;
  uint64_t tau = AbsoluteThreshold(config.min_support, db.size());
  size_t num_threads = ResolveThreads(config.num_threads);

  // --- Memory policy -------------------------------------------------------
  // Reading the BBS from storage costs one sequential pass regardless.
  bbs.ChargeFullScan(&stats.io, config.block_size);

  // Memory regimes:
  //  * resident    — the BBS and the database both fit: the integrated
  //    filter+probe recursions run, and probe first-touches cost one
  //    sequential load of the file;
  //  * constrained — the two-phase adaptive variant runs. The BBS is
  //    additionally folded into a MemBBS (Section 3.1) when it alone
  //    exceeds the budget.
  uint64_t budget = config.memory_budget_bytes;
  uint64_t db_blocks = BlocksFor(db.SerializedBytes(), config.block_size) + 1;
  bool resident =
      budget == 0 || budget >= bbs.SerializedBytes() + db.SerializedBytes();

  std::optional<BbsIndex> folded;
  const BbsIndex* filter_index = &bbs;
  if (!resident && bbs.SerializedBytes() > budget) {
    // Fold into a MemBBS using roughly 3/4 of the budget, leaving the rest
    // for the buffer pool.
    uint64_t slice_bytes = std::max<uint64_t>(1, bbs.SliceBytes());
    uint64_t target = (budget * 3 / 4) / slice_bytes;
    target = std::clamp<uint64_t>(target, 16, bbs.num_bits());
    folded = bbs.Fold(static_cast<uint32_t>(target));
    filter_index = &*folded;
  }

  uint64_t cache_blocks =
      resident ? db_blocks
               : std::max<uint64_t>(1, (budget / 4) / config.block_size);
  // Probes address the file in the database's own blocks; the pool runs
  // lock-free when it covers all of them.
  PageCache cache(std::min(cache_blocks, db_blocks),
                  BlocksFor(db.SerializedBytes(), db.block_size()));

  RunContext ctx{db,  bbs,    filter_index, config,
                 tau, &cache, num_threads,  &result};

  // --- Filtering (+ integrated probing for SFP/DFP) ------------------------
  Stopwatch filter_timer;
  FilterEngine engine(*filter_index, tau);
  engine.SetTracer(config.tracer);
  {
    // Prepare runs serially on the coordinating thread; its busy time
    // belongs to the filter phase's CPU total.
    Stopwatch prepare_timer;
    engine.Prepare(universe, &stats, config.rare_first_order);
    stats.filter_cpu_seconds += prepare_timer.ElapsedSeconds();
  }

  switch (config.algorithm) {
    case Algorithm::kSFS: {
      std::vector<Candidate> candidates;
      {
        obs::TraceSpan span(config.tracer, obs::kTracePhase, "filter.walk");
        candidates = RunSingleFilter(engine, &stats, num_threads);
      }
      if (folded.has_value()) {
        candidates = PostprocessOnFullBbs(bbs, std::move(candidates), tau,
                                          config.block_size, &stats,
                                          num_threads, config.tracer);
      }
      stats.filter_wall_seconds = filter_timer.ElapsedSeconds();
      Stopwatch refine_timer;
      {
        obs::TraceSpan span(config.tracer, obs::kTracePhase, "refine");
        result.patterns = RefineSequentialScan(db, candidates, tau, budget,
                                               &stats, num_threads,
                                               config.tracer);
      }
      stats.refine_wall_seconds = refine_timer.ElapsedSeconds();
      break;
    }
    case Algorithm::kDFS: {
      DualFilterOutput out;
      {
        obs::TraceSpan span(config.tracer, obs::kTracePhase, "filter.walk");
        out = RunDualFilter(engine, &stats, num_threads);
      }
      // Certified patterns go straight to the answer set.
      for (const DualCandidate& c : out.certain) {
        result.patterns.push_back(
            Pattern{c.items, c.count,
                    c.flag == 1 ? SupportKind::kExact
                                : SupportKind::kGuaranteedEstimate});
      }
      std::vector<Candidate> uncertain;
      uncertain.reserve(out.uncertain.size());
      for (DualCandidate& c : out.uncertain) {
        uncertain.push_back(Candidate{std::move(c.items), c.est});
      }
      if (folded.has_value()) {
        uncertain = PostprocessOnFullBbs(bbs, std::move(uncertain), tau,
                                         config.block_size, &stats,
                                         num_threads, config.tracer);
      }
      stats.filter_wall_seconds = filter_timer.ElapsedSeconds();
      Stopwatch refine_timer;
      std::vector<Pattern> verified;
      {
        obs::TraceSpan span(config.tracer, obs::kTracePhase, "refine");
        verified = RefineSequentialScan(db, uncertain, tau, budget, &stats,
                                        num_threads, config.tracer);
      }
      stats.refine_wall_seconds = refine_timer.ElapsedSeconds();
      result.patterns.insert(result.patterns.end(), verified.begin(),
                             verified.end());
      break;
    }
    case Algorithm::kSFP:
    case Algorithm::kDFP: {
      bool dual = config.algorithm == Algorithm::kDFP;
      if (resident) {
        // Memory-resident: the integrated filter+probe recursion. One
        // combined wall window, attributed to the filter phase (refine_wall
        // stays 0); the probe CPU arrives in refine_cpu_seconds through the
        // per-root shard merge.
        RunIntegratedProbeWalk(&ctx, engine, dual, &stats);
        stats.filter_wall_seconds = filter_timer.ElapsedSeconds();
        break;
      }
      // Adaptive three-phase variant: probing from MemBBS result vectors
      // would fetch every folded false drop from disk, so instead the
      // filter runs probe-free on the MemBBS, the postprocessing pass
      // re-estimates the survivors on the full BBS (one sequential stream),
      // and only then are the remaining candidates probed — with the tight
      // full-BBS result vectors.
      std::vector<Candidate> uncertain;
      {
        obs::TraceSpan span(config.tracer, obs::kTracePhase, "filter.walk");
        if (dual) {
          DualFilterOutput out = RunDualFilter(engine, &stats, num_threads);
          for (const DualCandidate& c : out.certain) {
            result.patterns.push_back(
                Pattern{c.items, c.count,
                        c.flag == 1 ? SupportKind::kExact
                                    : SupportKind::kGuaranteedEstimate});
          }
          uncertain.reserve(out.uncertain.size());
          for (DualCandidate& c : out.uncertain) {
            uncertain.push_back(Candidate{std::move(c.items), c.est});
          }
        } else {
          uncertain = RunSingleFilter(engine, &stats, num_threads);
        }
      }
      if (folded.has_value()) {
        uncertain = PostprocessOnFullBbs(bbs, std::move(uncertain), tau,
                                         config.block_size, &stats,
                                         num_threads, config.tracer);
      }
      stats.filter_wall_seconds = filter_timer.ElapsedSeconds();

      // Cost-based refinement choice: with a small buffer pool most probes
      // miss and pay a seek, so probing all survivors can exceed a few
      // sequential verification scans. Estimate both and take the cheaper.
      Stopwatch refine_timer;
      uint64_t expected_probes = 0;
      for (const Candidate& candidate : uncertain) {
        expected_probes += candidate.est;
      }
      uint64_t resident_blocks = cache.capacity();
      uint64_t expected_misses =
          resident_blocks >= db_blocks
              ? std::min<uint64_t>(expected_probes, db_blocks)
              : expected_probes;
      double probe_ms = static_cast<double>(expected_misses) *
                        config.io_params.random_block_ms;
      double scan_ms = static_cast<double>(db_blocks) *
                       config.io_params.sequential_block_ms;
      if (probe_ms <= scan_ms) {
        // Probe every survivor; candidates are independent, so they fan out
        // across threads, each with a private result vector and stats. The
        // merge below keeps candidate order, so the emitted patterns are
        // identical to the serial loop.
        std::vector<uint64_t> actual(uncertain.size(), 0);
        std::vector<MineStats> probe_stats(uncertain.size());
        ParallelFor(
            num_threads, uncertain.size(),
            [&](size_t i) {
              Stopwatch cpu;
              BitVector slice_result;
              // The re-estimate streams the candidate's slices from the full
              // BBS, so it is charged to the I/O model like any other
              // CountItemSet (phase 3 of the paper's cost accounting).
              {
                obs::TraceSpan kernel(config.tracer, obs::kTraceKernel,
                                      "bbs.count_full");
                bbs.CountItemSet(uncertain[i].items, &slice_result,
                                 &probe_stats[i].io);
              }
              {
                obs::TraceSpan span(config.tracer, obs::kTraceProbe, "probe");
                actual[i] = ProbeCount(db, uncertain[i].items, slice_result,
                                       &cache, &probe_stats[i]);
                span.AddArg("items", uncertain[i].items.size());
                span.AddArg("support", actual[i]);
              }
              probe_stats[i].refine_cpu_seconds = cpu.ElapsedSeconds();
            },
            &stats.max_queue_depth);
        for (size_t i = 0; i < uncertain.size(); ++i) {
          stats += probe_stats[i];
          if (actual[i] >= tau) {
            result.patterns.push_back(
                Pattern{uncertain[i].items, actual[i], SupportKind::kExact});
          } else {
            ++stats.false_drops;
            stats.false_drops_by_depth.Add(uncertain[i].items.size());
          }
        }
      } else {
        std::vector<Pattern> verified;
        {
          obs::TraceSpan span(config.tracer, obs::kTracePhase, "refine");
          verified = RefineSequentialScan(db, uncertain, tau, budget, &stats,
                                          num_threads, config.tracer);
        }
        result.patterns.insert(result.patterns.end(), verified.begin(),
                               verified.end());
      }
      stats.refine_wall_seconds = refine_timer.ElapsedSeconds();
      break;
    }
  }

  // The buffer pool's own counters are authoritative for the whole run;
  // copy (not merge) them into the stats so the report reads one source.
  PageCache::Counters cache_counters = cache.counters();
  stats.cache_hits = cache_counters.hits;
  stats.cache_misses = cache_counters.misses;
  stats.total_seconds = total_timer.ElapsedSeconds();
  return result;
}

MiningResult MineFrequentPatterns(const TransactionDatabase& db,
                                  const BbsIndex& bbs,
                                  const MineConfig& config) {
  Itemset universe(db.item_universe());
  for (ItemId i = 0; i < db.item_universe(); ++i) universe[i] = i;
  return MineFrequentPatterns(db, bbs, config, universe);
}

}  // namespace bbsmine
