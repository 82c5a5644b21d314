/**
 * @file
 * The sharded, batch-first runtime decision loop and DecisionStream,
 * the one engine every certified accelerate/precise decision (paper
 * Fig. 2's runtime) goes through: offline evaluation, served models,
 * the runtime bench and the drift drills. A stream decides each trace
 * in two levels:
 *
 *  - **Shards.** The trace's invocations split into N deterministic
 *    contiguous shards (ShardPlan). Shard boundaries are a pure
 *    function of (trace length, shard count) — never of thread
 *    count — so the partition itself is part of the experiment
 *    configuration, not of the machine it ran on. Shards execute via
 *    parallelFor; MITHRA_THREADS only changes which worker runs which
 *    shard, never what any shard computes.
 *  - **Blocks.** Inside a shard, decisions are produced by
 *    Classifier::decideBatch() over fixed-size blocks, which lets
 *    table designs use their SIMD quantize/hash kernels instead of a
 *    per-row virtual call. A serial per-shard accounting pass then
 *    applies the watchdog, oracle false-decision counting and the
 *    online-sampling schedule in ascending index order.
 *
 * Determinism contract (see DESIGN.md §12):
 *
 *  - With the watchdog off, the evaluation is bitwise identical for
 *    ANY shard count and ANY thread count: decisions are a pure
 *    function of (input, index) between dataset boundaries (see the
 *    sharded-runtime contract in classifier.hh), per-shard tallies are
 *    integers folded in slot order, and online observations are
 *    deferred to the dataset boundary where they are applied serially
 *    in ascending stream order.
 *  - With the watchdog on, each shard owns a watchdog whose state
 *    machine consumes that shard's subsequence, so results are bitwise
 *    identical across thread counts at a FIXED shard count; changing
 *    MITHRA_SHARDS changes which invocations each watchdog sees and is
 *    a semantic configuration change (it joins the experiment cache
 *    key).
 *
 * Evidence merging: with N > 1 shards each watchdog runs its
 * sequential envelope at confidence 1 - alpha/N
 * (stats::splitConfidence) on a shardSeed-derived audit schedule; a
 * one-shard stream runs its watchdog with the caller's options
 * verbatim. By the union bound, the intersection of the N per-shard
 * envelopes is a valid envelope on the common violation rate at the
 * original confidence 1 - alpha — this is the statistical price of
 * sharding, and it is predictable (the tests bound the gap). The
 * merge is a slot-ordered reduction: per-shard snapshots in shard
 * order, the combined state is the worst per-shard state, and the
 * envelope is the intersection — all independent of thread
 * interleaving.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/classifier.hh"
#include "core/watchdog/watchdog.hh"
#include "stats/sequential_bound.hh"

namespace mithra::core
{

/**
 * Deterministic contiguous partition of one dataset's invocation
 * stream: shard k covers [begin(k), end(k)), sizes differ by at most
 * one (the first total % shards shards take the extra invocation).
 */
struct ShardPlan
{
    std::size_t total = 0;
    std::size_t shards = 1;

    ShardPlan(std::size_t totalInvocations, std::size_t shardCount);

    /** First invocation index of shard k (begin(shards) == total). */
    std::size_t begin(std::size_t k) const;
    /** One past the last invocation index of shard k. */
    std::size_t end(std::size_t k) const { return begin(k + 1); }
    /** Invocations in shard k. */
    std::size_t size(std::size_t k) const { return end(k) - begin(k); }
};

/**
 * The shard count evaluation uses when EvaluationOptions::shards is 0:
 * the MITHRA_SHARDS environment variable (an integer in [1, 1024]),
 * falling back to the parallel substrate's thread count.
 */
std::size_t defaultShardCount();

/**
 * Per-shard audit-schedule seed: decorrelates the shards' watchdog
 * schedules while keeping each a pure function of (base seed, shard).
 */
std::uint64_t shardSeed(std::uint64_t baseSeed, std::size_t shard);

/** What one shard counted while deciding its index range. */
struct ShardTally
{
    std::size_t invocations = 0;
    /** Invocations finally routed to the accelerator. */
    std::size_t accelerated = 0;
    /** Precise decisions the oracle would have accelerated. */
    std::size_t falsePositives = 0;
    /** Accelerated decisions the oracle would have run precisely. */
    std::size_t falseNegatives = 0;
    /** Watchdog audits that re-ran the precise function. */
    std::size_t auditPreciseRuns = 0;
    /** DEGRADED shadow audits that ran the gated accelerator. */
    std::size_t shadowAccelRuns = 0;
    /**
     * Dataset positions picked by the online-sampling schedule, in
     * ascending order. The caller replays them through
     * Classifier::observe() at the dataset boundary — shard order then
     * ascending position reproduces the serial observation order.
     */
    std::vector<std::size_t> sampledIndices;
};

/** Knobs of one runShardedDecisions() pass over one dataset. */
struct DecisionLoopOptions
{
    /** Oracle threshold for false-decision accounting. */
    double oracleThreshold = 0.0;
    /** Fraction of invocations whose true error is sampled online. */
    double onlineSampleRate = 0.0;
    /** Seed of the counter-based online-sampling schedule. */
    std::uint64_t sampleSeed = 0;
    /**
     * Global stream position of this dataset's first invocation: the
     * sampling schedule is indexed by streamOffset + i so it is a pure
     * function of the whole validation stream, independent of how
     * datasets are partitioned into shards.
     */
    std::uint64_t streamOffset = 0;
    /** Invocations per decideBatch() block inside a shard. */
    std::size_t blockSize = 512;
};

/**
 * Decide one dataset's invocations, sharded and batch-first.
 *
 * @param classifier the design under evaluation; beginDataset() must
 *                   already have been called for this trace
 * @param trace      the dataset's invocation trace (with attached
 *                   accelerator outputs)
 * @param plan       the shard partition of [0, trace.count())
 * @param dogs       per-shard watchdogs — either empty (watchdog off)
 *                   or exactly plan.shards instances; dogs[k] consumes
 *                   shard k's subsequence in ascending order
 * @param options    loop knobs (see DecisionLoopOptions)
 * @param decisions  out: trace.count() entries, 1 = accelerate
 *                   (recompose()'s convention), 0 = precise
 * @param tallies    out: resized to plan.shards, slot k holds shard
 *                   k's counts
 */
void runShardedDecisions(Classifier &classifier,
                         const axbench::InvocationTrace &trace,
                         const ShardPlan &plan,
                         std::vector<watchdog::Watchdog> &dogs,
                         const DecisionLoopOptions &options,
                         std::uint8_t *decisions,
                         std::vector<ShardTally> &tallies);

/** One shard's totals over everything its stream decided. */
struct ShardReport
{
    std::size_t invocations = 0;
    std::size_t accelerated = 0;
    std::size_t falsePositives = 0;
    std::size_t falseNegatives = 0;
    /** Latest watchdog snapshot; meaningful only when the parent
     *  ShardedEvaluation has watchdogEnabled set. */
    watchdog::Snapshot watchdog{};
};

/** The sharded engine's report surface for one decision stream. */
struct ShardedEvaluation
{
    /** Shards each trace was split into. */
    std::size_t shardCount = 1;
    bool watchdogEnabled = false;
    /**
     * Envelope confidence each shard's watchdog ran at: the split
     * confidence (stats::splitConfidence), i.e. alpha / N per shard
     * so the merged envelope holds at the full confidence.
     */
    double shardConfidence = 0.0;
    /** Slot k = shard k, in shard order. */
    std::vector<ShardReport> shards;
    /** Worst per-shard watchdog state (severity Healthy < Recovered
     *  < Suspect < Degraded). */
    watchdog::State combinedState = watchdog::State::Healthy;
    /**
     * Intersection of the per-shard sequential envelopes on the
     * violation rate — valid at the full confidence by the union
     * bound (assuming the shards sample one common rate).
     */
    stats::ProportionEnvelope violationEnvelope{};

    /** Slot-ordered sum of the shards' counts (watchdog left
     *  default). */
    ShardReport totals() const;
};

/**
 * Merge per-shard watchdog evidence into `out`: per-shard snapshots
 * into out.shards[k].watchdog, the worst combined state and the
 * envelope intersection. `confidence` is the FULL (unsplit)
 * confidence; out.shards must already have dogs.size() slots.
 * Deterministic: every reduction runs in shard-slot order.
 */
void mergeShardEvidence(const std::vector<watchdog::Watchdog> &dogs,
                        double confidence, ShardedEvaluation &out);

/**
 * What one DecisionStream::decide() call counted: the shards' tallies
 * summed in slot order (sampledIndices stays ascending), plus the
 * watchdog snapshot deltas over the call (0 with the watchdog off).
 */
struct DecisionTotals : ShardTally
{
    std::size_t audits = 0;
    std::size_t violations = 0;
    std::size_t forcedPrecise = 0;
};

/**
 * One certified decision stream: the shard count, one watchdog per
 * shard (none when the watchdog is off), the running stream position
 * and the cumulative per-shard reports. Successive decide() calls
 * continue one deployment stream — watchdog state and the sampling
 * schedule persist across them. Not thread-safe: callers serialize
 * decide() (the shards inside one call run in parallel).
 */
class DecisionStream
{
  public:
    /**
     * @param shards   contiguous shards per trace (>= 1)
     * @param loop     loop knobs; loop.streamOffset is the stream's
     *                 starting position, and loop.oracleThreshold is
     *                 also the watchdogs' violation threshold
     * @param watchdog watchdog knobs; no watchdogs unless enabled.
     *                 One shard runs them verbatim; N shards run
     *                 each at the split confidence with a
     *                 shardSeed-derived schedule seed.
     */
    DecisionStream(std::size_t shards, const DecisionLoopOptions &loop,
                   const watchdog::WatchdogOptions &watchdog);

    /**
     * Decide `trace` (beginDataset() included) through
     * runShardedDecisions. `decisions` is resized to trace.count()
     * and filled with routes, 1 = accelerate.
     */
    DecisionTotals decide(Classifier &classifier,
                          const axbench::InvocationTrace &trace,
                          std::vector<std::uint8_t> &decisions);

    /** The cumulative per-shard reports plus, with the watchdog on,
     *  the merged evidence (mergeShardEvidence) as of now. */
    ShardedEvaluation evaluation() const;

  private:
    DecisionLoopOptions loop;
    double confidence;
    std::vector<watchdog::Watchdog> dogs;
    ShardedEvaluation report;
    std::vector<ShardTally> tallies;
};

} // namespace mithra::core
