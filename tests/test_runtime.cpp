/**
 * @file
 * Sharded runtime decision loop tests: shard-plan partition
 * properties, bitwise identity of DesignEvaluation aggregates across
 * MITHRA_SHARDS / MITHRA_THREADS settings (watchdog off), thread-count
 * identity at a fixed shard count (watchdog on), the deterministic
 * evidence merge, the predicted alpha-split gap of the merged
 * sequential bound, and DecisionStream against a hand-driven watchdog
 * walk and its own per-shard snapshots. tsan-labeled: the identity
 * tests drive the shard loop at 8 threads.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "core/pipeline.hh"
#include "core/runtime.hh"
#include "core/shard.hh"
#include "core/table_classifier.hh"
#include "stats/clopper_pearson.hh"
#include "stats/sequential_bound.hh"
#include "telemetry/stats.hh"

using namespace mithra;
using namespace mithra::core;

namespace
{

/** Small, fast pipeline configuration (mirrors test_integration). */
PipelineOptions
testOptions()
{
    PipelineOptions options;
    options.compileDatasetCount = 16;
    options.npuTrainSamples = 3000;
    options.classifierTuples = 20000;
    options.maxCalibrationRounds = 2;
    return options;
}

QualitySpec
testSpec()
{
    QualitySpec spec;
    spec.maxQualityLossPct = 5.0;
    spec.confidence = 0.95;
    spec.successRate = 0.75;
    return spec;
}

/** One compiled workload shared by every test in this binary. */
struct Env
{
    CompiledWorkload workload;
    QualitySpec spec = testSpec();
    double threshold = 0.0;
    std::unique_ptr<TableClassifier> table;
    ValidationSet validation;
};

Env &
env()
{
    static Env *shared = [] {
        const Pipeline pipeline(testOptions());
        auto *e = new Env{pipeline.compile("inversek2j")};
        auto package = pipeline.tune(e->workload, e->spec);
        e->threshold = package.threshold.threshold;
        e->table = std::move(package.table);
        e->validation = makeValidationSet(e->workload, 8);
        return e;
    }();
    return *shared;
}

/**
 * Evaluate a fresh copy of the tuned table classifier (online updates
 * mutate it) under the given shard/thread configuration.
 */
DesignEvaluation
runEval(std::size_t shards, std::size_t threads, bool watchdogOn)
{
    Env &e = env();
    setParallelThreadCount(threads);
    EvaluationOptions options;
    options.shards = shards;
    if (watchdogOn) {
        options.watchdog.enabled = true;
        // Audit densely so the short validation stream still feeds
        // every shard's envelope.
        options.watchdog.baseAuditRate = 0.05;
    }
    const Evaluator evaluator(e.workload, e.spec, e.threshold, options);
    TableClassifier copy = *e.table;
    DesignEvaluation eval = evaluator.evaluate(copy, e.validation);
    setParallelThreadCount(1);
    return eval;
}

/**
 * A width-1 trace whose accelerator output violates a 0.5 error
 * threshold with probability `violationRate`, or `driftRate` from row
 * `driftFrom` on.
 */
axbench::InvocationTrace
syntheticTrace(std::size_t rows, double violationRate,
               std::uint64_t seed, std::size_t driftFrom = SIZE_MAX,
               double driftRate = 0.0)
{
    axbench::InvocationTrace trace(1, 1);
    Rng rng(seed);
    for (std::size_t i = 0; i < rows; ++i) {
        const auto x = static_cast<float>(rng.uniform());
        const bool violates =
            rng.bernoulli(i < driftFrom ? violationRate : driftRate);
        trace.appendWithApprox({x}, {1.0f}, {violates ? 2.0f : 1.05f});
    }
    return trace;
}

/** Every aggregate the evaluation reports, compared bitwise. */
void
expectIdentical(const DesignEvaluation &a, const DesignEvaluation &b)
{
    EXPECT_EQ(a.meanQualityLoss, b.meanQualityLoss);
    EXPECT_EQ(a.p99QualityLoss, b.p99QualityLoss);
    EXPECT_EQ(a.successes, b.successes);
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.successLowerBound, b.successLowerBound);
    EXPECT_EQ(a.invocationRate, b.invocationRate);
    EXPECT_EQ(a.speedup, b.speedup);
    EXPECT_EQ(a.energyReduction, b.energyReduction);
    EXPECT_EQ(a.edpImprovement, b.edpImprovement);
    EXPECT_EQ(a.falsePositiveRate, b.falsePositiveRate);
    EXPECT_EQ(a.falseNegativeRate, b.falseNegativeRate);
    EXPECT_EQ(a.totals.cycles, b.totals.cycles);
    EXPECT_EQ(a.totals.energyPj, b.totals.energyPj);
    EXPECT_EQ(a.baselineTotals.cycles, b.baselineTotals.cycles);
    EXPECT_EQ(a.baselineTotals.energyPj, b.baselineTotals.energyPj);
}

} // namespace

TEST(ShardPlan, PartitionsContiguouslyWithBalancedSizes)
{
    for (const std::size_t total : {0u, 1u, 7u, 64u, 1000u, 1001u}) {
        for (const std::size_t shards : {1u, 2u, 3u, 8u, 13u}) {
            const ShardPlan plan(total, shards);
            EXPECT_EQ(plan.begin(0), 0u);
            EXPECT_EQ(plan.end(shards - 1), total);
            std::size_t covered = 0;
            for (std::size_t k = 0; k < shards; ++k) {
                EXPECT_EQ(plan.begin(k), covered);
                covered += plan.size(k);
                // Balanced: sizes differ by at most one.
                EXPECT_LE(plan.size(k), total / shards + 1);
                EXPECT_GE(plan.size(k) + 1, total / shards);
            }
            EXPECT_EQ(covered, total);
        }
    }
}

TEST(ShardPlan, DefaultShardCountReadsEnvironment)
{
    setenv("MITHRA_SHARDS", "7", 1);
    EXPECT_EQ(defaultShardCount(), 7u);
    unsetenv("MITHRA_SHARDS");
    EXPECT_EQ(defaultShardCount(), parallelThreadCount());
}

TEST(ShardPlan, ShardSeedsAreDistinct)
{
    EXPECT_NE(shardSeed(0xd09ULL, 0), shardSeed(0xd09ULL, 1));
    EXPECT_NE(shardSeed(0xd09ULL, 0), shardSeed(0xd0aULL, 0));
}

TEST(ShardedRuntime, BitwiseIdenticalAcrossShardsAndThreads)
{
    // Watchdog off: the evaluation must be bit-for-bit identical for
    // ANY shard count and ANY thread count (DESIGN.md §12).
    const DesignEvaluation reference = runEval(1, 1, false);
    EXPECT_EQ(reference.sharded.shardCount, 1u);
    for (const std::size_t shards : {1u, 5u}) {
        for (const std::size_t threads : {1u, 2u, 8u}) {
            const DesignEvaluation eval = runEval(shards, threads,
                                                  false);
            SCOPED_TRACE("shards=" + std::to_string(shards)
                         + " threads=" + std::to_string(threads));
            expectIdentical(reference, eval);
            EXPECT_EQ(eval.sharded.shardCount, shards);
        }
    }
}

TEST(ShardedRuntime, WatchdogIdenticalAcrossThreadsAtFixedShards)
{
    // Watchdog on: the shard count is semantic configuration, but the
    // thread count still must not change anything, the stats dump
    // included. The tuned table fails closed at this scale, so a
    // random filter does the accelerating and every shard audits.
    Env &e = env();
    auto &stats = telemetry::StatsRegistry::global();
    const auto run = [&](std::size_t threads, std::string &dump) {
        setParallelThreadCount(threads);
        stats.resetValues();
        EvaluationOptions options;
        options.shards = 3;
        options.watchdog.enabled = true;
        options.watchdog.baseAuditRate = 0.05;
        const Evaluator evaluator(e.workload, e.spec, e.threshold,
                                  options);
        RandomFilterClassifier classifier(0.3, 0x3a11);
        DesignEvaluation eval =
            evaluator.evaluate(classifier, e.validation);
        dump = stats.dump(false);
        setParallelThreadCount(1);
        return eval;
    };

    std::string referenceDump;
    const DesignEvaluation reference = run(1, referenceDump);
    ASSERT_TRUE(reference.sharded.watchdogEnabled);
    ASSERT_EQ(reference.sharded.shards.size(), 3u);
    std::size_t violations = 0;
    for (const ShardReport &shard : reference.sharded.shards) {
        EXPECT_GT(shard.watchdog.audits, 0u);
        violations += shard.watchdog.violations;
    }
    EXPECT_GT(violations, 0u);
    for (const std::size_t threads : {2u, 8u}) {
        std::string dump;
        const DesignEvaluation eval = run(threads, dump);
        SCOPED_TRACE("threads=" + std::to_string(threads));
        expectIdentical(reference, eval);
        EXPECT_EQ(dump, referenceDump);
        EXPECT_EQ(eval.sharded.combinedState,
                  reference.sharded.combinedState);
        for (std::size_t k = 0; k < 3; ++k) {
            const auto &a = reference.sharded.shards[k].watchdog;
            const auto &b = eval.sharded.shards[k].watchdog;
            EXPECT_EQ(a.state, b.state);
            EXPECT_EQ(a.audits, b.audits);
            EXPECT_EQ(a.violations, b.violations);
            EXPECT_EQ(a.violationLowerBound, b.violationLowerBound);
            EXPECT_EQ(a.violationUpperBound, b.violationUpperBound);
        }
    }
}

TEST(ShardedRuntime, MergedEvidenceIsSlotOrderedReduction)
{
    const DesignEvaluation eval = runEval(4, 2, true);
    ASSERT_TRUE(eval.sharded.watchdogEnabled);
    ASSERT_EQ(eval.sharded.shards.size(), 4u);
    EXPECT_EQ(eval.sharded.shardConfidence,
              stats::splitConfidence(0.95, 4));

    std::size_t invocations = 0;
    std::size_t watched = 0;
    stats::ProportionEnvelope expected;
    for (const ShardReport &shard : eval.sharded.shards) {
        invocations += shard.invocations;
        watched += shard.watchdog.invocations;
        expected = stats::intersectEnvelopes(
            expected, {shard.watchdog.violationLowerBound,
                       shard.watchdog.violationUpperBound});
    }
    EXPECT_EQ(invocations, env().validation.totalInvocations());
    // Every invocation passed through exactly one shard's watchdog.
    EXPECT_EQ(watched, invocations);
    EXPECT_EQ(eval.sharded.violationEnvelope.lower, expected.lower);
    EXPECT_EQ(eval.sharded.violationEnvelope.upper, expected.upper);
    EXPECT_TRUE(eval.sharded.violationEnvelope.valid());
}

TEST(AlphaSplit, SplitConfidenceSpendsAlphaOverShards)
{
    EXPECT_NEAR(stats::splitConfidence(0.95, 1), 0.95, 1e-15);
    EXPECT_NEAR(stats::splitConfidence(0.95, 5), 0.99, 1e-15);
    EXPECT_NEAR(1.0 - stats::splitConfidence(0.9, 8), 0.1 / 8.0,
                1e-15);
}

TEST(AlphaSplit, EnvelopeIntersectionTakesTightestSides)
{
    const stats::ProportionEnvelope merged = stats::intersectEnvelopes(
        {0.2, 0.9}, {0.3, 0.95});
    EXPECT_EQ(merged.lower, 0.3);
    EXPECT_EQ(merged.upper, 0.9);
    EXPECT_TRUE(merged.valid());
    EXPECT_FALSE(
        stats::intersectEnvelopes({0.6, 0.9}, {0.1, 0.4}).valid());
}

TEST(AlphaSplit, MergedBoundWithinPredictedGap)
{
    // A deterministic synthetic audit stream: ~97% successes.
    const double confidence = 0.95;
    const std::size_t n = 20000;
    std::vector<bool> stream(n);
    std::size_t successes = 0;
    for (std::size_t i = 0; i < n; ++i) {
        stream[i] = indexedBernoulli(0x5eedULL, i, 0.97);
        successes += stream[i] ? 1 : 0;
    }

    stats::SequentialBinomialBound single(confidence);
    for (std::size_t i = 0; i < n; ++i)
        single.record(stream[i]);
    const double singleLower = single.lowerBound();
    EXPECT_GT(singleLower, 0.9);

    for (const std::size_t shards : {2u, 8u}) {
        const double shardConfidence =
            stats::splitConfidence(confidence, shards);
        const ShardPlan plan(n, shards);
        double mergedLower = 0.0;
        double predictedLower = 0.0;
        for (std::size_t k = 0; k < shards; ++k) {
            stats::SequentialBinomialBound bound(shardConfidence);
            std::size_t shardSuccesses = 0;
            for (std::size_t i = plan.begin(k); i < plan.end(k); ++i) {
                bound.record(stream[i]);
                shardSuccesses += stream[i] ? 1 : 0;
            }
            if (bound.lowerBound() > mergedLower)
                mergedLower = bound.lowerBound();
            // The one-look predictor of what this shard can certify:
            // its own counts at the split confidence.
            const double oneLook = stats::clopperPearsonLower(
                shardSuccesses, plan.size(k), shardConfidence);
            if (oneLook > predictedLower)
                predictedLower = oneLook;
        }

        // The merge pays two predictable prices versus the single
        // stream: the alpha split (confidence 1 - alpha/N per shard)
        // and the sample split (n/N observations per shard). Both are
        // captured by the one-look Clopper–Pearson predictor, so the
        // sequential merge may not be looser than the single-stream
        // bound by more than that predicted gap (small slack for the
        // look schedules).
        const double predictedGap = stats::clopperPearsonLower(
                                        successes, n, confidence)
            - predictedLower;
        SCOPED_TRACE("shards=" + std::to_string(shards));
        EXPECT_GE(predictedGap, 0.0);
        EXPECT_LT(predictedGap, 0.05);
        EXPECT_GE(mergedLower, singleLower - predictedGap - 0.01);
    }
}

TEST(ShardedRuntime, RunShardedDecisionsMatchesSerialReference)
{
    // Direct equivalence on the primitive: sharded decisions over a
    // real trace equal the serial decidePrecise walk.
    Env &e = env();
    const auto &trace = *e.validation.entries.front().trace;
    RandomFilterClassifier sharded(0.4, 0x1234);
    RandomFilterClassifier serial(0.4, 0x1234);
    sharded.beginDataset(trace);
    serial.beginDataset(trace);

    setParallelThreadCount(4);
    const ShardPlan plan(trace.count(), 6);
    std::vector<watchdog::Watchdog> noDogs;
    DecisionLoopOptions loop;
    loop.oracleThreshold = e.threshold;
    loop.blockSize = 64;
    std::vector<std::uint8_t> decisions(trace.count(), 0);
    std::vector<ShardTally> tallies;
    runShardedDecisions(sharded, trace, plan, noDogs, loop,
                        decisions.data(), tallies);
    setParallelThreadCount(1);

    ASSERT_EQ(tallies.size(), 6u);
    std::size_t accelerated = 0;
    for (std::size_t i = 0; i < trace.count(); ++i) {
        const bool precise = serial.decidePrecise(trace.inputVec(i), i);
        EXPECT_EQ(decisions[i], precise ? 0 : 1);
        accelerated += precise ? 0 : 1;
    }
    std::size_t shardAccel = 0;
    for (const ShardTally &tally : tallies)
        shardAccel += tally.accelerated;
    EXPECT_EQ(shardAccel, accelerated);
}

TEST(DecisionStream, OneShardEqualsHandDrivenWatchdogWalk)
{
    // The serial reference: decidePrecise per invocation, routed
    // through one watchdog built from the caller's options verbatim.
    // Clean, drifted, drifted, clean: the walk trips mid-stream.
    const double threshold = 0.5;
    std::vector<axbench::InvocationTrace> traces;
    traces.push_back(syntheticTrace(4000, 0.02, 0xa1));
    traces.push_back(syntheticTrace(4000, 0.5, 0xa2));
    traces.push_back(syntheticTrace(4000, 0.5, 0xa3));
    traces.push_back(syntheticTrace(4000, 0.02, 0xa4));
    watchdog::WatchdogOptions opts;
    opts.enabled = true;

    DecisionLoopOptions loop;
    loop.oracleThreshold = threshold;
    DecisionStream stream(1, loop, opts);
    RandomFilterClassifier streamed(0.3, 0x1234);
    watchdog::Watchdog dog(opts, threshold);
    RandomFilterClassifier walked(0.3, 0x1234);

    std::vector<std::uint8_t> decisions;
    for (const axbench::InvocationTrace &trace : traces) {
        const DecisionTotals totals =
            stream.decide(streamed, trace, decisions);
        walked.beginDataset(trace);
        std::size_t accelerated = 0;
        std::size_t auditPrecise = 0;
        std::size_t shadowAccel = 0;
        for (std::size_t i = 0; i < trace.count(); ++i) {
            const bool precise =
                walked.decidePrecise(trace.inputVec(i), i);
            const watchdog::Routing routing = dog.route(!precise);
            if (routing.audited())
                dog.reportAudit(trace.maxAbsError(i));
            EXPECT_EQ(decisions[i], routing.useAccel ? 1 : 0);
            accelerated += routing.useAccel ? 1 : 0;
            auditPrecise += routing.auditPrecise ? 1 : 0;
            shadowAccel += routing.auditShadowAccel ? 1 : 0;
        }
        EXPECT_EQ(totals.accelerated, accelerated);
        EXPECT_EQ(totals.auditPreciseRuns, auditPrecise);
        EXPECT_EQ(totals.shadowAccelRuns, shadowAccel);
    }

    const watchdog::Snapshot want = dog.snapshot();
    const watchdog::Snapshot got =
        stream.evaluation().shards.front().watchdog;
    EXPECT_NE(want.firstTripAt, watchdog::noTrip);
    EXPECT_EQ(got.state, want.state);
    EXPECT_EQ(got.invocations, want.invocations);
    EXPECT_EQ(got.audits, want.audits);
    EXPECT_EQ(got.violations, want.violations);
    EXPECT_EQ(got.suspectEntries, want.suspectEntries);
    EXPECT_EQ(got.trips, want.trips);
    EXPECT_EQ(got.recoveries, want.recoveries);
    EXPECT_EQ(got.forcedPrecise, want.forcedPrecise);
    EXPECT_EQ(got.firstTripAt, want.firstTripAt);
    EXPECT_EQ(got.violationUpperBound, want.violationUpperBound);
    EXPECT_EQ(got.violationLowerBound, want.violationLowerBound);
    EXPECT_EQ(got.epochAudits, want.epochAudits);
    EXPECT_EQ(got.epochViolations, want.epochViolations);
}

TEST(DecisionStream, CallTotalsAreSnapshotDeltasAndSumToReport)
{
    const double threshold = 0.5;
    watchdog::WatchdogOptions opts;
    opts.enabled = true;
    DecisionLoopOptions loop;
    loop.oracleThreshold = threshold;
    DecisionStream stream(4, loop, opts);
    RandomFilterClassifier classifier(0.3, 0x77);

    setParallelThreadCount(4);
    DecisionTotals sum;
    std::size_t invocations = 0;
    std::vector<std::uint8_t> decisions;
    for (std::uint64_t call = 0; call < 4; ++call) {
        SCOPED_TRACE("call=" + std::to_string(call));
        const axbench::InvocationTrace trace =
            syntheticTrace(8000, 0.4, 0xb0 + call);
        const ShardedEvaluation before = stream.evaluation();
        const DecisionTotals totals =
            stream.decide(classifier, trace, decisions);
        const ShardedEvaluation after = stream.evaluation();

        std::size_t audits = 0;
        std::size_t violations = 0;
        std::size_t forcedPrecise = 0;
        for (std::size_t k = 0; k < 4; ++k) {
            const watchdog::Snapshot &a = before.shards[k].watchdog;
            const watchdog::Snapshot &b = after.shards[k].watchdog;
            audits += b.audits - a.audits;
            violations += b.violations - a.violations;
            forcedPrecise += b.forcedPrecise - a.forcedPrecise;
        }
        EXPECT_EQ(totals.audits, audits);
        EXPECT_EQ(totals.audits,
                  totals.auditPreciseRuns + totals.shadowAccelRuns);
        EXPECT_EQ(totals.violations, violations);
        EXPECT_EQ(totals.forcedPrecise, forcedPrecise);

        invocations += trace.count();
        sum.accelerated += totals.accelerated;
        sum.falsePositives += totals.falsePositives;
        sum.falseNegatives += totals.falseNegatives;
        sum.forcedPrecise += totals.forcedPrecise;
    }
    setParallelThreadCount(1);

    const ShardedEvaluation report = stream.evaluation();
    EXPECT_EQ(report.combinedState, watchdog::State::Degraded);
    EXPECT_GT(sum.forcedPrecise, 0u);
    const ShardReport total = report.totals();
    EXPECT_EQ(total.invocations, invocations);
    EXPECT_EQ(total.accelerated, sum.accelerated);
    EXPECT_EQ(total.falsePositives, sum.falsePositives);
    EXPECT_EQ(total.falseNegatives, sum.falseNegatives);
    // The per-call snapshot deltas telescope, so the report's watchdog
    // counts are the calls' sums as well.

    // The published upper-bound gauge is the merged envelope's, the
    // value the certificate ships, at any thread count. The last shard
    // drifts, so it does not hold the tightest bound.
    for (const std::size_t threads : {1u, 8u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        setParallelThreadCount(threads);
        DecisionStream drifted(4, loop, opts);
        RandomFilterClassifier fresh(0.3, 0x77);
        drifted.decide(fresh, syntheticTrace(8000, 0.02, 0xc0, 6000, 0.5),
                       decisions);
        setParallelThreadCount(1);
        const ShardedEvaluation merged = drifted.evaluation();
        EXPECT_LT(merged.violationEnvelope.upper,
                  merged.shards.back().watchdog.violationUpperBound);
        EXPECT_EQ(telemetry::StatsRegistry::global()
                      .gauge("watchdog.violation_upper_bound")
                      .value(),
                  merged.violationEnvelope.upper);
    }
}

TEST(WatchdogStream, CleanTraceWithRealClassifierNeverTrips)
{
    // A one-shard stream over a synthetic trace whose approximations
    // are good, with every invocation accelerated: the drift-off
    // invariant (zero DEGRADED transitions) end to end.
    watchdog::WatchdogOptions opts;
    opts.enabled = true;
    DecisionLoopOptions loop;
    loop.oracleThreshold = 0.5;
    DecisionStream stream(1, loop, opts);
    RandomFilterClassifier classifier(0.0, 0x70a57ULL);
    std::vector<std::uint8_t> decisions;
    stream.decide(classifier, syntheticTrace(4000, 0.01, 0x70a57ULL),
                  decisions);

    const watchdog::Snapshot snap =
        stream.evaluation().shards.front().watchdog;
    EXPECT_EQ(snap.invocations, 4000u);
    EXPECT_EQ(snap.firstTripAt, watchdog::noTrip);
    EXPECT_EQ(snap.trips, 0u);
    EXPECT_EQ(snap.state, watchdog::State::Healthy);
    EXPECT_GT(snap.audits, 0u);
}
