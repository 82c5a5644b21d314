#include "twin.hh"

#include <algorithm>
#include <iterator>
#include <utility>

#include "axbench/registry.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "core/shard.hh"
#include "service/jobs.hh"
#include "stats/sequential_bound.hh"
#include "telemetry/stats.hh"

namespace perfbench
{

using namespace mithra;

namespace
{

/** The options service::JobManager gives the pipeline for our jobs. */
core::PipelineOptions
jobPipelineOptions()
{
    core::PipelineOptions options;
    options.compileDatasetCount = jobCompileDatasets;
    options.npuTrainSamples = jobNpuTrainSamples;
    options.classifierTuples = jobClassifierTuples;
    options.seed = service::JobSpec{}.seed;
    return options;
}

/**
 * The NPU training sample core::Pipeline::compile draws: each trace
 * samples from its own stream split off the seed, concatenated in trace
 * order.
 */
void
sampleTraining(
    const std::vector<std::unique_ptr<axbench::InvocationTrace>> &traces,
    std::size_t maxSamples, std::uint64_t seed, VecBatch &inputs,
    VecBatch &outputs)
{
    std::size_t total = 0;
    for (const auto &trace : traces)
        total += trace->count();
    const double keep = std::min(
        1.0, static_cast<double>(maxSamples) / static_cast<double>(total));

    std::vector<std::pair<VecBatch, VecBatch>> perTrace(traces.size());
    parallelFor(0, traces.size(), 1, [&](std::size_t t) {
        Rng rng = rngStream(seed ^ 0x6e70755f747261ULL, t);
        const axbench::InvocationTrace &trace = *traces[t];
        auto &[localIn, localOut] = perTrace[t];
        for (std::size_t i = 0; i < trace.count(); ++i) {
            if (keep < 1.0 && !rng.bernoulli(keep))
                continue;
            const auto in = trace.input(i);
            const auto out = trace.preciseOutput(i);
            localIn.emplace_back(in.begin(), in.end());
            localOut.emplace_back(out.begin(), out.end());
        }
    });
    for (auto &[localIn, localOut] : perTrace) {
        std::move(localIn.begin(), localIn.end(),
                  std::back_inserter(inputs));
        std::move(localOut.begin(), localOut.end(),
                  std::back_inserter(outputs));
    }
}

/** core::Pipeline::compile for a built-in benchmark, one span per stage. */
void
compileInStages(const std::string &name,
                const core::PipelineOptions &options, Twin &twin,
                Lane &lane, std::uint64_t request)
{
    core::CompiledWorkload &workload = twin.workload;
    workload.benchmark = axbench::makeBenchmark(name);
    const axbench::Benchmark &bench = *workload.benchmark;
    const std::size_t datasets = options.compileDatasetCount;

    workload.compileDatasets.resize(datasets);
    workload.compileTraces.resize(datasets);
    {
        const Lane::Scope span(lane, "axbench.datagen", request);
        parallelFor(0, datasets, 1, [&](std::size_t d) {
            auto dataset = bench.makeDataset(axbench::compileSeed(name, d));
            workload.compileTraces[d] =
                std::make_unique<axbench::InvocationTrace>(
                    bench.trace(*dataset));
            workload.compileDatasets[d] = std::move(dataset);
        });
    }

    sampleTraining(workload.compileTraces, options.npuTrainSamples,
                   options.seed, twin.trainInputs, twin.trainOutputs);
    const std::int64_t samplesBefore = counterValue("npu.train.samples");
    {
        const Lane::Scope span(lane, "npu.train", request);
        workload.npuTrainMse = workload.accel.trainToMimic(
            bench.npuTopology(), twin.trainInputs, twin.trainOutputs,
            bench.npuTrainerOptions());
    }
    twin.trainSamples = counterValue("npu.train.samples") - samplesBefore;

    {
        const Lane::Scope span(lane, "core.attach", request);
        workload.problem.benchmark = &bench;
        workload.problem.entries.resize(datasets);
        const double lossSum = parallelMapReduce(
            0, datasets, 1, 0.0,
            [&](std::size_t d) {
                axbench::InvocationTrace &trace = *workload.compileTraces[d];
                const axbench::Dataset &dataset = *workload.compileDatasets[d];
                workload.attachApproximations(trace);
                workload.problem.entries[d] =
                    core::ThresholdProblem::makeEntry(bench, dataset, trace);
                return bench.qualityLoss(
                    workload.problem.entries[d].preciseFinal,
                    bench.approxOutput(dataset, trace));
            },
            [](double a, double b) { return a + b; });
        workload.fullApproxLossMean =
            lossSum / static_cast<double>(datasets);
    }
    workload.costs = bench.measureCosts();
}

} // namespace

JobDigest
Twin::digest() const
{
    return {threshold.threshold, threshold.successLowerBound,
            classifier->approximationEnabled()};
}

std::int64_t
counterValue(const char *name)
{
    const telemetry::Counter *counter =
        telemetry::StatsRegistry::global().findCounter(name);
    return counter ? counter->value() : 0;
}

Twin
buildTwin(const JobDesign &job, Lane &lane, std::uint64_t request)
{
    const core::PipelineOptions options = jobPipelineOptions();
    const core::Pipeline pipeline(options);
    const core::QualitySpec spec = service::ModelConfig{}.spec;

    Twin twin;
    const std::int64_t regionsBefore = counterValue("parallel.regions");
    {
        const Lane::Scope whole(lane, "compile.job", request);
        {
            const Lane::Scope span(lane, "core.compile", request);
            compileInStages(job.benchmark, options, twin, lane, request);
        }
        {
            const Lane::Scope span(lane, "core.threshold", request);
            twin.threshold = pipeline.tuneThreshold(twin.workload, spec);
        }
        const std::int64_t roundsBefore =
            counterValue("core.calibration.rounds");
        {
            const Lane::Scope span(lane, "core.calibration", request);
            if (job.design == "neural")
                twin.classifier = pipeline
                                      .tuneNeural(twin.workload, spec,
                                                  twin.threshold)
                                      .classifier;
            else
                twin.classifier = pipeline
                                      .tuneTable(twin.workload, spec,
                                                 twin.threshold)
                                      .classifier;
        }
        twin.calibrationRounds =
            counterValue("core.calibration.rounds") - roundsBefore;
    }
    twin.parallelRegions = counterValue("parallel.regions") - regionsBefore;

    // The threshold entries point into the traces, so they go first.
    twin.workload.problem.entries.clear();
    twin.workload.compileTraces.clear();
    twin.workload.compileDatasets.clear();
    return twin;
}

double
trainSingleThreaded(const std::vector<Twin> &twins, bool &identical)
{
    const std::size_t width = parallelThreadCount();
    setParallelThreadCount(1);
    double seconds = 0.0;
    identical = true;
    for (const Twin &twin : twins) {
        const axbench::Benchmark &bench = *twin.workload.benchmark;
        npu::Approximator accel;
        const Clock::time_point begin = Clock::now();
        const double mse =
            accel.trainToMimic(bench.npuTopology(), twin.trainInputs,
                               twin.trainOutputs, bench.npuTrainerOptions());
        seconds += secondsBetween(begin, Clock::now());
        identical = identical && mse == twin.workload.npuTrainMse;
    }
    setParallelThreadCount(width);
    return seconds;
}

std::vector<core::watchdog::Watchdog>
servingDogs(double threshold)
{
    // service::Model's construction for the job spec's watchdog knobs.
    const service::ModelConfig config;
    const double shardConfidence =
        stats::splitConfidence(config.watchdog.confidence, jobShards);
    std::vector<core::watchdog::Watchdog> dogs;
    dogs.reserve(jobShards);
    for (std::size_t k = 0; k < jobShards; ++k) {
        core::watchdog::WatchdogOptions options = config.watchdog;
        options.confidence = shardConfidence;
        options.seed = core::shardSeed(config.watchdog.seed, k);
        dogs.emplace_back(options, threshold);
    }
    return dogs;
}

} // namespace perfbench
