/**
 * @file
 * In-process twins of the service's compile jobs. A twin makes the
 * public pipeline calls a job makes, with the same options, but cuts
 * core::Pipeline::compile at its stages (dataset generation,
 * accelerator training, attach) so each stage is timed on its own. The
 * pipeline is deterministic, so a twin certifies exactly what the job
 * published; the benchmark checks that through the pinned digests.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/pipeline.hh"
#include "core/watchdog/watchdog.hh"
#include "spans.hh"
#include "traffic.hh"

namespace perfbench
{

/** A job's compiled workload and calibrated classifier. */
struct Twin
{
    mithra::core::CompiledWorkload workload;
    std::unique_ptr<mithra::core::Classifier> classifier;
    mithra::core::ThresholdResult threshold;
    /** The accelerator's training set, kept for the 1-thread repeat. */
    mithra::VecBatch trainInputs;
    mithra::VecBatch trainOutputs;
    /** Telemetry counter deltas over the twin's own calls. */
    std::int64_t trainSamples = 0;
    std::int64_t calibrationRounds = 0;
    std::int64_t parallelRegions = 0;

    JobDigest digest() const;
};

/** Current value of a telemetry counter (0 before its first use). */
std::int64_t counterValue(const char *name);

/**
 * Run `job`'s pipeline calls in-process, each stage under a span on
 * `lane`. Only the benchmark and the trained accelerator are kept
 * afterwards: they are all the serve path reads.
 */
Twin buildTwin(const JobDesign &job, Lane &lane, std::uint64_t request);

/**
 * Repeat every twin's accelerator training with the thread pool cut to
 * one thread (MITHRA_THREADS=1). Returns the seconds spent; `identical`
 * reports whether every retrained accelerator reached the same MSE,
 * bit for bit. No other thread may use the pool meanwhile.
 */
double trainSingleThreaded(const std::vector<Twin> &twins, bool &identical);

/** The per-shard watchdogs a model served at `threshold` starts with. */
std::vector<mithra::core::watchdog::Watchdog> servingDogs(double threshold);

} // namespace perfbench
