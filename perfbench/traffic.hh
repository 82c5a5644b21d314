/**
 * @file
 * The benchmark's client side of the service: compile jobs over
 * POST /jobs checked against pinned results, /invoke bodies built from
 * the workload seed before timing starts, the checks every /invoke
 * reply must pass, and the closed-loop request generator.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "service/client.hh"
#include "service/server.hh"
#include "spans.hh"

namespace perfbench
{

namespace service = mithra::service;

/** Job size of every compile job (bench/micro_service's). */
constexpr std::size_t jobCompileDatasets = 60;
constexpr std::size_t jobNpuTrainSamples = 4000;
constexpr std::size_t jobClassifierTuples = 50000;
constexpr std::size_t jobShards = 4;

/** One compile job: a benchmark and a classifier design. */
struct JobDesign
{
    std::string benchmark;
    std::string design;
};

/** What a job certified. The pipeline is deterministic, so this is
 *  identical on every run of one commit. */
struct JobDigest
{
    double threshold = 0.0;
    double successLowerBound = 0.0;
    bool approximationEnabled = false;
};

/** One job as the benchmark saw it. */
struct JobOutcome
{
    std::string id;
    /** The job ended `done` (it may still differ from its digest). */
    bool done = false;
    JobDigest digest;
    /** Why the job counts as failed; empty when it passed. */
    std::string problem;
};

/** "" when `digest` equals the one pinned for `job`; otherwise why. */
std::string digestProblem(const JobDesign &job, const JobDigest &digest);

/**
 * Submit every job over POST /jobs in one burst, then wait until each
 * has finished and check it. Returns the seconds from the first submit
 * to the poll that saw the last job end.
 */
double runJobs(service::Server &server, const std::vector<JobDesign> &jobs,
               std::vector<JobOutcome> &outcomes);

/** Input width (accelerator FIFO width) of `benchmark`. */
std::size_t inputWidth(const std::string &benchmark);

/**
 * `count` input rows of `benchmark`: the first `perDataset` rows of
 * each dataset whose seed the SplitMix64 stream of `seed` yields.
 */
std::vector<float> drawRows(const std::string &benchmark,
                            std::uint64_t seed, std::size_t count,
                            std::size_t perDataset);

/** One /invoke request, serialized before timing starts. */
struct Request
{
    std::string body;
    std::size_t rows = 0;
    /** The same rows as floats, for the in-process replay. */
    std::vector<float> inputs;
};

/**
 * Cut `rows` into bodies of `rowsPerBody` rows addressed to `model`:
 * each body holds rowsPerBody / jobShards consecutive rows of `rows`,
 * once for each of the model's shards.
 */
void appendRequests(const std::string &model,
                    const std::vector<float> &rows, std::size_t width,
                    std::size_t rowsPerBody, std::vector<Request> &out);

/**
 * Check one /invoke reply; "" when it passes. `reference` holds the
 * body's first decisions served without watchdog-forced precise rows
 * and is filled on first use; later such replies must repeat them.
 */
std::string checkInvoke(const service::ClientResult &reply,
                        std::size_t rows, std::string &reference);

/**
 * Accelerated share of one whole pass over `requests`, from each
 * body's reference decisions; -1 when some body has none.
 */
double acceleratedShare(const std::vector<Request> &requests,
                        const std::vector<std::string> &references);

/** Print the first few failures to standard error. */
void noteFailure(const std::string &what);

/** One request of a closed-loop pass. */
struct Exchange
{
    /** Seconds from the pass's start to the full reply. */
    double endedAt = 0.0;
    /** Seconds from send to full reply. */
    double latency = 0.0;
    /** Rows answered; 0 when the reply failed a check. */
    std::size_t rowsServed = 0;
};

/** What one closed-loop pass measured. */
struct TrafficResult
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    double seconds = 0.0;
    std::vector<Exchange> exchanges;
};

/**
 * Closed loop over `connections` keep-alive connections, one client
 * thread each: thread t sends requests t, t + connections, ... in turn,
 * each only after the previous reply arrived, until `whileRunning`
 * (run on the calling thread) returns. Every client connection is
 * closed before this returns, so the server can stop at once.
 */
TrafficResult runClosedLoop(std::uint16_t port,
                            const std::vector<Request> &requests,
                            std::vector<std::string> &references,
                            std::size_t connections, Tracer &tracer,
                            const std::function<void()> &whileRunning);

} // namespace perfbench
