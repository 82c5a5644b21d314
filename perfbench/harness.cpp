/**
 * @file
 * End-to-end benchmark of MITHRA's compile path (POST /jobs) and serve
 * path (POST /invoke), driven against a live service::Server over
 * loopback sockets inside this process.
 *
 * Usage: perfbench --workload <name> --seed <n> --seconds <s>
 *                  --trace <0|1> [--trace-file <path>]
 * perfbench/run.py builds this binary and passes its arguments on.
 *
 * --trace 0 measures the end-to-end metrics with no spans recorded.
 * --trace 1 measures the per-layer metrics instead: the workload's
 * timed section runs once untraced and once traced (their difference is
 * the tracing overhead), then in-process twins of the published models
 * replay the same compile calls and request bodies layer by layer (see
 * README.md beside this file). Either way the last line of standard
 * output is one JSON object with the keys correct, attempted, failed
 * and metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "core/runtime.hh"
#include "core/shard.hh"
#include "service/server.hh"
#include "spans.hh"
#include "telemetry/json.hh"
#include "traffic.hh"
#include "twin.hh"

using namespace mithra;
using namespace perfbench;
using telemetry::Json;

namespace
{

enum class Workload
{
    Compile,
    ServeBulk,
    ServeSmall,
    ServeDuringCompile,
};

struct Options
{
    Workload workload = Workload::Compile;
    std::string workloadName;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string traceFile;
};

/** The shape of a workload's /invoke traffic. */
struct TrafficShape
{
    std::size_t connections;
    std::size_t rowsPerBody;
    /** Bodies per model; each is sent again on every pass. */
    std::size_t bodies;
    /** Rows taken from each generated dataset: small enough that the
     *  body set mixes many datasets, which keeps accel_fraction close
     *  across seeds. */
    std::size_t rowsPerDataset;

    /** Distinct rows in the body set; every body repeats its rows once
     *  per model shard (see appendRequests). */
    std::size_t distinctRows() const
    {
        return bodies * rowsPerBody / jobShards;
    }
};

// The compile workload ends with one pass of such bodies over every
// published model, then serve_small's traffic to its inversek2j model.
constexpr TrafficShape probeShape{1, 64, 128, 16};
constexpr TrafficShape bulkShape{2, 4096, 128, 64};
constexpr TrafficShape smallShape{4, 64, 1024, 16};

/** The six table designs plus jmeint's neural design. */
std::vector<JobDesign>
compileJobs()
{
    return {{"blackscholes", "table"}, {"fft", "table"},
            {"inversek2j", "table"},   {"jmeint", "table"},
            {"jpeg", "table"},         {"sobel", "table"},
            {"jmeint", "neural"}};
}

/** The model every serve workload serves. */
const JobDesign servingJob{"inversek2j", "table"};

/** Where the serving design sits in compileJobs(). */
constexpr std::size_t probeJob = 2;

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

struct Result
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<Metric> metrics;

    void add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** Count one operation; `problem` is empty when it passed. */
    void check(const std::string &problem)
    {
        attempted += 1;
        if (!problem.empty()) {
            failed += 1;
            noteFailure(problem);
        }
    }

    void addTraffic(const TrafficResult &traffic)
    {
        attempted += traffic.attempted;
        failed += traffic.failed;
    }
};

/** Count the jobs' outcomes; returns how many published a certified
 *  (approximation-enabled) model. */
std::size_t
checkJobs(Result &result, const std::vector<JobOutcome> &outcomes)
{
    std::size_t certified = 0;
    for (const JobOutcome &outcome : outcomes) {
        result.check(outcome.problem);
        certified += outcome.done && outcome.digest.approximationEnabled;
    }
    return certified;
}

void
sleepFor(double seconds)
{
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
ratio(double numerator, double denominator)
{
    return denominator > 0.0 ? numerator / denominator : 0.0;
}

/** Rows answered per second over a whole pass. */
double
rowsPerSecond(const TrafficResult &traffic)
{
    std::size_t rows = 0;
    for (const Exchange &exchange : traffic.exchanges)
        rows += exchange.rowsServed;
    return ratio(static_cast<double>(rows), traffic.seconds);
}

/** Slices of a steady traffic window (see addServeMetrics). On a 4-vCPU
 *  VM, six 10 s runs each of serve_small and serve_bulk spread less
 *  from run to run with the median over 20 slices than over 5 or over
 *  the whole window, most of all on p99. */
constexpr std::size_t steadySlices = 20;

/**
 * The serve-side end-to-end metrics of one closed-loop pass. Steady
 * traffic is cut into `slices` equal slices by reply time and each
 * metric is the median over the slices, so CPU taken from this machine
 * in a short burst spoils one slice rather than the run. Traffic that
 * runs beside a compile job is one slice: its load changes with the
 * job's stages, so only the whole window is comparable across runs.
 */
void
addServeMetrics(Result &result, const TrafficResult &traffic,
                std::size_t slices, const std::vector<Request> &requests,
                const std::vector<std::string> &references)
{
    const double width = traffic.seconds / static_cast<double>(slices);
    std::vector<double> rows(slices, 0.0);
    std::vector<std::vector<double>> latencies(slices);
    for (const Exchange &exchange : traffic.exchanges) {
        const std::size_t slice = std::min(
            slices - 1, static_cast<std::size_t>(exchange.endedAt / width));
        rows[slice] += static_cast<double>(exchange.rowsServed);
        latencies[slice].push_back(exchange.latency);
    }
    std::vector<double> rates, p50s, p99s;
    for (std::size_t k = 0; k < slices; ++k) {
        rates.push_back(ratio(rows[k], width));
        p50s.push_back(quantile(latencies[k], 0.50));
        p99s.push_back(quantile(latencies[k], 0.99));
    }
    result.addTraffic(traffic);
    result.add("invoke_rows_per_s", quantile(rates, 0.5), "rows/s");
    result.add("invoke_p50_ms", 1e3 * quantile(p50s, 0.5), "ms");
    result.add("invoke_p99_ms", 1e3 * quantile(p99s, 0.5), "ms");
    const double share = acceleratedShare(requests, references);
    result.check(share < 0.0 ? "a body never got a reply to compare"
                             : "");
    result.add("accel_fraction", std::max(share, 0.0), "ratio");
}

/** The served model and its in-process twin. */
struct Target
{
    std::shared_ptr<service::Model> model;
    const Twin *twin = nullptr;
};

/** Sums over one replay. */
struct ReplayCounts
{
    std::size_t requests = 0;
    std::size_t rows = 0;
    std::size_t requestBytes = 0;
    std::size_t responseBytes = 0;
    std::size_t failed = 0;
};

/** Pool regions one Model::invoke opens, averaged over one pass. */
double
regionsPerInvoke(const std::vector<Request> &requests, const Target &target)
{
    const std::int64_t before = counterValue("parallel.regions");
    for (const Request &request : requests)
        (void)target.model->invoke(request.inputs.data(), request.rows);
    return ratio(
        static_cast<double>(counterValue("parallel.regions") - before),
        static_cast<double>(requests.size()));
}

/**
 * Send each request in turn through every layer the server runs for
 * it: the loopback round trip, Server::handle, then parseJson,
 * Model::invoke, traceFromInputs, runShardedDecisions,
 * mergeShardEvidence and Json::dump called directly, each under its
 * own span. Runs until `stop` is set and one whole pass is done.
 */
void
replayRequests(service::Server &server, const std::vector<Request> &requests,
               const Target &target, std::vector<std::string> &references,
               Lane &lane, const std::atomic<bool> &stop,
               ReplayCounts &counts)
{
    service::HttpClient client(server.port());
    const Twin &twin = *target.twin;
    std::vector<core::watchdog::Watchdog> dogs =
        servingDogs(twin.threshold.threshold);
    const double confidence = service::ModelConfig{}.watchdog.confidence;
    std::uint64_t position = 0;

    bool wholePass = false;
    for (std::size_t next = 0;
         !(wholePass && stop.load(std::memory_order_relaxed));) {
        const Request &request = requests[next];
        const std::uint64_t id = counts.requests;
        service::HttpRequest http;
        http.method = "POST";
        http.target = "/invoke";
        http.body = request.body;

        const Lane::Scope whole(lane, "replay.request", id);
        service::ClientResult reply;
        {
            const Lane::Scope span(lane, "client.roundtrip", id);
            reply = client.post("/invoke", request.body);
        }
        std::string problem =
            checkInvoke(reply, request.rows, references[next]);
        service::HttpResponse handled;
        {
            const Lane::Scope span(lane, "service.handle", id);
            handled = server.handle(http);
        }
        if (problem.empty() && handled.status != 200)
            problem = "Server::handle answered "
                + std::to_string(handled.status);
        telemetry::ParseResult parsed;
        {
            const Lane::Scope span(lane, "json.parse", id);
            parsed = telemetry::parseJson(request.body);
        }
        if (problem.empty() && !parsed.ok)
            problem = "parseJson rejected a request body";
        service::InvokeOutcome outcome;
        {
            const Lane::Scope span(lane, "service.invoke", id);
            outcome = target.model->invoke(request.inputs.data(),
                                           request.rows);
        }
        std::optional<axbench::InvocationTrace> trace;
        {
            const Lane::Scope span(lane, "core.trace", id);
            trace.emplace(core::traceFromInputs(
                twin.workload, request.inputs.data(),
                request.inputs.size() / request.rows, request.rows));
        }
        std::vector<std::uint8_t> decisions(request.rows);
        std::vector<core::ShardTally> tallies;
        const core::ShardPlan plan(request.rows, jobShards);
        core::DecisionLoopOptions loop;
        loop.oracleThreshold = twin.threshold.threshold;
        loop.onlineSampleRate = 0.0;
        loop.streamOffset = position;
        {
            const Lane::Scope span(lane, "core.decide", id);
            twin.classifier->beginDataset(*trace);
            core::runShardedDecisions(*twin.classifier, *trace, plan, dogs,
                                      loop, decisions.data(), tallies);
        }
        position += request.rows;
        core::ShardedEvaluation merged;
        merged.shardCount = jobShards;
        merged.watchdogEnabled = true;
        merged.shards.resize(jobShards);
        {
            const Lane::Scope span(lane, "core.merge", id);
            core::mergeShardEvidence(dogs, confidence, merged);
        }
        // The response Server::handle builds for this outcome.
        Json::Array served;
        served.reserve(outcome.decisions.size());
        for (const std::uint8_t decision : outcome.decisions)
            served.push_back(Json(static_cast<std::int64_t>(decision)));
        Json::Object response;
        response.emplace("model", Json(target.model->id()));
        response.emplace("decisions", Json(std::move(served)));
        response.emplace("certificate", std::move(outcome.certificate));
        const Json document(std::move(response));
        std::string dumped;
        {
            const Lane::Scope span(lane, "json.dump", id);
            dumped = document.dump(1);
        }

        counts.requests += 1;
        counts.rows += request.rows;
        counts.requestBytes += request.body.size();
        counts.responseBytes += reply.body.size();
        if (!problem.empty()) {
            counts.failed += 1;
            noteFailure("replay: " + problem);
        }
        if (++next == requests.size()) {
            next = 0;
            wholePass = true;
        }
    }
}

/**
 * Replay `requests` on one thread while `whileRunning` runs on this
 * one, and at least one whole pass. One thread, so each layer's time
 * is its own work plus whatever the rest of the workload makes it wait
 * for (the re-publish job in serve_during_compile), never queueing
 * behind other replayed requests.
 */
ReplayCounts
replay(service::Server &server, const std::vector<Request> &requests,
       const Target &target, std::vector<std::string> &references,
       Tracer &tracer, const std::function<void()> &whileRunning)
{
    ReplayCounts counts;
    if (requests.empty() || !target.model)
        return counts;
    Lane &lane = tracer.lane("replay");
    std::atomic<bool> stop{false};
    {
        std::thread thread([&] {
            replayRequests(server, requests, target, references, lane,
                           stop, counts);
        });
        // Stops and joins the replay on every exit path.
        struct Joiner
        {
            std::atomic<bool> &stop;
            std::thread &thread;
            ~Joiner()
            {
                stop.store(true);
                thread.join();
            }
        } joiner{stop, thread};
        whileRunning();
    }
    return counts;
}

double
layerSeconds(const std::map<std::string, LayerTime> &layers,
             const char *name)
{
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.totalSeconds;
}

/** Compile-side per-layer metrics over the twins' own calls. */
void
addCompileLayers(Result &result,
                 const std::map<std::string, LayerTime> &layers,
                 const std::vector<Twin> &twins, double oneThreadSeconds)
{
    std::int64_t samples = 0;
    std::int64_t rounds = 0;
    std::int64_t regions = 0;
    for (const Twin &twin : twins) {
        samples += twin.trainSamples;
        rounds += twin.calibrationRounds;
        regions += twin.parallelRegions;
    }
    const double train = layerSeconds(layers, "npu.train");
    result.add("npu.train_s", train, "s");
    result.add("npu.train_s_1thread", oneThreadSeconds, "s");
    result.add("npu.train_samples_per_s",
               ratio(static_cast<double>(samples), train), "samples/s");
    result.add("parallel.regions_per_job",
               ratio(static_cast<double>(regions),
                     static_cast<double>(twins.size())),
               "count");
    result.add("axbench.datagen_s", layerSeconds(layers, "axbench.datagen"),
               "s");
    result.add("core.threshold_s", layerSeconds(layers, "core.threshold"),
               "s");
    result.add("core.calibration_s",
               layerSeconds(layers, "core.calibration"), "s");
    result.add("core.calibration_rounds", static_cast<double>(rounds),
               "count");
}

/** Serve-side per-layer metrics of one replay. A layer's own time is
 *  its call minus the timed calls it makes, taken from the same bodies. */
void
addServeLayers(Result &result, const std::map<std::string, LayerTime> &layers,
               const ReplayCounts &counts, double regionsPerRequest)
{
    const auto rows = static_cast<double>(counts.rows);
    const auto requests = static_cast<double>(counts.requests);
    const double parse = layerSeconds(layers, "json.parse");
    const double trace = layerSeconds(layers, "core.trace");
    const double decide = layerSeconds(layers, "core.decide");
    const double dump = layerSeconds(layers, "json.dump");
    const double invoke = layerSeconds(layers, "service.invoke");
    const double handle = layerSeconds(layers, "service.handle");
    const double roundTrip = layerSeconds(layers, "client.roundtrip");
    result.add("parallel.regions_per_req", regionsPerRequest, "count");
    result.add("json.parse_us_per_row", 1e6 * ratio(parse, rows), "us");
    result.add("core.trace_us_per_row", 1e6 * ratio(trace, rows), "us");
    result.add("core.decide_us_per_row", 1e6 * ratio(decide, rows), "us");
    result.add("json.dump_us_per_row", 1e6 * ratio(dump, rows), "us");
    result.add("service.request_bytes_per_row",
               ratio(static_cast<double>(counts.requestBytes), rows),
               "bytes");
    result.add("service.response_bytes_per_row",
               ratio(static_cast<double>(counts.responseBytes), rows),
               "bytes");
    result.add("core.certify_us_per_req",
               1e6 * ratio(invoke - trace - decide, requests), "us");
    result.add("service.invoke_us_per_req", 1e6 * ratio(invoke, requests),
               "us");
    result.add("service.handle_self_us_per_req",
               1e6 * ratio(handle - parse - invoke - dump, requests), "us");
    result.add("service.socket_us_per_req",
               1e6 * ratio(roundTrip - handle, requests), "us");
}

/** Print the span table to standard error and write the spans out. */
void
reportSpans(const Tracer &tracer, const Options &options)
{
    std::fprintf(stderr, "%-22s %10s %12s %12s\n", "span", "calls",
                 "total_s", "self_s");
    for (const auto &[name, layer] : tracer.layers())
        std::fprintf(stderr, "%-22s %10zu %12.6f %12.6f\n", name.c_str(),
                     layer.calls, layer.totalSeconds, layer.selfSeconds);
    if (!options.traceFile.empty()
        && !tracer.writeChromeTrace(options.traceFile))
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     options.traceFile.c_str());
}

/** Twin of each done job; digest mismatches count as failures. */
std::vector<Twin>
buildTwins(Result &result, const std::vector<JobDesign> &jobs, Lane &lane)
{
    std::vector<Twin> twins;
    twins.reserve(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        twins.push_back(buildTwin(jobs[j], lane, j));
        result.check(digestProblem(jobs[j], twins.back().digest()));
    }
    return twins;
}

/** Seconds the twins' training takes at one pool thread; reaching
 *  another MSE there counts as a failure. */
double
singleThreadTrain(Result &result, const std::vector<Twin> &twins)
{
    bool identical = false;
    const double seconds = trainSingleThreaded(twins, identical);
    result.check(identical ? ""
                           : "1-thread training reached another MSE");
    return seconds;
}

Result
runCompile(const Options &options, Clock::time_point start)
{
    Result result;
    const std::vector<JobDesign> jobs = compileJobs();
    service::Server server;
    server.start();
    const double startSeconds = secondsBetween(start, Clock::now());
    // Set-up here is a few seconds of row generation on one thread,
    // whose time varies by a third from run to run on a shared machine;
    // it runs three times and the median counts.
    std::vector<std::vector<float>> probeRows;
    std::vector<float> servingRows;
    std::vector<double> builds;
    for (int repeat = 0; repeat < 3; ++repeat) {
        const Clock::time_point begin = Clock::now();
        probeRows.clear();
        for (std::size_t j = 0; j < jobs.size(); ++j)
            probeRows.push_back(drawRows(
                jobs[j].benchmark, options.seed * jobs.size() + j,
                probeShape.distinctRows(), probeShape.rowsPerDataset));
        servingRows = drawRows(servingJob.benchmark, options.seed,
                               smallShape.distinctRows(),
                               smallShape.rowsPerDataset);
        builds.push_back(secondsBetween(begin, Clock::now()));
    }
    const double setupSeconds = startSeconds + quantile(builds, 0.5);

    std::vector<JobOutcome> outcomes;
    const double compileSeconds = runJobs(server, jobs, outcomes);
    const std::size_t certified = checkJobs(result, outcomes);

    // After the compile window, every published model answers one pass
    // of bodies; accel_fraction comes from this pass.
    std::vector<Request> requests;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        if (outcomes[j].done)
            appendRequests(outcomes[j].id, probeRows[j],
                           inputWidth(jobs[j].benchmark),
                           probeShape.rowsPerBody, requests);
    }
    std::vector<std::string> references(requests.size());
    {
        service::HttpClient client(server.port());
        for (std::size_t r = 0; r < requests.size(); ++r)
            result.check(checkInvoke(client.post("/invoke", requests[r].body),
                                     requests[r].rows, references[r]));
    }

    // Then serve_small's traffic to the new serving model only.
    std::vector<Request> probe;
    if (outcomes[probeJob].done)
        appendRequests(outcomes[probeJob].id, servingRows,
                       inputWidth(servingJob.benchmark),
                       smallShape.rowsPerBody, probe);
    std::vector<std::string> probeReferences(probe.size());
    const double probeSeconds = options.seconds / 2.0;

    if (!options.trace) {
        Tracer off(false);
        const TrafficResult traffic = runClosedLoop(
            server.port(), probe, probeReferences, smallShape.connections,
            off, [&] { sleepFor(probeSeconds); });
        result.add("setup_s", setupSeconds, "s");
        result.add("compile_s", compileSeconds, "s");
        result.add("models_certified", static_cast<double>(certified),
                   "count");
        addServeMetrics(result, traffic, steadySlices, requests, references);
    } else {
        Tracer tracer(true);
        Lane &lane = tracer.lane("compile");
        const std::vector<Twin> twins = buildTwins(result, jobs, lane);
        const double oneThreadSeconds = singleThreadTrain(result, twins);

        const Target target{server.models().find(outcomes[probeJob].id),
                            &twins[probeJob]};
        const double regions = regionsPerInvoke(probe, target);
        const ReplayCounts counts =
            replay(server, probe, target, probeReferences, tracer,
                   [&] { sleepFor(probeSeconds); });
        result.attempted += counts.requests;
        result.failed += counts.failed;

        const auto layers = tracer.layers();
        addCompileLayers(result, layers, twins, oneThreadSeconds);
        addServeLayers(result, layers, counts, regions);
        // The twins make the jobs' calls under spans; their total
        // against the untraced burst is the tracing overhead.
        result.add("trace.overhead_pct",
                   100.0
                       * (ratio(layerSeconds(layers, "compile.job"),
                                compileSeconds)
                          - 1.0),
                   "%");
        reportSpans(tracer, options);
    }
    server.stop();
    if (!options.trace)
        result.add("peak_rss_mb", peakRssMb(), "MB");
    return result;
}

Result
runServe(const Options &options, Clock::time_point start)
{
    Result result;
    const TrafficShape shape =
        options.workload == Workload::ServeBulk ? bulkShape : smallShape;
    const bool duringCompile =
        options.workload == Workload::ServeDuringCompile;
    service::Server server;
    server.start();

    // One serving job's time varies by a fifth from run to run (the
    // trainer's per-minibatch fork/join magnifies any CPU stolen from
    // one pool thread), so compile_s always covers several jobs run back
    // to back: two in set-up, or serve_during_compile's three re-publish
    // jobs after one set-up job. The first set-up job's model serves.
    std::vector<JobOutcome> served;
    double compileSeconds = runJobs(
        server, std::vector<JobDesign>(duringCompile ? 1 : 2, servingJob),
        served);
    std::size_t certified = checkJobs(result, served);
    const std::vector<float> rows =
        drawRows(servingJob.benchmark, options.seed, shape.distinctRows(),
                 shape.rowsPerDataset);
    const std::size_t width = inputWidth(servingJob.benchmark);
    std::vector<Request> requests;
    appendRequests(served.front().id, rows, width, shape.rowsPerBody,
                   requests);
    std::vector<std::string> references(requests.size());
    // The traced replay's model, one the timed traffic never reaches:
    // the second set-up job's, or serve_during_compile's last
    // re-published one (set by its windows).
    std::string idleModel = served.back().id;
    const double setupSeconds = secondsBetween(start, Clock::now());

    // serve_during_compile's timed window is a burst of re-publish
    // jobs, first submit to last done; the others serve for a fixed time.
    // The traced run has three such windows, so each takes one job there
    // to keep the run short; its per-layer numbers have no bound.
    const std::size_t burst = options.trace ? 1 : 3;
    const auto serveWindow = [&](double seconds) {
        return [&, seconds] {
            if (!duringCompile) {
                sleepFor(seconds);
                return;
            }
            std::vector<JobOutcome> republished;
            compileSeconds = runJobs(
                server, std::vector<JobDesign>(burst, servingJob),
                republished);
            certified += checkJobs(result, republished);
            idleModel = republished.back().id;
        };
    };

    if (!options.trace) {
        Tracer off(false);
        const TrafficResult traffic = runClosedLoop(
            server.port(), requests, references, shape.connections, off,
            serveWindow(options.seconds));
        result.add("setup_s", setupSeconds, "s");
        result.add("compile_s", compileSeconds, "s");
        result.add("models_certified", static_cast<double>(certified),
                   "count");
        addServeMetrics(result, traffic, duringCompile ? 1 : steadySlices,
                        requests, references);
    } else {
        // The same traffic untraced, then with a span per request.
        Tracer off(false);
        Tracer tracer(true);
        const double half = options.seconds / 2.0;
        const TrafficResult untraced = runClosedLoop(
            server.port(), requests, references, shape.connections, off,
            serveWindow(half));
        const TrafficResult traced = runClosedLoop(
            server.port(), requests, references, shape.connections,
            tracer, serveWindow(half));
        result.addTraffic(untraced);
        result.addTraffic(traced);
        const double overheadPct =
            100.0
            * (ratio(rowsPerSecond(untraced), rowsPerSecond(traced)) - 1.0);

        Lane &lane = tracer.lane("compile");
        const std::vector<Twin> twins =
            buildTwins(result, {servingJob}, lane);
        const double oneThreadSeconds = singleThreadTrain(result, twins);

        // The replay goes to a model the traffic above never reached, so
        // the stream its certificates cover is the replay's own, however
        // much traffic the timed windows sent.
        std::vector<Request> replayBodies;
        appendRequests(idleModel, rows, width, shape.rowsPerBody,
                       replayBodies);
        std::vector<std::string> replayReferences(replayBodies.size());
        const Target target{server.models().find(idleModel), &twins.front()};
        const double regions = regionsPerInvoke(replayBodies, target);
        const ReplayCounts counts = replay(server, replayBodies, target,
                                           replayReferences, tracer,
                                           serveWindow(half));
        result.attempted += counts.requests;
        result.failed += counts.failed;

        const auto layers = tracer.layers();
        addCompileLayers(result, layers, twins, oneThreadSeconds);
        addServeLayers(result, layers, counts, regions);
        result.add("trace.overhead_pct", overheadPct, "%");
        reportSpans(tracer, options);
    }
    server.stop();
    if (!options.trace)
        result.add("peak_rss_mb", peakRssMb(), "MB");
    return result;
}

bool
parseOptions(int argc, char **argv, Options &options)
{
    bool haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        char *end = nullptr;
        if (flag == "--workload") {
            options.workloadName = value;
            haveWorkload = true;
            if (value == "compile")
                options.workload = Workload::Compile;
            else if (value == "serve_bulk")
                options.workload = Workload::ServeBulk;
            else if (value == "serve_small")
                options.workload = Workload::ServeSmall;
            else if (value == "serve_during_compile")
                options.workload = Workload::ServeDuringCompile;
            else
                return false;
        } else if (flag == "--seed") {
            options.seed = std::strtoull(value.c_str(), &end, 10);
            haveSeed = *end == '\0' && !value.empty();
        } else if (flag == "--seconds") {
            options.seconds = std::strtod(value.c_str(), &end);
            haveSeconds = *end == '\0' && options.seconds > 0.0
                && options.seconds <= 600.0;
        } else if (flag == "--trace") {
            haveTrace = value == "0" || value == "1";
            options.trace = value == "1";
        } else if (flag == "--trace-file") {
            options.traceFile = value;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && haveWorkload && haveSeed && haveSeconds
        && haveTrace;
}

void
printResult(const Result &result)
{
    bool finite = true;
    Json::Object metrics;
    for (const Metric &metric : result.metrics) {
        finite = finite && std::isfinite(metric.value);
        Json::Object one;
        one.emplace("value",
                    Json(std::isfinite(metric.value) ? metric.value : 0.0));
        one.emplace("unit", Json(metric.unit));
        metrics.emplace(metric.name, Json(std::move(one)));
        std::printf("  %-32s %14.6g %s\n", metric.name.c_str(),
                    metric.value, metric.unit.c_str());
    }
    Json::Object out;
    out.emplace("correct", Json(finite && result.failed == 0));
    out.emplace("attempted", Json(result.attempted));
    out.emplace("failed", Json(result.failed));
    out.emplace("metrics", Json(std::move(metrics)));
    std::printf("%s\n", Json(std::move(out)).dump().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Clock::time_point start = Clock::now();
    Options options;
    if (!parseOptions(argc, argv, options)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload compile|serve_bulk|"
                     "serve_small|serve_during_compile --seed <n> "
                     "--seconds <s> --trace 0|1 [--trace-file <path>]\n");
        return 2;
    }
    setInformEnabled(false);
    std::printf("perfbench: workload %s, seed %llu, %g s, trace %d\n",
                options.workloadName.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0);
    const Result result = options.workload == Workload::Compile
        ? runCompile(options, start)
        : runServe(options, start);
    std::printf("  %-32s %14zu of %zu\n", "failed", result.failed,
                result.attempted);
    printResult(result);
    return 0;
}
