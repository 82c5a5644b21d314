#include "traffic.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "axbench/registry.hh"
#include "common/rng.hh"
#include "telemetry/json.hh"

namespace perfbench
{

namespace
{

using mithra::telemetry::Json;

/** A job's digest at the repository's seed commit. */
struct PinnedJob
{
    const char *benchmark;
    const char *design;
    JobDigest digest;
};

constexpr PinnedJob pinnedJobs[] = {
    {"blackscholes", "table",
     {0.38557074786010403, 0.92336000506549565, false}},
    {"fft", "table", {0.0064976807679763549, 0.92336000506549565, true}},
    {"inversek2j", "table",
     {0.07745241741251796, 0.92336000506549565, true}},
    {"jmeint", "table", {0.86421391229499989, 0.92336000506549565, true}},
    {"jpeg", "table", {16.451033582393318, 0.92336000506549565, false}},
    {"sobel", "table", {0.31972359120338317, 0.92336000506549565, true}},
    {"jmeint", "neural", {0.86421391229499989, 0.92336000506549565, true}},
};

/** The POST /jobs body of `job`. */
std::string
jobBody(const JobDesign &job)
{
    return "{\"benchmark\": \"" + job.benchmark + "\", \"design\": \""
        + job.design
        + "\", \"compileDatasets\": " + std::to_string(jobCompileDatasets)
        + ", \"npuTrainSamples\": " + std::to_string(jobNpuTrainSamples)
        + ", \"classifierTuples\": " + std::to_string(jobClassifierTuples)
        + ", \"shards\": " + std::to_string(jobShards)
        + ", \"watchdog\": true}";
}

/** Poll the job in-process until it ends, then check its result. */
void
awaitJob(service::Server &server, const JobDesign &job,
         JobOutcome &outcome)
{
    service::JobSnapshot snap;
    for (;;) {
        if (!server.jobs().snapshot(outcome.id, snap)) {
            outcome.problem = "job " + outcome.id + " vanished";
            return;
        }
        if (snap.state == service::JobState::Failed) {
            outcome.problem = "job " + outcome.id + " failed: " + snap.error;
            return;
        }
        if (snap.state == service::JobState::Done)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    const Json *threshold = snap.result.find("threshold");
    const Json *bound = snap.result.find("successLowerBound");
    const Json *enabled = snap.result.find("approximationEnabled");
    if (!threshold || !bound || !enabled
        || enabled->kind() != Json::Kind::Bool) {
        outcome.problem = "job " + outcome.id + " result is incomplete";
        return;
    }
    outcome.done = true;
    outcome.digest.threshold = threshold->asNumber();
    outcome.digest.successLowerBound = bound->asNumber();
    outcome.digest.approximationEnabled = enabled->asBool();
    outcome.problem = digestProblem(job, outcome.digest);
}

/** Position just past `"key": ` at or after `from`; npos if absent. */
std::size_t
valueAt(const std::string &body, const char *key, std::size_t from = 0)
{
    if (from == std::string::npos)
        return from;
    const std::string quoted = std::string("\"") + key + "\": ";
    const std::size_t at = body.find(quoted, from);
    return at == std::string::npos ? at : at + quoted.size();
}

} // namespace

std::string
digestProblem(const JobDesign &job, const JobDigest &digest)
{
    for (const PinnedJob &pinned : pinnedJobs) {
        if (job.benchmark != pinned.benchmark || job.design != pinned.design)
            continue;
        if (digest.threshold == pinned.digest.threshold
            && digest.successLowerBound == pinned.digest.successLowerBound
            && digest.approximationEnabled
                == pinned.digest.approximationEnabled)
            return "";
        break;
    }
    char text[256];
    std::snprintf(text, sizeof(text),
                  "%s/%s certified {%.17g, %.17g, %s}, not the pinned "
                  "digest",
                  job.benchmark.c_str(), job.design.c_str(),
                  digest.threshold, digest.successLowerBound,
                  digest.approximationEnabled ? "true" : "false");
    return text;
}

double
runJobs(service::Server &server, const std::vector<JobDesign> &jobs,
        std::vector<JobOutcome> &outcomes)
{
    outcomes.assign(jobs.size(), JobOutcome{});
    const Clock::time_point begin = Clock::now();
    {
        // Closed before the jobs finish: a keep-alive connection holds
        // one of the server's connection workers until it closes.
        service::HttpClient client(server.port());
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            const service::ClientResult reply =
                client.post("/jobs", jobBody(jobs[j]));
            const mithra::telemetry::ParseResult parsed =
                mithra::telemetry::parseJson(reply.body);
            const Json *id = parsed.ok ? parsed.value.find("id") : nullptr;
            if (!reply.ok || reply.status != 202 || !id
                || id->kind() != Json::Kind::String) {
                outcomes[j].problem = "POST /jobs refused "
                    + jobs[j].benchmark + "/" + jobs[j].design + ": "
                    + (reply.ok ? reply.body : reply.error);
                continue;
            }
            outcomes[j].id = id->asString();
        }
    }
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        if (!outcomes[j].id.empty())
            awaitJob(server, jobs[j], outcomes[j]);
    }
    return secondsBetween(begin, Clock::now());
}

std::size_t
inputWidth(const std::string &benchmark)
{
    return mithra::axbench::makeBenchmark(benchmark)->npuTopology().front();
}

std::vector<float>
drawRows(const std::string &benchmark, std::uint64_t seed,
         std::size_t count, std::size_t perDataset)
{
    const std::unique_ptr<mithra::axbench::Benchmark> bench =
        mithra::axbench::makeBenchmark(benchmark);
    const std::size_t width = bench->npuTopology().front();
    std::vector<float> rows;
    rows.reserve(count * width);
    std::uint64_t state = seed;
    while (rows.size() < count * width) {
        const auto dataset = bench->makeDataset(mithra::splitMix64(state));
        const mithra::axbench::InvocationTrace trace =
            bench->trace(*dataset);
        const std::size_t take = std::min(
            {perDataset, trace.count(), count - rows.size() / width});
        const auto flat = trace.inputsFlat();
        rows.insert(rows.end(), flat.begin(),
                    flat.begin() + static_cast<std::ptrdiff_t>(take * width));
    }
    return rows;
}

void
appendRequests(const std::string &model, const std::vector<float> &rows,
               std::size_t width, std::size_t rowsPerBody,
               std::vector<Request> &out)
{
    // The model splits a body into jobShards contiguous shards, each
    // with its own watchdog, and intersects their violation envelopes.
    // Traffic that cycles through a body set gives each shard a fixed
    // row set; shards with different row sets see violation rates a few
    // violating rows apart, and once enough audits have narrowed their
    // envelopes the merged one inverts (lower > upper). So each shard
    // of a body gets the same `quarter` rows, starting at row `first`.
    const std::size_t total = rows.size() / width;
    const std::size_t quarter = rowsPerBody / jobShards;
    for (std::size_t first = 0; first + quarter <= total; first += quarter) {
        Request request;
        request.rows = rowsPerBody;
        for (std::size_t p = 0; p < rowsPerBody; ++p) {
            const std::size_t row = first + p % quarter;
            request.inputs.insert(
                request.inputs.end(),
                rows.begin() + static_cast<std::ptrdiff_t>(row * width),
                rows.begin() + static_cast<std::ptrdiff_t>((row + 1) * width));
        }
        // %.9g round-trips every float, so the server decodes exactly
        // request.inputs.
        std::string &body = request.body;
        body = "{\"model\": \"" + model + "\", \"inputs\": [";
        char cell[32];
        for (std::size_t i = 0; i < rowsPerBody; ++i) {
            body += i ? ",[" : "[";
            for (std::size_t j = 0; j < width; ++j) {
                if (j)
                    body += ',';
                std::snprintf(cell, sizeof(cell), "%.9g",
                              static_cast<double>(
                                  request.inputs[i * width + j]));
                body += cell;
            }
            body += ']';
        }
        body += "]}";
        out.push_back(std::move(request));
    }
}

std::string
checkInvoke(const service::ClientResult &reply, std::size_t rows,
            std::string &reference)
{
    if (!reply.ok)
        return "transport: " + reply.error;
    if (reply.status != 200)
        return "status " + std::to_string(reply.status) + ": "
            + reply.body.substr(0, 200);

    // The server writes sorted keys, one value per line, so the fields
    // the checks need are found by key without building a value tree;
    // a full parse here would slow the closed loop it is timing.
    const std::string &body = reply.body;
    const std::size_t forced = valueAt(body, "forcedPrecise");
    const std::size_t envelope = valueAt(body, "envelope");
    const std::size_t lower = valueAt(body, "lower", envelope);
    const std::size_t upper = valueAt(body, "upper", envelope);
    const std::size_t decisions = valueAt(body, "decisions");
    if (forced == std::string::npos || lower == std::string::npos
        || upper == std::string::npos || decisions == std::string::npos)
        return "reply lacks decisions or certificate fields";

    std::string served;
    served.reserve(rows);
    for (std::size_t i = decisions + 1; i < body.size() && body[i] != ']';
         ++i) {
        if (body[i] == '0' || body[i] == '1')
            served.push_back(body[i]);
    }
    if (served.size() != rows)
        return std::to_string(served.size()) + " decisions for "
            + std::to_string(rows) + " rows";
    if (std::strtod(body.c_str() + lower, nullptr)
        > std::strtod(body.c_str() + upper, nullptr))
        return "certificate envelope has lower > upper";
    if (std::strtoll(body.c_str() + forced, nullptr, 10) == 0) {
        if (reference.empty())
            reference = std::move(served);
        else if (served != reference)
            return "decisions differ from the body's first reply";
    }
    return "";
}

double
acceleratedShare(const std::vector<Request> &requests,
                 const std::vector<std::string> &references)
{
    std::size_t rows = 0;
    std::size_t accelerated = 0;
    for (std::size_t r = 0; r < requests.size(); ++r) {
        if (references[r].empty())
            return -1.0;
        rows += requests[r].rows;
        accelerated += static_cast<std::size_t>(
            std::count(references[r].begin(), references[r].end(), '1'));
    }
    return rows ? static_cast<double>(accelerated) / static_cast<double>(rows)
                : -1.0;
}

void
noteFailure(const std::string &what)
{
    static std::atomic<int> printed{0};
    if (printed.fetch_add(1) < 5)
        std::fprintf(stderr, "perfbench: failed: %s\n", what.c_str());
}

TrafficResult
runClosedLoop(std::uint16_t port, const std::vector<Request> &requests,
              std::vector<std::string> &references, std::size_t connections,
              Tracer &tracer, const std::function<void()> &whileRunning)
{
    std::vector<TrafficResult> perThread(
        std::min(connections, requests.size()));
    std::vector<Lane *> lanes;
    for (std::size_t t = 0; t < perThread.size(); ++t)
        lanes.push_back(&tracer.lane("traffic-" + std::to_string(t)));

    // Thread t alone sends request t + k * stride, so it alone touches
    // references[t + k * stride].
    const std::size_t stride = perThread.size();
    const Clock::time_point begin = Clock::now();
    const auto send = [&](std::size_t t, const std::atomic<bool> &stop) {
        service::HttpClient client(port);
        TrafficResult &mine = perThread[t];
        std::uint64_t serial = 0;
        for (std::size_t next = t; !stop.load(std::memory_order_relaxed);) {
            const Request &request = requests[next];
            const Clock::time_point sent = Clock::now();
            service::ClientResult reply;
            {
                const Lane::Scope span(*lanes[t], "client.request",
                                       (std::uint64_t{t} << 40) | serial++);
                reply = client.post("/invoke", request.body);
            }
            const Clock::time_point received = Clock::now();
            const std::string problem =
                checkInvoke(reply, request.rows, references[next]);
            mine.attempted += 1;
            mine.exchanges.push_back({secondsBetween(begin, received),
                                      secondsBetween(sent, received),
                                      problem.empty() ? request.rows : 0});
            if (!problem.empty()) {
                mine.failed += 1;
                noteFailure("/invoke of body " + std::to_string(next)
                            + " after " + std::to_string(mine.attempted)
                            + " requests: " + problem);
            }
            next += stride;
            if (next >= requests.size())
                next = t;
        }
    };

    {
        std::atomic<bool> stop{false};
        std::vector<std::thread> threads;
        // Stops and joins the senders on every exit path.
        struct Joiner
        {
            std::atomic<bool> &stop;
            std::vector<std::thread> &threads;
            ~Joiner()
            {
                stop.store(true);
                for (std::thread &thread : threads)
                    thread.join();
            }
        } joiner{stop, threads};
        for (std::size_t t = 0; t < perThread.size(); ++t)
            threads.emplace_back(send, t, std::cref(stop));
        whileRunning();
    }

    TrafficResult total;
    total.seconds = secondsBetween(begin, Clock::now());
    for (const TrafficResult &one : perThread) {
        total.attempted += one.attempted;
        total.failed += one.failed;
        total.exchanges.insert(total.exchanges.end(),
                               one.exchanges.begin(), one.exchanges.end());
    }
    return total;
}

} // namespace perfbench
