#include "spans.hh"

#include <cstdio>

namespace perfbench
{

Lane::Scope::Scope(Lane &owner, const char *name, std::uint64_t request)
    : lane(owner)
{
    if (!lane.on)
        return;
    Span span;
    span.name = name;
    span.parent = lane.open.empty() ? -1 : lane.open.back();
    span.request = request;
    index = static_cast<int>(lane.recorded.size());
    lane.recorded.push_back(span);
    lane.open.push_back(index);
    // Stamp last, so the bookkeeping above stays outside the span.
    lane.recorded.back().begin = Clock::now();
}

Lane::Scope::~Scope()
{
    if (index < 0)
        return;
    lane.recorded[static_cast<std::size_t>(index)].end = Clock::now();
    lane.open.pop_back();
}

Lane &
Tracer::lane(const std::string &name)
{
    std::lock_guard<std::mutex> hold(mutex);
    lanes.push_back(std::make_unique<Lane>(name, on));
    return *lanes.back();
}

std::map<std::string, LayerTime>
Tracer::layers() const
{
    std::lock_guard<std::mutex> hold(mutex);
    std::map<std::string, LayerTime> out;
    for (const std::unique_ptr<Lane> &lane : lanes) {
        const std::vector<Span> &spans = lane->spans();
        std::vector<double> covered(spans.size(), 0.0);
        for (const Span &span : spans) {
            if (span.parent >= 0)
                covered[static_cast<std::size_t>(span.parent)] +=
                    secondsBetween(span.begin, span.end);
        }
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const double seconds =
                secondsBetween(spans[i].begin, spans[i].end);
            LayerTime &layer = out[spans[i].name];
            layer.totalSeconds += seconds;
            layer.selfSeconds += seconds - covered[i];
            layer.calls += 1;
        }
    }
    return out;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::lock_guard<std::mutex> hold(mutex);
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (!file)
        return false;
    std::fputs("{\"traceEvents\": [", file);
    const char *separator = "\n";
    for (std::size_t tid = 0; tid < lanes.size(); ++tid) {
        std::fprintf(file,
                     "%s{\"ph\": \"M\", \"pid\": 1, \"tid\": %zu, "
                     "\"name\": \"thread_name\", "
                     "\"args\": {\"name\": \"%s\"}}",
                     separator, tid, lanes[tid]->name().c_str());
        separator = ",\n";
        for (const Span &span : lanes[tid]->spans()) {
            std::fprintf(
                file,
                ",\n{\"ph\": \"X\", \"pid\": 1, \"tid\": %zu, "
                "\"name\": \"%s\", \"ts\": %.3f, \"dur\": %.3f, "
                "\"args\": {\"request\": %llu}}",
                tid, span.name, 1e6 * secondsBetween(origin, span.begin),
                1e6 * secondsBetween(span.begin, span.end),
                static_cast<unsigned long long>(span.request));
        }
    }
    std::fputs("\n]}\n", file);
    return std::fclose(file) == 0;
}

} // namespace perfbench
