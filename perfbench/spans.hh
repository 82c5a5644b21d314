/**
 * @file
 * In-memory spans the benchmark records around its own calls into each
 * layer of the system (the library itself is not instrumented here).
 *
 * Each recording thread owns a Lane, so recording takes no lock. A span
 * keeps its name, start, end, the enclosing span of the same lane and a
 * request id shared by every span of one request or job. A layer's self
 * time is its span's duration minus the time its child spans cover.
 * With tracing off every Scope is a no-op, so the end-to-end runs pay
 * nothing for the instrumentation.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds between two clock readings. */
inline double
secondsBetween(Clock::time_point begin, Clock::time_point end)
{
    return std::chrono::duration<double>(end - begin).count();
}

/** One timed call. */
struct Span
{
    const char *name = "";
    Clock::time_point begin;
    Clock::time_point end;
    /** Index of the enclosing span in the same lane; -1 at the root. */
    int parent = -1;
    /** Shared by every span of one request or job. */
    std::uint64_t request = 0;
};

/** Time spent in one span name, summed over every lane. */
struct LayerTime
{
    double totalSeconds = 0.0;
    /** Total minus the time covered by child spans. */
    double selfSeconds = 0.0;
    std::size_t calls = 0;
};

/** One recording thread's spans. */
class Lane
{
  public:
    Lane(std::string laneName, bool enabled)
        : label(std::move(laneName)), on(enabled)
    {
    }

    Lane(const Lane &) = delete;
    Lane &operator=(const Lane &) = delete;

    /** Times the enclosing scope as one call into `name`. */
    class Scope
    {
      public:
        Scope(Lane &owner, const char *name, std::uint64_t request);
        ~Scope();

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Lane &lane;
        int index = -1;
    };

    const std::string &name() const { return label; }
    const std::vector<Span> &spans() const { return recorded; }

  private:
    std::string label;
    bool on;
    std::vector<Span> recorded;
    std::vector<int> open;
};

/** Owns the lanes of one run and folds them into per-layer times. */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : on(enabled) {}

    /** A new lane for one thread; valid for the tracer's lifetime. */
    Lane &lane(const std::string &name);

    /** Per-name total and self time over every lane. Call only after
     *  every recording thread has finished. */
    std::map<std::string, LayerTime> layers() const;

    /** Write every span as Chrome trace-event JSON; false on I/O error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    bool on;
    Clock::time_point origin = Clock::now();
    mutable std::mutex mutex;
    std::vector<std::unique_ptr<Lane>> lanes;
};

} // namespace perfbench
