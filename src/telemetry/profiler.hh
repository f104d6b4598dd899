/**
 * @file
 * Sampling profiler: where does the CPU time actually go?
 *
 * A POSIX interval timer (ITIMER_PROF) delivers SIGPROF every 1/hz of
 * *process CPU time*; the kernel delivers the signal to a thread that
 * is currently running, so samples land exactly where cycles are being
 * spent. (The issue's "wall-clock" framing is implemented as CPU-clock
 * sampling deliberately: SIGALRM/ITIMER_REAL is delivered to one
 * arbitrary thread — usually the idle main thread parked in sigwait —
 * which attributes everything to the wrong stack. For hot-spot
 * attribution in a thread-pooled service, CPU-time sampling is the
 * correct tool; idle time is already visible in the span tracer.)
 *
 * The signal handler is allocation-free and lock-free by construction:
 * all storage (maxSamples x maxDepth frame slots) is allocated in
 * start(), the handler claims a slot with one atomic fetch_add, calls
 * backtrace() straight into it, and returns. Once the ring is full,
 * samples are dropped and counted — memory is bounded no matter how
 * long the timer runs. backtrace() is primed once in start() (the
 * first call may dlopen libgcc, which must not happen inside a signal
 * handler).
 *
 * Everything downstream of the raw frames is ordinary code run after
 * stop(): dladdr + __cxa_demangle symbolization, collapse into
 * "root;child;leaf" -> count stacks (the Brendan Gregg collapsed
 * format), a strict-JSON export (kind "rfl-profile", schema v1) and a
 * dependency-free flamegraph SVG. The collapse and render steps are
 * free functions on plain data so tests drive them with synthetic
 * stacks, no signals involved.
 *
 * Off by default at runtime: no timer exists until start() is called.
 */

#ifndef RFL_TELEMETRY_PROFILER_HH
#define RFL_TELEMETRY_PROFILER_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace rfl::telemetry
{

/** Profiler knobs. */
struct ProfilerOptions
{
    /** Samples per second of process CPU time. Prime, so the timer
     *  cannot phase-lock with periodic work. */
    int hz = 997;
    /** Sample ring capacity; further samples are dropped + counted. */
    size_t maxSamples = 1 << 16;
    /** Frames kept per sample (deeper stacks are truncated). */
    size_t maxDepth = 64;
};

/** One collapsed stack: "root;child;leaf" and its sample count. */
struct CollapsedStack
{
    std::string stack;
    uint64_t count = 0;
};

/** A finished profile, symbolized and collapsed. */
struct Profile
{
    std::string label; ///< free-form ("serve /profilez", "campaign")
    int hz = 0;
    double seconds = 0.0; ///< wall time the timer was armed
    uint64_t samples = 0; ///< samples captured (<= ring capacity)
    uint64_t dropped = 0; ///< samples lost to a full ring
    std::vector<CollapsedStack> stacks; ///< sorted by count, desc
};

/**
 * The process profiler. A singleton by necessity — SIGPROF is
 * process-wide and the handler needs static storage — guarded so
 * concurrent start() calls cannot interleave.
 */
class Profiler
{
  public:
    static Profiler &instance();

    /**
     * Arm the timer. @return false (with no side effects) when the
     * profiler is already running.
     */
    bool start(ProfilerOptions opts = {});

    /**
     * Disarm, symbolize and collapse. Safe to call when not running
     * (returns an empty Profile). @p label is copied into the result.
     */
    Profile stop(const std::string &label);

    bool running() const;

  private:
    Profiler() = default;
};

/**
 * Aggregate raw symbolized stacks (root-first frame lists) into the
 * collapsed format, summing duplicates, sorted by count descending
 * (ties alphabetical, so output is deterministic).
 */
std::vector<CollapsedStack>
collapseStacks(const std::vector<std::vector<std::string>> &stacks);

/** Strict-JSON export: kind "rfl-profile", schema v1. */
std::string renderProfileJson(const Profile &profile);

/**
 * Dependency-free flamegraph SVG from collapsed stacks: root row at
 * the bottom, frame width proportional to inclusive sample count,
 * <title> tooltips carrying exact counts. Pure function of its
 * inputs.
 */
std::string renderFlamegraphSvg(const std::vector<CollapsedStack> &stacks,
                                const std::string &title);

} // namespace rfl::telemetry

#endif // RFL_TELEMETRY_PROFILER_HH
