/**
 * @file
 * Pure building blocks of the benchmark harness, kept free of I/O so
 * the harness's own tests can drive them with hand-built inputs:
 *
 *   - sample statistics: median, and the highest percentile that has
 *     at least kTailBeyond samples beyond it (nearest-rank);
 *   - the scheduler lower bound: critical path over a job DAG, and
 *     max(critical path, work / threads) as the cheap makespan bound;
 *   - an open-loop load runner: requests carry a *due* time fixed in
 *     advance by a fixed-rate schedule, a bounded set of client threads
 *     sends them, and every latency is measured from the due time, so
 *     a stall also charges the requests queued behind it;
 *   - the correctness ledger every workload reports through.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace perfbench
{

/** A tail percentile is reported only with this many samples beyond. */
constexpr size_t kTailBeyond = 10;

/** Nearest-rank percentile (0 < @p p <= 100); 0 when empty. */
double percentile(std::vector<double> values, double p);

/** Median (nearest-rank p50); 0 when empty. */
double median(const std::vector<double> &values);

/**
 * Highest percentile of {99.9, 99, 95, 90, 75, 50} that leaves at
 * least kTailBeyond of @p n samples beyond it; 0 when none does.
 */
double tailPercentileFor(size_t n);

/** Median, count and supported tail of one sample set. */
struct Summary
{
    size_t n = 0;
    double median = 0.0;
    double tailP = 0.0; ///< 0 when the sample supports no tail
    double tail = 0.0;
};

Summary summarize(const std::vector<double> &values);

/** Scheduler efficiency against the cheap makespan lower bound. */
struct ScheduleBound
{
    double criticalPath = 0.0; ///< longest dependency chain, seconds
    double work = 0.0;         ///< sum of job seconds
    double lowerBound = 0.0;   ///< max(criticalPath, work / threads)
    double efficiency = 0.0;   ///< wall / lowerBound (1 = optimal)
};

/**
 * @p deps[i] lists the jobs job i waits for; @p seconds[i] is its
 * duration. Panics on a cycle or an out-of-range dependency.
 */
ScheduleBound scheduleBound(const std::vector<std::vector<size_t>> &deps,
                            const std::vector<double> &seconds,
                            int threads, double wallSeconds);

/** One scheduled request of an open-loop step. */
struct Arrival
{
    double due = 0.0; ///< seconds after the step starts
    int kind = 0;     ///< caller-defined request class
    uint32_t arg = 0; ///< caller-defined parameter (e.g. scenario)
};

/**
 * Arrivals evenly spaced at @p rate per second over @p seconds; each
 * arrival's kind is drawn from @p weights (index = kind) and its arg
 * at random. Identical inputs give identical schedules.
 */
std::vector<Arrival> fixedRateSchedule(uint64_t seed, double rate,
                                       double seconds,
                                       const std::vector<double> &weights);

/** What happened to one arrival. Times are seconds after step start;
 *  sent/done stay negative when the request was never sent. */
struct Outcome
{
    double sent = -1.0;
    double done = -1.0;
    bool ok = false;
};

/** Sends one request on client @p client; @return success. */
using SendFn = std::function<bool(size_t client, const Arrival &)>;

/**
 * Drive @p schedule through @p clients threads: each thread takes the
 * next arrival, sleeps until it is due, sends it and records the
 * outcome. Arrivals still unsent @p graceSeconds after the last due
 * time are abandoned (they count as backlog, not as sent). Blocks
 * until every client thread has finished.
 */
std::vector<Outcome> runOpenLoop(const std::vector<Arrival> &schedule,
                                 size_t clients, double graceSeconds,
                                 const SendFn &send);

/** Latency of @p o measured from @p a's due time; +inf when the
 *  request failed or was never sent (it misses every limit). */
double latencyFromDue(const Arrival &a, const Outcome &o);

/** Requests due by @p t that had not completed at @p t. */
size_t backlogAt(const std::vector<Arrival> &schedule,
                 const std::vector<Outcome> &outcomes, double t);

/** Correctness ledger: every operation and every check goes here. */
class Ledger
{
  public:
    /** Count one attempted operation; record it failed unless @p ok. */
    bool expect(bool ok, const std::string &what);

    size_t attempted() const { return attempted_; }
    size_t failed() const { return failed_; }
    /** First few failure descriptions (bounded). */
    const std::vector<std::string> &failures() const { return failures_; }

  private:
    size_t attempted_ = 0;
    size_t failed_ = 0;
    std::vector<std::string> failures_;
};

/**
 * A served analysis body is correct only when it is byte-identical to
 * the in-process rendering of the same spec.
 */
bool analysisBodyMatches(int httpStatus, const std::string &served,
                         const std::string &expected);

/** FNV-1a digest of @p text as 16 hex digits. */
std::string digestHex(const std::string &text);

/** Expected analysis.json digests of one workload at one seed. */
struct ReferenceDigests
{
    std::string grid;   ///< the measured grid
    std::string served; ///< the served grid
};

/**
 * Look @p workload at @p seed up in the reference table @p tableJson,
 * {"<workload>": {"<seed>": {"grid": hex, "served": hex}}}; nullopt when
 * the table is malformed or has no such entry.
 */
std::optional<ReferenceDigests> findReference(const std::string &tableJson,
                                              const std::string &workload,
                                              uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
