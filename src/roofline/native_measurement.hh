/**
 * @file
 * Native (host-CPU) measurement path.
 *
 * On real hardware the methodology runs exactly as in the paper: wall
 * time for T, PMU counters for W and Q where the kernel permits. This
 * measurer runs the instrumented kernels natively:
 *   - T from the steady clock, median over repetitions;
 *   - W from the engines' software retirement counters (instruction-
 *     exact, mirroring FP_ARITH semantics), cross-checked against the
 *     perf_event cycle/instruction counters when the kernel allows
 *     counting;
 *   - Q is not observable without uncore access, so the Measurement
 *     carries the analytic model (trafficSource tells the consumer);
 *     perf's generic LLC-miss estimate is recorded alongside when live.
 *
 * Both planes take the same MeasureOptions, so a campaign variant drives
 * either one unchanged. On the host the kernel is partitioned across
 * cores.size() threads, and lanes = 0 (the sim's "machine maximum")
 * resolves to the 256-bit engine (hostLanes()). The sim-region
 * mechanics are not used here: subtractOverhead, flushAfter, and the
 * core ids themselves (the threads are not pinned).
 *
 * Every quantity that depends on the last-level cache reads the host's
 * own LLC (hostLlcBytes()), never an assumed size: the kernel's LLC hint,
 * the warm/cold traffic model and the cold protocol's eviction. User
 * space evicts by streaming a buffer of twice the LLC between
 * repetitions, the rule the sim bandwidth probe follows too.
 */

#ifndef RFL_ROOFLINE_NATIVE_MEASUREMENT_HH
#define RFL_ROOFLINE_NATIVE_MEASUREMENT_HH

#include <memory>

#include "kernels/kernel.hh"
#include "pmu/perf_backend.hh"
#include "roofline/measurement.hh"
#include "support/aligned_buffer.hh"

namespace rfl::roofline
{

/**
 * @return the host's last-level cache size in bytes: glibc's
 * sysconf(_SC_LEVEL3_CACHE_SIZE), else the largest cpu0 cache in
 * /sys/devices/system/cpu/cpu0/cache, else a 32 MiB fallback (with one
 * warning per process). Read once and cached.
 */
uint64_t hostLlcBytes();

/** @return @p opts.lanes, or the 256-bit engine's 4 doubles for 0. */
int hostLanes(const MeasureOptions &opts);

/** A Measurement plus native-only context. */
struct NativeMeasurement
{
    Measurement base;
    /** "analytic" (always, for Q) — see file comment. */
    std::string trafficSource = "analytic";
    /** perf-estimated traffic (LLC misses x 64), 0 when unavailable. */
    double perfLlcBytes = 0.0;
    /** perf cycle count of the median repetition, 0 when unavailable. */
    uint64_t perfCycles = 0;
    bool perfLive = false;
};

/** Runs kernels on the host per the methodology above. */
class NativeMeasurer
{
  public:
    NativeMeasurer();
    ~NativeMeasurer();

    NativeMeasurer(const NativeMeasurer &) = delete;
    NativeMeasurer &operator=(const NativeMeasurer &) = delete;

    /** Measure @p kernel under @p opts (see file comment). */
    NativeMeasurement measure(kernels::Kernel &kernel,
                              const MeasureOptions &opts = {});

    /** @return whether perf counters are live on this host. */
    bool perfAvailable() const { return perf_ != nullptr; }

  private:
    /** Stream the eviction buffer (cold protocol). */
    void evictCaches();

    std::unique_ptr<pmu::PerfEventBackend> perf_;
    AlignedBuffer<double> evictBuffer_;
};

} // namespace rfl::roofline

#endif // RFL_ROOFLINE_NATIVE_MEASUREMENT_HH
