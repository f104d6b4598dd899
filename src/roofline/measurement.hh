/**
 * @file
 * The measurement methodology — the paper's core contribution.
 *
 * A Measurer runs a kernel under a cache protocol on a set of simulated
 * cores and produces a Measurement: work W from the FP retirement
 * counters, traffic Q from the IMC CAS counters, runtime T from the
 * machine's timing model, each with framework overhead subtracted
 * (every region is measured twice, with and without the kernel body, and
 * the difference attributed to the kernel — §"counting work" of the
 * methodology).
 *
 * Cache protocols:
 *   - Cold: every repetition starts from flushed caches; optionally the
 *     region ends with a flush so trailing writebacks of dirty kernel
 *     lines are charged to the kernel (without it, up to one LLC worth of
 *     write traffic leaks out of the region — the validation bench A1/T3
 *     quantifies this).
 *   - Warm: the kernel runs once un-measured to prime the caches; then
 *     repetitions follow without flushing.
 */

#ifndef RFL_ROOFLINE_MEASUREMENT_HH
#define RFL_ROOFLINE_MEASUREMENT_HH

#include <memory>
#include <string>
#include <vector>

#include "kernels/kernel.hh"
#include "pmu/backend.hh"
#include "sim/machine.hh"
#include "support/statistics.hh"

namespace rfl::roofline
{

/** Cache-state protocol for a measured region. */
enum class CacheProtocol
{
    Cold,
    Warm,
};

/** @return "cold" or "warm". */
const char *protocolName(CacheProtocol protocol);

/** Knobs of one measurement. */
struct MeasureOptions
{
    CacheProtocol protocol = CacheProtocol::Cold;
    /** Repetitions (sim is deterministic; >1 exercises the statistics). */
    int repetitions = 2;
    /** Un-measured priming runs for the warm protocol. */
    int warmupRuns = 1;
    /** Subtract the empty-framework region's counters. */
    bool subtractOverhead = true;
    /** End cold regions with a cache flush to capture writebacks. */
    bool flushAfter = true;
    /** Simulated cores to run on (kernel is partitioned across them). */
    std::vector<int> cores = {0};
    /** Vector lanes for the engines (0 = machine maximum). */
    int lanes = 0;
    /** Use FMA when the machine has it. */
    bool useFma = true;
    /** Workload-initialization seed. */
    uint64_t seed = 42;
};

/** Result of measuring one kernel configuration. */
struct Measurement
{
    std::string kernel;
    std::string sizeLabel;
    std::string protocol;
    int cores = 1;
    int lanes = 1;

    double flops = 0.0;        ///< measured W (median over repetitions)
    double trafficBytes = 0.0; ///< measured Q
    double seconds = 0.0;      ///< measured T

    double expectedFlops = 0.0;        ///< analytic W
    double expectedTrafficBytes = 0.0; ///< analytic Q (may be NaN)

    Sample flopsSample;
    Sample trafficSample;
    Sample secondsSample;

    /**
     * Which measurement plane produced the row: "sim" (the simulated
     * machine — fully reproducible from MachineConfig) or "perf" (host
     * hardware through perf_event).
     */
    std::string backend = "sim";
    /**
     * Lowest multiplex quality fraction over the hardware counters the
     * row's numbers came from (pmu::Counts::minQuality()). 1.0 for sim
     * and for unmultiplexed hardware reads.
     */
    double quality = 1.0;
    /**
     * False for a "perf" placeholder row on a host where
     * perf_event_open is denied: labels are valid, numbers are not.
     */
    bool available = true;

    /** Operational intensity I = W / Q (inf when Q == 0). */
    double oi() const;
    /** Performance P = W / T in flops/s. */
    double perf() const;
    /** Relative error of measured vs analytic W. */
    double workError() const;
    /** Relative error of measured vs analytic Q (NaN if no model). */
    double trafficError() const;
};

/**
 * @return a row labelled for @p kernel under @p opts with the resolved
 * @p lanes, carrying the analytic W and the cold or warm analytic Q for
 * a last-level cache of @p llcSize, which also becomes the kernel's
 * LLC hint. Both measurement planes (and the executor's placeholder for
 * a host without perf) start every row here; the measured numbers are
 * left to the caller.
 */
Measurement analyticRow(kernels::Kernel &kernel, const MeasureOptions &opts,
                        int lanes, uint64_t llcSize);

/**
 * Runs kernels on a simulated machine per the methodology above.
 * The machine is reset()s between measurements; a Measurer owns the
 * machine's measurement-time configuration (prefetch stays whatever the
 * caller set it to).
 *
 * The counter path is abstract: the Measurer reads regions through a
 * pmu::Backend, so the same measurement protocol can later drive a
 * PerfEventBackend on real hardware. The single-argument constructor
 * keeps the common case convenient by owning a SimBackend over the
 * machine (this header deliberately depends only on pmu/backend.hh).
 *
 * Region boundaries and the batched engine: every region edge —
 * Backend::begin()/end() and the protocol's cache flushes — reads or
 * mutates machine state, which drains any attached batch source
 * (Machine::drainBatchSources), so buffered accesses are always counted
 * in the region that issued them and the Cold/Warm protocol counters
 * are bit-identical to per-access dispatch.
 */
class Measurer
{
  public:
    /** Measure through an owned SimBackend over @p machine. */
    explicit Measurer(sim::Machine &machine);

    /**
     * Measure through an external counter backend. @p backend must
     * report the work running on @p machine and outlive the Measurer.
     */
    Measurer(sim::Machine &machine, pmu::Backend &backend);

    /** Measure @p kernel under @p opts (see file comment for protocol). */
    Measurement measure(kernels::Kernel &kernel,
                        const MeasureOptions &opts = {});

    /** The machine this measurer drives. */
    sim::Machine &machine() { return machine_; }

    /** The counter backend regions are read through. */
    pmu::Backend &backend() { return backend_; }

  private:
    /** Run the kernel body once across opts.cores. */
    void runOnce(kernels::Kernel &kernel, const MeasureOptions &opts,
                 int lanes);

    sim::Machine &machine_;
    /** Backing storage when the Measurer owns its backend. */
    std::unique_ptr<pmu::Backend> owned_;
    pmu::Backend &backend_;
};

} // namespace rfl::roofline

#endif // RFL_ROOFLINE_MEASUREMENT_HH
