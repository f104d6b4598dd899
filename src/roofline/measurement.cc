#include "roofline/measurement.hh"

#include <cmath>
#include <limits>

#include "pmu/sim_backend.hh"
#include "support/logging.hh"

namespace rfl::roofline
{

const char *
protocolName(CacheProtocol protocol)
{
    return protocol == CacheProtocol::Cold ? "cold" : "warm";
}

double
Measurement::oi() const
{
    if (trafficBytes == 0.0)
        return std::numeric_limits<double>::infinity();
    return flops / trafficBytes;
}

double
Measurement::perf() const
{
    if (seconds <= 0.0)
        return 0.0;
    return flops / seconds;
}

double
Measurement::workError() const
{
    return relativeError(flops, expectedFlops);
}

double
Measurement::trafficError() const
{
    if (std::isnan(expectedTrafficBytes))
        return std::numeric_limits<double>::quiet_NaN();
    return relativeError(trafficBytes, expectedTrafficBytes);
}

Measurement
analyticRow(kernels::Kernel &kernel, const MeasureOptions &opts, int lanes,
            uint64_t llcSize)
{
    kernel.setLlcHintBytes(llcSize);
    Measurement m;
    m.kernel = kernel.name();
    m.sizeLabel = kernel.sizeLabel();
    m.protocol = protocolName(opts.protocol);
    m.cores = static_cast<int>(opts.cores.size());
    m.lanes = lanes;
    m.expectedFlops = kernel.expectedFlops();
    m.expectedTrafficBytes =
        opts.protocol == CacheProtocol::Cold
            ? kernel.expectedColdTrafficBytes()
            : kernel.expectedWarmTrafficBytes(llcSize);
    return m;
}

Measurer::Measurer(sim::Machine &machine)
    : machine_(machine),
      owned_(std::make_unique<pmu::SimBackend>(machine)),
      backend_(*owned_)
{
}

Measurer::Measurer(sim::Machine &machine, pmu::Backend &backend)
    : machine_(machine), backend_(backend)
{
}

void
Measurer::runOnce(kernels::Kernel &kernel, const MeasureOptions &opts,
                  int lanes)
{
    const int nparts = static_cast<int>(opts.cores.size());
    for (int part = 0; part < nparts; ++part) {
        kernels::SimEngine engine(machine_, opts.cores[
                                      static_cast<size_t>(part)],
                                  lanes, opts.useFma);
        kernel.run(engine, part, nparts);
    }
}

Measurement
Measurer::measure(kernels::Kernel &kernel, const MeasureOptions &opts)
{
    RFL_ASSERT(!opts.cores.empty());
    RFL_ASSERT(opts.repetitions >= 1);
    if (opts.cores.size() > 1 && !kernel.parallelizable()) {
        fatal("kernel '%s' does not support multi-core execution",
              kernel.name().c_str());
    }
    for (int core : opts.cores) {
        if (core < 0 || core >= machine_.numCores())
            fatal("core %d out of range for machine '%s'", core,
                  machine_.config().name.c_str());
    }

    const int lanes = opts.lanes == 0
                          ? machine_.config().core.maxVectorDoubles
                          : opts.lanes;
    const bool cold = opts.protocol == CacheProtocol::Cold;

    machine_.setDependentAccesses(kernel.dependentAccesses());
    Measurement m =
        analyticRow(kernel, opts, lanes, machine_.config().l3.sizeBytes);

    kernel.init(opts.seed);
    machine_.reset();

    if (!cold) {
        for (int i = 0; i < opts.warmupRuns; ++i)
            runOnce(kernel, opts, lanes);
    }

    const uint32_t line = machine_.config().l1.lineBytes;
    for (int rep = 0; rep < opts.repetitions; ++rep) {
        if (cold)
            machine_.flushAllCaches();

        // Framework-overhead region: identical mechanics, no kernel.
        pmu::Counts overhead;
        if (opts.subtractOverhead) {
            backend_.begin();
            if (cold && opts.flushAfter)
                machine_.flushAllCaches(opts.cores);
            overhead = backend_.end();
        }

        backend_.begin();
        runOnce(kernel, opts, lanes);
        if (cold && opts.flushAfter)
            machine_.flushAllCaches(opts.cores);
        pmu::Counts counts = backend_.end();
        if (opts.subtractOverhead)
            counts = counts.subtractClamped(overhead);

        m.flopsSample.add(counts.flops());
        m.trafficSample.add(counts.trafficBytes(line));
        m.secondsSample.add(counts.seconds());
    }

    m.flops = m.flopsSample.median();
    m.trafficBytes = m.trafficSample.median();
    m.seconds = m.secondsSample.median();

    machine_.setDependentAccesses(false);
    return m;
}

} // namespace rfl::roofline
