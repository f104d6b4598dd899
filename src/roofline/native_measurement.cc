#include "roofline/native_measurement.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "support/logging.hh"

namespace rfl::roofline
{

namespace
{

double
nowSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

/**
 * The LLC size assumed when the host reports none. Large, so that the
 * cold protocol's eviction buffer still displaces a big server LLC.
 */
constexpr uint64_t kFallbackLlcBytes = 32ull << 20;

/** @return a sysfs cache size ("32K", "1024K", "105M") in bytes, 0 if
 *  it does not read as one. */
uint64_t
parseSysfsSize(const std::string &text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (end == text.c_str())
        return 0;
    switch (*end) {
      case 'K': return v << 10;
      case 'M': return v << 20;
      case 'G': return v << 30;
      case '\0': return v;
      default: return 0;
    }
}

uint64_t
readHostLlcBytes()
{
#ifdef _SC_LEVEL3_CACHE_SIZE
    const long l3 = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (l3 > 0)
        return static_cast<uint64_t>(l3);
#endif
    uint64_t largest = 0;
    for (int i = 0;; ++i) {
        std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                         std::to_string(i) + "/size");
        std::string text;
        if (!(in >> text))
            break;
        largest = std::max(largest, parseSysfsSize(text));
    }
    if (largest > 0)
        return largest;
    warn("host LLC size unknown; assuming %llu MiB",
         static_cast<unsigned long long>(kFallbackLlcBytes >> 20));
    return kFallbackLlcBytes;
}

/** Run @p kernel once across @p nparts host threads into @p total. */
void
runOnce(kernels::Kernel &kernel, int nparts, int lanes, bool useFma,
        kernels::NativeCounters &total)
{
    if (nparts == 1) {
        kernels::NativeEngine engine(lanes, useFma);
        kernel.run(engine, 0, 1);
        total = engine.counters();
        return;
    }
    std::vector<kernels::NativeCounters> parts(
        static_cast<size_t>(nparts));
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(nparts));
    for (int p = 0; p < nparts; ++p) {
        threads.emplace_back([&, p]() {
            kernels::NativeEngine engine(lanes, useFma);
            kernel.run(engine, p, nparts);
            parts[static_cast<size_t>(p)] = engine.counters();
        });
    }
    for (std::thread &t : threads)
        t.join();
    total = kernels::NativeCounters{};
    for (const kernels::NativeCounters &c : parts) {
        for (size_t i = 0; i < 4; ++i)
            total.fpRetired[i] += c.fpRetired[i];
        total.loads += c.loads;
        total.stores += c.stores;
        total.otherUops += c.otherUops;
    }
}

} // namespace

uint64_t
hostLlcBytes()
{
    static const uint64_t bytes = readHostLlcBytes();
    return bytes;
}

int
hostLanes(const MeasureOptions &opts)
{
    return opts.lanes > 0 ? opts.lanes : 4;
}

NativeMeasurer::NativeMeasurer()
{
    if (pmu::PerfEventBackend::available())
        perf_ = std::make_unique<pmu::PerfEventBackend>();
}

NativeMeasurer::~NativeMeasurer() = default;

void
NativeMeasurer::evictCaches()
{
    const size_t doubles = static_cast<size_t>(2 * hostLlcBytes() / 8);
    if (evictBuffer_.size() < doubles)
        evictBuffer_.reset(doubles);
    // Write (not just read) so dirty kernel lines are displaced too.
    volatile double sink = 0.0;
    for (size_t i = 0; i < doubles; i += 8) {
        evictBuffer_[i] += 1.0;
        sink = evictBuffer_[i];
    }
    (void)sink;
}

NativeMeasurement
NativeMeasurer::measure(kernels::Kernel &kernel, const MeasureOptions &opts)
{
    RFL_ASSERT(!opts.cores.empty());
    RFL_ASSERT(opts.repetitions >= 1);
    const int threads = static_cast<int>(opts.cores.size());
    if (threads > 1 && !kernel.parallelizable()) {
        fatal("kernel '%s' does not support multi-threaded execution",
              kernel.name().c_str());
    }

    const int lanes = hostLanes(opts);
    const bool cold = opts.protocol == CacheProtocol::Cold;

    NativeMeasurement nm;
    nm.base = analyticRow(kernel, opts, lanes, hostLlcBytes());
    Measurement &m = nm.base;
    m.backend = "perf";

    kernel.init(opts.seed);
    if (!cold) {
        kernels::NativeCounters ignore;
        for (int i = 0; i < opts.warmupRuns; ++i)
            runOnce(kernel, threads, lanes, opts.useFma, ignore);
    }

    Sample perf_cycles, perf_llc;

    for (int rep = 0; rep < opts.repetitions; ++rep) {
        if (cold)
            evictCaches();

        kernels::NativeCounters counters;
        if (perf_)
            perf_->begin();
        const double t0 = nowSeconds();
        runOnce(kernel, threads, lanes, opts.useFma, counters);
        const double t1 = nowSeconds();
        if (perf_) {
            const pmu::Counts pc = perf_->end();
            // The row's quality is the worst multiplex fraction any
            // contributing counter saw across all repetitions.
            m.quality = std::min(m.quality, pc.minQuality());
            if (pc.supported(pmu::EventId::Cycles)) {
                perf_cycles.add(
                    static_cast<double>(pc.get(pmu::EventId::Cycles)));
            }
            if (pc.supported(pmu::EventId::L3Misses)) {
                perf_llc.add(64.0 * static_cast<double>(
                                        pc.get(pmu::EventId::L3Misses)));
            }
        }

        m.secondsSample.add(t1 - t0);
        m.flopsSample.add(static_cast<double>(counters.flops()));
    }

    m.flops = m.flopsSample.median();
    m.seconds = m.secondsSample.median();
    // Q is the analytic model on the native path (see file comment).
    m.trafficBytes = std::isnan(m.expectedTrafficBytes)
                         ? 0.0
                         : m.expectedTrafficBytes;
    for (size_t i = 0; i < m.secondsSample.count(); ++i)
        m.trafficSample.add(m.trafficBytes);

    nm.perfLive = !perf_cycles.empty();
    if (nm.perfLive) {
        nm.perfCycles = static_cast<uint64_t>(perf_cycles.median());
        nm.perfLlcBytes = perf_llc.median();
    }
    return nm;
}

} // namespace rfl::roofline
