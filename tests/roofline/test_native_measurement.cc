/** @file Tests for the native (host CPU) measurement path. */

#include <gtest/gtest.h>

#include "kernels/daxpy.hh"
#include "kernels/fft.hh"
#include "kernels/registry.hh"
#include "roofline/native_measurement.hh"

namespace
{

using namespace rfl;
using namespace rfl::roofline;

/** One cold repetition: each streams an eviction buffer of 2x the LLC. */
MeasureOptions
coldOnce()
{
    MeasureOptions opts;
    opts.repetitions = 1;
    return opts;
}

TEST(NativeMeasurer, WorkIsCounterExact)
{
    NativeMeasurer nm;
    kernels::Daxpy daxpy(1 << 16);
    MeasureOptions opts;
    opts.repetitions = 2;
    const NativeMeasurement r = nm.measure(daxpy, opts);
    EXPECT_DOUBLE_EQ(r.base.flops, 2.0 * (1 << 16));
    EXPECT_DOUBLE_EQ(r.base.workError(), 0.0);
    EXPECT_GT(r.base.seconds, 0.0);
}

TEST(NativeMeasurer, TrafficIsAnalyticModel)
{
    NativeMeasurer nm;
    kernels::Daxpy daxpy(1 << 14);
    const NativeMeasurement r = nm.measure(daxpy, coldOnce());
    EXPECT_EQ(r.trafficSource, "analytic");
    EXPECT_DOUBLE_EQ(r.base.trafficBytes,
                     daxpy.expectedColdTrafficBytes());
    EXPECT_GT(r.base.oi(), 0.0);
}

TEST(NativeMeasurer, ColdRowUsesTheHostLlc)
{
    // The fft traffic model picks its regime by the LLC it is told of.
    // An fft whose working set (24n bytes) lies above 8 MiB, the size
    // the host plane once assumed, but inside the host's own LLC must
    // report the fits-LLC model of 40n bytes. On a host whose LLC is
    // not above 8 MiB the largest fft that fits that LLC stands in.
    const uint64_t llc = hostLlcBytes();
    size_t n = 4;
    while (24 * n <= (8ull << 20) && 24 * (2 * n) <= llc)
        n *= 2;
    kernels::Fft fft(n);
    ASSERT_LE(fft.workingSetBytes(), llc);

    NativeMeasurer nm;
    const NativeMeasurement r = nm.measure(fft, coldOnce());
    EXPECT_EQ(fft.llcHintBytes(), llc);
    EXPECT_DOUBLE_EQ(r.base.expectedTrafficBytes, 40.0 * n) << "n=" << n;
    EXPECT_DOUBLE_EQ(r.base.trafficBytes, 40.0 * n) << "n=" << n;
}

TEST(NativeMeasurer, WarmProtocolUsesWarmModel)
{
    NativeMeasurer nm;
    kernels::Daxpy daxpy(1 << 12); // 64 KiB: resident in any LLC
    MeasureOptions opts;
    opts.protocol = CacheProtocol::Warm;
    opts.repetitions = 1;
    const NativeMeasurement r = nm.measure(daxpy, opts);
    EXPECT_DOUBLE_EQ(r.base.trafficBytes, 0.0);
    EXPECT_EQ(r.base.protocol, "warm");
    // lanes = 0 resolves to the 256-bit host engine.
    EXPECT_EQ(r.base.lanes, 4);
}

TEST(NativeMeasurer, MultiThreadedRunComputesSameWork)
{
    NativeMeasurer nm;
    const MeasureOptions one = coldOnce();
    MeasureOptions four = one;
    four.cores = {0, 1, 2, 3};

    kernels::Daxpy k1(1 << 16);
    const NativeMeasurement r1 = nm.measure(k1, one);
    kernels::Daxpy k4(1 << 16);
    const NativeMeasurement r4 = nm.measure(k4, four);

    EXPECT_DOUBLE_EQ(r1.base.flops, r4.base.flops);
    EXPECT_EQ(r4.base.cores, 4);
    // Same deterministic init, same result.
    EXPECT_DOUBLE_EQ(k1.checksum(), k4.checksum());
}

TEST(NativeMeasurer, RepetitionStatisticsPopulated)
{
    NativeMeasurer nm;
    kernels::Daxpy daxpy(1 << 12);
    MeasureOptions opts;
    opts.protocol = CacheProtocol::Warm;
    opts.repetitions = 5;
    const NativeMeasurement r = nm.measure(daxpy, opts);
    EXPECT_EQ(r.base.secondsSample.count(), 5u);
    EXPECT_EQ(r.base.flopsSample.count(), 5u);
    // Work is deterministic even though time is not.
    EXPECT_DOUBLE_EQ(r.base.flopsSample.cv(), 0.0);
}

TEST(NativeMeasurerDeath, NonParallelizableKernelRejectsThreads)
{
    NativeMeasurer nm;
    const auto fft = kernels::createKernel("fft:n=256");
    MeasureOptions opts;
    opts.cores = {0, 1};
    EXPECT_EXIT(nm.measure(*fft, opts), ::testing::ExitedWithCode(1),
                "multi-threaded");
}

TEST(NativeMeasurer, ScalarLanesWork)
{
    NativeMeasurer nm;
    kernels::Daxpy daxpy(1 << 12);
    MeasureOptions opts = coldOnce();
    opts.lanes = 1;
    const NativeMeasurement r = nm.measure(daxpy, opts);
    EXPECT_EQ(r.base.lanes, 1);
    EXPECT_DOUBLE_EQ(r.base.flops, 2.0 * (1 << 12));
}

TEST(NativeMeasurer, PerfFlagIsConsistent)
{
    NativeMeasurer nm;
    kernels::Daxpy daxpy(1 << 14);
    MeasureOptions opts;
    opts.repetitions = 2;
    const NativeMeasurement r = nm.measure(daxpy, opts);
    // With or without perf the row is complete: W from the engine's
    // software flop counters (exact), Q from the analytic model, and
    // labeled as such, so consumers never mistake it for silicon
    // counter data.
    EXPECT_EQ(r.trafficSource, "analytic");
    EXPECT_DOUBLE_EQ(r.base.flops, 2.0 * (1 << 14));
    EXPECT_DOUBLE_EQ(r.base.workError(), 0.0);
    EXPECT_DOUBLE_EQ(r.base.trafficBytes,
                     daxpy.expectedColdTrafficBytes());
    EXPECT_EQ(r.base.backend, "perf");
    EXPECT_TRUE(r.base.available);
    if (!nm.perfAvailable()) {
        // The path CI takes. No multiplexing can degrade counters that
        // were never opened: full quality.
        EXPECT_FALSE(r.perfLive);
        EXPECT_EQ(r.perfCycles, 0u);
        EXPECT_DOUBLE_EQ(r.base.quality, 1.0);
    } else {
        EXPECT_TRUE(r.perfLive);
        EXPECT_GT(r.perfCycles, 0u);
    }
}

} // namespace
