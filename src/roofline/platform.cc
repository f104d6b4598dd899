#include "roofline/platform.hh"

#include <algorithm>
#include <utility>

#include "kernels/engine.hh"
#include "kernels/kernel.hh"
#include "support/aligned_buffer.hh"
#include "support/logging.hh"

namespace rfl::roofline
{

const char *
bwProbeName(BwProbe probe)
{
    switch (probe) {
      case BwProbe::Read: return "read";
      case BwProbe::Copy: return "copy";
      case BwProbe::Scale: return "scale";
      case BwProbe::Triad: return "triad";
      case BwProbe::NtSet: return "nt-set";
    }
    return "?";
}

std::vector<BwProbe>
allBwProbes()
{
    return {BwProbe::Read, BwProbe::Copy, BwProbe::Scale, BwProbe::Triad,
            BwProbe::NtSet};
}

PlatformProbe::PlatformProbe(sim::Machine &machine)
    : machine_(machine), backend_(machine)
{
}

double
PlatformProbe::computePeak(const std::vector<int> &cores, int lanes,
                           bool fma)
{
    RFL_ASSERT(!cores.empty());
    const sim::CoreConfig &cc = machine_.config().core;
    if (lanes == 0)
        lanes = cc.maxVectorDoubles;
    fma = fma && cc.hasFma;

    machine_.reset();
    constexpr uint64_t iters = 4000;
    constexpr int accs = 8; // enough independent chains to fill the pipes

    backend_.begin();
    double sink = 0.0;
    for (int core : cores) {
        kernels::SimEngine e(machine_, core, lanes, fma);
        if (lanes == 1) {
            double acc[accs];
            for (double &a : acc)
                a = 0.0;
            for (uint64_t i = 0; i < iters; ++i)
                for (double &a : acc)
                    a = e.fmadd(a, 1.0000001, 1e-9);
            for (double a : acc)
                sink += a;
        } else {
            kernels::Vec acc[accs];
            for (kernels::Vec &a : acc)
                a = e.vbroadcast(0.0);
            const kernels::Vec x = e.vbroadcast(1.0000001);
            const kernels::Vec y = e.vbroadcast(1e-9);
            for (uint64_t i = 0; i < iters; ++i)
                for (kernels::Vec &a : acc)
                    a = e.vfmadd(a, x, y);
            for (kernels::Vec &a : acc)
                sink += a[0];
        }
        e.loop(iters);
    }
    const pmu::Counts counts = backend_.end();
    RFL_ASSERT(counts.seconds() > 0);
    (void)sink;
    return counts.flops() / counts.seconds();
}

BandwidthResult
PlatformProbe::bandwidthPeak(const std::vector<int> &cores, BwProbe probe,
                             size_t buf_doubles)
{
    RFL_ASSERT(!cores.empty());
    const sim::MachineConfig &cfg = machine_.config();
    if (buf_doubles == 0) {
        const uint64_t llc_total =
            cfg.l3.sizeBytes * static_cast<uint64_t>(cfg.sockets);
        buf_doubles = static_cast<size_t>(2 * llc_total / 8);
    }

    // Canonical simulated addresses for the probe buffers, so measured
    // ceilings are reproducible (see support/address_arena.hh).
    AddressArena::Scope addresses;
    AlignedBuffer<double> a(buf_doubles);
    AlignedBuffer<double> b(probe == BwProbe::NtSet ? 0 : buf_doubles);
    AlignedBuffer<double> c(probe == BwProbe::Triad ? buf_doubles : 0);

    machine_.reset();
    machine_.flushAllCaches();
    machine_.resetStats();

    const int nparts = static_cast<int>(cores.size());
    double sink = 0.0;

    backend_.begin();
    for (int part = 0; part < nparts; ++part) {
        kernels::SimEngine e(machine_, cores[static_cast<size_t>(part)],
                             cfg.core.maxVectorDoubles, true);
        const auto [lo, hi] =
            kernels::partitionRange(buf_doubles, part, nparts);
        const int w = e.lanes();
        const kernels::Vec vs = e.vbroadcast(1.5);
        kernels::Vec acc = e.vbroadcast(0.0);
        size_t i = lo;
        for (; i + static_cast<size_t>(w) <= hi;
             i += static_cast<size_t>(w)) {
            switch (probe) {
              case BwProbe::Read:
                acc = e.vadd(acc, e.vload(b.data() + i));
                break;
              case BwProbe::Copy:
                e.vstore(a.data() + i, e.vload(b.data() + i));
                break;
              case BwProbe::Scale:
                e.vstore(a.data() + i, e.vmul(vs, e.vload(b.data() + i)));
                break;
              case BwProbe::Triad:
                e.vstore(a.data() + i,
                         e.vfmadd(vs, e.vload(c.data() + i),
                                  e.vload(b.data() + i)));
                break;
              case BwProbe::NtSet:
                e.vstoreNT(a.data() + i, vs);
                break;
            }
        }
        sink += e.vreduce(acc);
        e.loop((hi - lo) / static_cast<size_t>(w));
    }
    machine_.flushAllCaches(cores); // charge trailing writebacks
    const pmu::Counts counts = backend_.end();
    (void)sink;

    double useful_per_elem = 8.0;
    switch (probe) {
      case BwProbe::Read: useful_per_elem = 8.0; break;
      case BwProbe::Copy: useful_per_elem = 16.0; break;
      case BwProbe::Scale: useful_per_elem = 16.0; break;
      case BwProbe::Triad: useful_per_elem = 24.0; break;
      case BwProbe::NtSet: useful_per_elem = 8.0; break;
    }

    BandwidthResult r;
    r.probe = probe;
    RFL_ASSERT(counts.seconds() > 0);
    r.bytesPerSec =
        counts.trafficBytes(cfg.l1.lineBytes) / counts.seconds();
    r.usefulBytesPerSec =
        useful_per_elem * static_cast<double>(buf_doubles) /
        counts.seconds();
    return r;
}

RooflineModel
PlatformProbe::computeCeilings(const std::vector<int> &cores)
{
    const sim::CoreConfig &cc = machine_.config().core;
    RooflineModel model;

    auto width_name = [](int lanes) -> std::string {
        switch (lanes) {
          case 1: return "scalar";
          case 2: return "SSE";
          case 4: return "AVX";
          case 8: return "AVX-512";
        }
        return "w" + std::to_string(lanes);
    };

    model.addComputeCeiling(width_name(1), computePeak(cores, 1, false));
    if (cc.hasFma) {
        model.addComputeCeiling(width_name(1) + "+FMA",
                                computePeak(cores, 1, true));
    }
    if (cc.maxVectorDoubles > 1) {
        const int w = cc.maxVectorDoubles;
        model.addComputeCeiling(width_name(w),
                                computePeak(cores, w, false));
        if (cc.hasFma) {
            model.addComputeCeiling(width_name(w) + "+FMA",
                                    computePeak(cores, w, true));
        }
    }
    return model;
}

RooflineModel
PlatformProbe::characterize(const std::vector<int> &cores)
{
    RooflineModel model = computeCeilings(cores);
    std::vector<BandwidthResult> flavors;
    for (BwProbe probe : allBwProbes())
        flavors.push_back(bandwidthPeak(cores, probe));
    return foldCeilings(std::move(model), flavors);
}

RooflineModel
foldCeilings(RooflineModel compute,
             const std::vector<BandwidthResult> &flavors)
{
    RFL_ASSERT(flavors.size() == allBwProbes().size());
    // Read comes first, so it is both the "read" ceiling and the
    // initial best; a later flavor must beat it strictly to become the
    // best-streaming ceiling.
    const BandwidthResult &read = flavors.front();
    RFL_ASSERT(read.probe == BwProbe::Read);
    BandwidthResult best = read;
    for (const BandwidthResult &r : flavors)
        if (r.bytesPerSec > best.bytesPerSec)
            best = r;
    compute.addBandwidthCeiling("read", read.bytesPerSec);
    if (best.probe != BwProbe::Read) {
        compute.addBandwidthCeiling(std::string(bwProbeName(best.probe)),
                                    best.bytesPerSec);
    }
    return compute;
}

std::vector<int>
singleThreadCores(const sim::Machine &machine)
{
    (void)machine;
    return {0};
}

std::vector<int>
oneSocketCores(const sim::Machine &machine)
{
    std::vector<int> cores;
    for (int c = 0; c < machine.config().coresPerSocket; ++c)
        cores.push_back(c);
    return cores;
}

std::vector<int>
allCores(const sim::Machine &machine)
{
    std::vector<int> cores;
    for (int c = 0; c < machine.numCores(); ++c)
        cores.push_back(c);
    return cores;
}

std::string
scenarioName(const sim::Machine &machine, const std::vector<int> &cores)
{
    if (cores.size() == 1)
        return "single core";
    if (cores.size() ==
        static_cast<size_t>(machine.config().coresPerSocket)) {
        bool same_socket = true;
        for (int c : cores)
            same_socket &= machine.socketOf(c) == machine.socketOf(
                                                      cores.front());
        if (same_socket)
            return "single socket";
    }
    if (cores.size() == static_cast<size_t>(machine.numCores()))
        return std::to_string(machine.numSockets()) + " sockets";
    return std::to_string(cores.size()) + " cores";
}

} // namespace rfl::roofline
