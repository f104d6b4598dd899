/** @file Tests for platform probing and roofline plotting. */

#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "roofline/platform.hh"
#include "roofline/plot.hh"
#include "sim/machine.hh"

namespace
{

using namespace rfl;
using namespace rfl::roofline;

class PlatformTest : public ::testing::Test
{
  protected:
    PlatformTest()
        : machine_(sim::MachineConfig::defaultPlatform()),
          probe_(machine_)
    {
    }

    sim::Machine machine_;
    PlatformProbe probe_;
};

TEST_F(PlatformTest, ComputePeakMatchesConfiguredPeak)
{
    const double peak = probe_.computePeak({0}, 4, true);
    EXPECT_NEAR(peak, machine_.config().core.peakFlopsPerSec(4),
                0.02 * peak);
}

TEST_F(PlatformTest, ComputePeakScalesWithWidthAndFma)
{
    const double scalar_nofma = probe_.computePeak({0}, 1, false);
    const double scalar_fma = probe_.computePeak({0}, 1, true);
    const double avx_fma = probe_.computePeak({0}, 4, true);
    EXPECT_NEAR(scalar_fma / scalar_nofma, 2.0, 0.05);
    EXPECT_NEAR(avx_fma / scalar_fma, 4.0, 0.1);
}

TEST_F(PlatformTest, ComputePeakScalesWithCores)
{
    const double one = probe_.computePeak({0}, 4, true);
    const double four = probe_.computePeak({0, 1, 2, 3}, 4, true);
    EXPECT_NEAR(four / one, 4.0, 0.1);
}

TEST_F(PlatformTest, SingleCoreBandwidthBelowPerCoreCap)
{
    const BandwidthResult r = probe_.bandwidthPeak({0}, BwProbe::NtSet);
    EXPECT_LE(r.bytesPerSec,
              machine_.config().perCoreDramGBs * 1e9 * 1.01);
    EXPECT_GT(r.bytesPerSec,
              machine_.config().perCoreDramGBs * 1e9 * 0.5);
}

TEST_F(PlatformTest, SocketBandwidthExceedsSingleCore)
{
    const BandwidthResult one = probe_.bandwidthPeak({0}, BwProbe::Triad);
    const BandwidthResult four =
        probe_.bandwidthPeak({0, 1, 2, 3}, BwProbe::Triad);
    EXPECT_GT(four.bytesPerSec, 1.5 * one.bytesPerSec);
    EXPECT_LE(four.bytesPerSec,
              machine_.config().socketDramGBs * 1e9 * 1.02);
}

TEST_F(PlatformTest, NtSetMovesFewerBytesPerUsefulByte)
{
    // Regular stores triple the traffic of the useful bytes (allocate
    // read + writeback); NT stores are 1:1.
    const BandwidthResult nt = probe_.bandwidthPeak({0}, BwProbe::NtSet);
    EXPECT_NEAR(nt.bytesPerSec, nt.usefulBytesPerSec,
                0.02 * nt.bytesPerSec);
    const BandwidthResult copy = probe_.bandwidthPeak({0}, BwProbe::Copy);
    EXPECT_GT(copy.bytesPerSec, 1.3 * copy.usefulBytesPerSec);
}

TEST_F(PlatformTest, CharacterizeProducesOrderedCeilings)
{
    const RooflineModel model = probe_.characterize({0});
    EXPECT_GE(model.computeCeilings().size(), 3u);
    EXPECT_GE(model.bandwidthCeilings().size(), 1u);
    EXPECT_LT(model.computeCeiling("scalar"),
              model.computeCeiling("AVX+FMA"));
    EXPECT_GT(model.ridgePoint(), 0.5);
    EXPECT_LT(model.ridgePoint(), 20.0);
}

TEST(PlatformProbeTest, CharacterizeBandwidthCeilingsMatchStandaloneProbes)
{
    // characterize() runs each flavor once; its ceilings must equal
    // what standalone probes of every flavor measure: "read" is the
    // Read probe, and the best-streaming ceiling (absent when Read
    // itself is fastest) is the maximum over all of them.
    sim::Machine machine(sim::MachineConfig::smallTestMachine());
    PlatformProbe probe(machine);
    const RooflineModel model = probe.characterize({0});

    double read = 0.0;
    BandwidthResult best;
    for (BwProbe flavor : allBwProbes()) {
        const BandwidthResult r = probe.bandwidthPeak({0}, flavor);
        if (flavor == BwProbe::Read)
            read = r.bytesPerSec;
        if (r.bytesPerSec > best.bytesPerSec)
            best = r;
    }
    ASSERT_GT(read, 0.0);
    EXPECT_EQ(model.bandwidthCeiling("read"), read);
    EXPECT_EQ(model.peakBandwidth(), best.bytesPerSec);
    if (best.probe == BwProbe::Read) {
        EXPECT_EQ(model.bandwidthCeilings().size(), 1u);
    } else {
        ASSERT_EQ(model.bandwidthCeilings().size(), 2u);
        EXPECT_EQ(model.bandwidthCeiling(bwProbeName(best.probe)),
                  best.bytesPerSec);
    }
}

/** @return the cores of @p config's last socket. */
std::vector<int>
lastSocketCores(const sim::MachineConfig &config)
{
    std::vector<int> cores;
    for (int c = 0; c < config.coresPerSocket; ++c)
        cores.push_back((config.sockets - 1) * config.coresPerSocket + c);
    return cores;
}

TEST(PlatformProbeTest, FoldOfIndependentProbesEqualsCharacterize)
{
    // The campaign executor runs the compute half and each bandwidth
    // flavor on a fresh machine of its own, then folds them. That must
    // give characterize()'s model on one machine, bit for bit. A
    // second socket makes numa=local and numa=socket0 differ for the
    // last socket's cores.
    sim::MachineConfig twoSockets = sim::MachineConfig::smallTestMachine();
    twoSockets.sockets = 2;
    for (const sim::MachineConfig &config :
         {sim::MachineConfig::smallTestMachine(), twoSockets}) {
        for (sim::MemPolicy policy :
             {sim::MemPolicy::LocalToAccessor, sim::MemPolicy::Socket0}) {
            const auto machine = [&] {
                auto m = std::make_unique<sim::Machine>(config);
                m->setMemPolicy(policy);
                return m;
            };
            const auto serial = machine();
            for (const std::vector<int> &cores :
                 {std::vector<int>{0}, lastSocketCores(config)}) {
                SCOPED_TRACE(std::to_string(config.sockets) +
                             " socket(s), " + std::to_string(cores.size()) +
                             " core(s), policy " +
                             std::to_string(static_cast<int>(policy)));
                const RooflineModel want =
                    PlatformProbe(*serial).characterize(cores);
                // Flavors in reverse: the order they run in is free.
                std::vector<BandwidthResult> flavors(allBwProbes().size());
                for (size_t i = flavors.size(); i-- > 0;) {
                    flavors[i] = PlatformProbe(*machine())
                                     .bandwidthPeak(cores, allBwProbes()[i]);
                }
                const RooflineModel got = foldCeilings(
                    PlatformProbe(*machine()).computeCeilings(cores),
                    flavors);

                for (const auto &[w, g] :
                     {std::pair(&want.computeCeilings(),
                                &got.computeCeilings()),
                      std::pair(&want.bandwidthCeilings(),
                                &got.bandwidthCeilings())}) {
                    ASSERT_EQ(w->size(), g->size());
                    for (size_t i = 0; i < w->size(); ++i) {
                        EXPECT_EQ((*w)[i].name, (*g)[i].name);
                        EXPECT_EQ((*w)[i].value, (*g)[i].value);
                    }
                }
            }
        }
    }
}

TEST(PlatformScenarios, CoreSetHelpers)
{
    sim::Machine machine(sim::MachineConfig::defaultPlatform());
    EXPECT_EQ(singleThreadCores(machine), std::vector<int>{0});
    EXPECT_EQ(oneSocketCores(machine).size(), 4u);
    EXPECT_EQ(allCores(machine).size(), 8u);
    EXPECT_EQ(scenarioName(machine, {0}), "single core");
    EXPECT_EQ(scenarioName(machine, oneSocketCores(machine)),
              "single socket");
    EXPECT_EQ(scenarioName(machine, allCores(machine)), "2 sockets");
    EXPECT_EQ(scenarioName(machine, {0, 1}), "2 cores");
}

RooflineModel
toyModel()
{
    RooflineModel m;
    m.addComputeCeiling("scalar", 5e9);
    m.addComputeCeiling("AVX+FMA", 40e9);
    m.addBandwidthCeiling("stream", 14e9);
    return m;
}

TEST(Plot, PointsAndTable)
{
    RooflinePlot plot("test", toyModel());
    plot.addPoint("mem-bound", 0.1, 1.2e9);
    plot.addPoint("comp-bound", 10.0, 30e9);
    EXPECT_EQ(plot.points().size(), 2u);

    const rfl::Table table = plot.pointTable();
    const std::string text = table.toString();
    EXPECT_NE(text.find("mem-bound"), std::string::npos);
    EXPECT_NE(text.find("comp-bound"), std::string::npos);
}

TEST(Plot, RejectsDegeneratePoints)
{
    RooflinePlot plot("test", toyModel());
    plot.addPoint("inf", std::numeric_limits<double>::infinity(), 1e9);
    plot.addPoint("zero-oi", 0.0, 1e9);
    plot.addPoint("zero-perf", 1.0, 0.0);
    EXPECT_TRUE(plot.points().empty());
}

TEST(Plot, InCachePointsSkipQuietlyDegenerateOnesWarn)
{
    // A warm point with zero DRAM traffic (I = +inf) is a normal
    // result and is skipped without a line on stderr; NaN, zero and
    // negative inputs each still warn.
    RooflinePlot plot("test", toyModel());
    ::testing::internal::CaptureStderr();
    plot.addPoint("in-cache", std::numeric_limits<double>::infinity(),
                  1e9);
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");

    const std::pair<double, double> degenerate[] = {
        {std::numeric_limits<double>::quiet_NaN(), 1e9},
        {0.0, 1e9},
        {-1.0, 1e9},
        {1.0, 0.0},
        {1.0, -1e9},
        {std::numeric_limits<double>::infinity(), 0.0},
    };
    for (const auto &[oi, perf] : degenerate) {
        ::testing::internal::CaptureStderr();
        plot.addPoint("bad", oi, perf);
        const std::string err = ::testing::internal::GetCapturedStderr();
        EXPECT_NE(err.find("skipping point 'bad'"), std::string::npos)
            << "I=" << oi << " P=" << perf << ": '" << err << "'";
    }
    EXPECT_TRUE(plot.points().empty());
}

TEST(Plot, AsciiRenderContainsRoofAndPoints)
{
    RooflinePlot plot("ascii-test", toyModel());
    plot.addPoint("k1", 0.1, 1.0e9);
    const std::string art = plot.renderAscii();
    EXPECT_NE(art.find('='), std::string::npos);  // roof
    EXPECT_NE(art.find('/'), std::string::npos);  // bandwidth ceiling
    EXPECT_NE(art.find("point 'a'"), std::string::npos);
    EXPECT_NE(art.find("ridge"), std::string::npos);
}

TEST(Plot, GnuplotFilesWritten)
{
    const std::string dir = "/tmp/rfl_plot_test";
    std::filesystem::remove_all(dir);
    RooflinePlot plot("gp-test", toyModel());
    plot.addPoint("k", 1.0, 5e9);
    const std::string gp = plot.writeGnuplot(dir, "fig_test");
    EXPECT_TRUE(std::filesystem::exists(gp));
    EXPECT_TRUE(std::filesystem::exists(dir + "/fig_test.dat"));
    std::ifstream in(dir + "/fig_test.dat");
    std::string all((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    EXPECT_NE(all.find("# series"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(Plot, MeasurementIntegration)
{
    RooflinePlot plot("m", toyModel());
    Measurement m;
    m.kernel = "daxpy";
    m.sizeLabel = "n=8";
    m.protocol = "cold";
    m.flops = 1000;
    m.trafficBytes = 10000;
    m.seconds = 1e-6;
    plot.addMeasurement(m);
    ASSERT_EQ(plot.points().size(), 1u);
    EXPECT_DOUBLE_EQ(plot.points()[0].oi, 0.1);
    EXPECT_NE(plot.points()[0].label.find("daxpy"), std::string::npos);
}

} // namespace
