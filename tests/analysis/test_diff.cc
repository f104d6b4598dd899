/**
 * @file
 * The diff/regression engine: directional thresholds, missing-row
 * detection, and the inf-OI edge cases.
 */

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>

#include "analysis/analysis.hh"
#include "analysis/diff.hh"
#include "support/json.hh"

namespace
{

using namespace rfl;
using namespace rfl::analysis;

CampaignAnalysis
baseDoc()
{
    CampaignAnalysis doc;
    doc.campaign = "gate";
    Scenario s;
    s.machine = "m";
    s.variant = "v";
    s.model.addComputeCeiling("peak", 100e9);
    s.model.addBandwidthCeiling("stream", 10e9);
    doc.scenarios.push_back(s);

    KernelRow r;
    r.machine = "m";
    r.variant = "v";
    r.kernel = "triad";
    r.sizeLabel = "n=1024";
    r.protocol = "cold";
    r.flops = 1e9;
    r.trafficBytes = 1e9;
    r.seconds = 0.1;
    r.metrics = deriveMetrics(1.0, 1e10, s.model);
    doc.kernels.push_back(r);
    return doc;
}

TEST(AnalysisDiff, IdenticalDocumentsPass)
{
    const CampaignAnalysis doc = baseDoc();
    const DiffReport report = diffAnalyses(doc, doc);
    EXPECT_FALSE(report.hasRegressions());
    EXPECT_TRUE(report.missing.empty());
    EXPECT_TRUE(report.added.empty());
    // 2 scenario peaks + 4 kernel metrics compared.
    EXPECT_EQ(report.entries.size(), 6u);
}

TEST(AnalysisDecode, WrongShapeThrowsJsonError)
{
    // A member of the wrong type or a missing one must be catchable:
    // roofline_report --diff turns JsonError into exit status 2.
    const std::string text = encodeAnalysis(baseDoc());
    std::string bad = text;
    const std::string member = "\"kernel\":\"triad\"";
    const size_t at = bad.find(member);
    ASSERT_NE(at, std::string::npos) << text;
    bad.replace(at, member.size(), "\"kernel\":7");
    EXPECT_THROW(decodeAnalysis(bad), JsonError);

    std::string missing = text;
    missing.replace(missing.find("\"size\":"), 6, "\"sise\"");
    EXPECT_THROW(decodeAnalysis(missing), JsonError);
    EXPECT_THROW(decodeAnalysis("[1,2]"), JsonError);
    EXPECT_EQ(encodeAnalysis(decodeAnalysis(text)), text);
}

TEST(AnalysisDiff, PerfDropGatesAndNamesKernelAndMetric)
{
    const CampaignAnalysis base = baseDoc();
    CampaignAnalysis cur = base;
    cur.kernels[0].metrics.perf *= 0.9; // -10% > 5% threshold
    const DiffReport report = diffAnalyses(base, cur);
    ASSERT_TRUE(report.hasRegressions());
    EXPECT_EQ(report.regressionCount(), 1u);

    std::ostringstream os;
    report.print(os);
    EXPECT_NE(os.str().find("REGRESSION"), std::string::npos);
    EXPECT_NE(os.str().find("triad"), std::string::npos);
    EXPECT_NE(os.str().find("metric=perf"), std::string::npos);
}

TEST(AnalysisDiff, ImprovementsNeverGate)
{
    const CampaignAnalysis base = baseDoc();
    CampaignAnalysis cur = base;
    cur.kernels[0].metrics.perf *= 1.5; // faster
    cur.kernels[0].seconds *= 0.5;      // shorter
    cur.kernels[0].trafficBytes *= 0.5; // less traffic
    EXPECT_FALSE(diffAnalyses(base, cur).hasRegressions());
}

TEST(AnalysisDiff, WithinThresholdPasses)
{
    const CampaignAnalysis base = baseDoc();
    CampaignAnalysis cur = base;
    cur.kernels[0].metrics.perf *= 0.97; // -3% < 5% threshold
    EXPECT_FALSE(diffAnalyses(base, cur).hasRegressions());
}

TEST(AnalysisDiff, CustomThresholds)
{
    const CampaignAnalysis base = baseDoc();
    CampaignAnalysis cur = base;
    cur.kernels[0].metrics.perf *= 0.97;
    DiffThresholds thr;
    thr.perfDrop = 0.01;
    EXPECT_TRUE(diffAnalyses(base, cur, thr).hasRegressions());
}

TEST(AnalysisDiff, MissingRowIsRegression)
{
    const CampaignAnalysis base = baseDoc();
    CampaignAnalysis cur = base;
    cur.kernels.clear();
    const DiffReport report = diffAnalyses(base, cur);
    EXPECT_TRUE(report.hasRegressions());
    ASSERT_EQ(report.missing.size(), 1u);
    EXPECT_NE(report.missing[0].find("triad"), std::string::npos);
}

TEST(AnalysisDiff, AddedRowIsInformational)
{
    const CampaignAnalysis base = baseDoc();
    CampaignAnalysis cur = base;
    KernelRow extra = cur.kernels[0];
    extra.kernel = "daxpy";
    cur.kernels.push_back(extra);
    const DiffReport report = diffAnalyses(base, cur);
    EXPECT_FALSE(report.hasRegressions());
    ASSERT_EQ(report.added.size(), 1u);
    EXPECT_NE(report.added[0].find("daxpy"), std::string::npos);
}

TEST(AnalysisDiff, CeilingDropGates)
{
    const CampaignAnalysis base = baseDoc();
    CampaignAnalysis cur = base;
    cur.scenarios[0].model = roofline::RooflineModel();
    cur.scenarios[0].model.addComputeCeiling("peak", 90e9); // -10%
    cur.scenarios[0].model.addBandwidthCeiling("stream", 10e9);
    const DiffReport report = diffAnalyses(base, cur);
    ASSERT_TRUE(report.hasRegressions());
    std::ostringstream os;
    report.print(os);
    EXPECT_NE(os.str().find("metric=peak_flops"), std::string::npos);
}

TEST(AnalysisDiff, InfinityHandling)
{
    const double inf = std::numeric_limits<double>::infinity();
    CampaignAnalysis base = baseDoc();
    base.kernels[0].metrics.oi = inf;

    // inf -> inf: no comparison recorded for oi, no regression.
    EXPECT_FALSE(diffAnalyses(base, base).hasRegressions());

    // inf -> finite: OI collapsed (traffic appeared) — a regression.
    CampaignAnalysis cur = base;
    cur.kernels[0].metrics.oi = 4.0;
    EXPECT_TRUE(diffAnalyses(base, cur).hasRegressions());

    // finite -> inf: traffic vanished — an improvement, never gates.
    EXPECT_FALSE(diffAnalyses(cur, base).hasRegressions());
}

TEST(AnalysisDiff, PhaseRowsGateLikeKernelRows)
{
    CampaignAnalysis base = baseDoc();
    PhaseRow phase;
    phase.machine = "m";
    phase.variant = "v";
    phase.trajectory.kernel = "triad";
    phase.trajectory.sizeLabel = "n=1024";
    phase.trajectory.protocol = "cold";
    phase.trajectory.period = 512;
    phase.trajectory.points = {{1.0, 1e10, 1e6, 1e6, 1e-4}};
    phase.trajectory.totalFlops = 1e6;
    phase.trajectory.totalTrafficBytes = 1e6;
    phase.trajectory.totalSeconds = 1e-4;
    base.phases.push_back(phase);

    // Identical docs: phase metrics compared, nothing gates.
    const DiffReport same = diffAnalyses(base, base);
    EXPECT_FALSE(same.hasRegressions());
    EXPECT_EQ(same.entries.size(), 10u); // 6 + 4 phase metrics

    // A vanished phase row is a regression (coverage shrank).
    CampaignAnalysis dropped = base;
    dropped.phases.clear();
    const DiffReport gone = diffAnalyses(base, dropped);
    EXPECT_TRUE(gone.hasRegressions());
    ASSERT_EQ(gone.missing.size(), 1u);
    EXPECT_NE(gone.missing[0].find("phases: triad"),
              std::string::npos);

    // A slower trajectory gates on its perf metric.
    CampaignAnalysis slower = base;
    slower.phases[0].trajectory.totalSeconds *= 1.25;
    std::ostringstream os;
    const DiffReport slow = diffAnalyses(base, slower);
    slow.print(os);
    EXPECT_TRUE(slow.hasRegressions());
    EXPECT_NE(os.str().find("phases: triad"), std::string::npos);
}

TEST(AnalysisDiff, TableListsEveryComparison)
{
    const CampaignAnalysis doc = baseDoc();
    const DiffReport report = diffAnalyses(doc, doc);
    EXPECT_EQ(report.table().rowCount(), report.entries.size());
}

TEST(AnalysisDiff, BackendIsPartOfTheRowKey)
{
    // A hardware row must never pair with the sim baseline row of the
    // same cell — a v3 baseline keeps diffing cleanly when the spec
    // later turns on backend = perf, however slow the silicon is.
    const CampaignAnalysis base = baseDoc();
    CampaignAnalysis cur = base;
    KernelRow hw = cur.kernels[0];
    hw.backend = "perf";
    hw.metrics.perf *= 0.5; // would gate hard if it matched the sim row
    cur.kernels.push_back(hw);

    const DiffReport report = diffAnalyses(base, cur);
    EXPECT_FALSE(report.hasRegressions());
    ASSERT_EQ(report.added.size(), 1u);
    EXPECT_NE(report.added[0].find("backend=perf"), std::string::npos);
}

TEST(HardwareDelta, PairsBackendsAndComputesRelativeDeltas)
{
    CampaignAnalysis doc = baseDoc();
    KernelRow hw = doc.kernels[0];
    hw.backend = "perf";
    hw.quality = 0.75;
    hw.metrics.perf = doc.kernels[0].metrics.perf * 0.8;
    hw.metrics.oi = doc.kernels[0].metrics.oi * 1.1;
    hw.seconds = doc.kernels[0].seconds * 1.25;
    doc.kernels.push_back(hw);

    const analysis::HardwareDeltaReport report = hardwareDelta(doc);
    EXPECT_TRUE(report.unmatched.empty());
    ASSERT_EQ(report.rows.size(), 1u);
    const analysis::HardwareDelta &d = report.rows[0];
    EXPECT_TRUE(d.available);
    EXPECT_DOUBLE_EQ(d.quality, 0.75);
    EXPECT_NEAR(d.perfRel, -0.2, 1e-12);
    EXPECT_NEAR(d.oiRel, 0.1, 1e-12);
    EXPECT_NEAR(d.secondsRel, 0.25, 1e-12);
    EXPECT_EQ(report.table().rowCount(), 1u);
}

TEST(HardwareDelta, GateIsDirectional)
{
    // Only the model-optimistic direction fails: silicon landing far
    // below the simulated prediction. Silicon beating the model is
    // news, not a regression.
    CampaignAnalysis doc = baseDoc();
    KernelRow hw = doc.kernels[0];
    hw.backend = "perf";
    hw.metrics.perf = doc.kernels[0].metrics.perf * 0.4; // -60%
    doc.kernels.push_back(hw);

    std::ostringstream os;
    EXPECT_EQ(hardwareDelta(doc).gate(0.5, os), 1u);
    EXPECT_NE(os.str().find("HW-DELTA"), std::string::npos);

    doc.kernels[1].metrics.perf = doc.kernels[0].metrics.perf * 2.0;
    std::ostringstream ok;
    EXPECT_EQ(hardwareDelta(doc).gate(0.5, ok), 0u);
    EXPECT_NE(ok.str().find("hardware delta gate: ok"),
              std::string::npos);
}

TEST(AnalysisDiff, UnavailableHardwareRowsAreNotedNotGated)
{
    // A baseline with real hardware rows diffed against a run on a
    // PMU-denied host pairs each perf row with its placeholder
    // (available=false, all metrics zero). The placeholder must read
    // as a named gap, never as a guaranteed perf regression.
    CampaignAnalysis base = baseDoc();
    KernelRow hw = base.kernels[0];
    hw.backend = "perf";
    base.kernels.push_back(hw);

    CampaignAnalysis cur = base;
    cur.kernels[1].available = false;
    cur.kernels[1].quality = 0.0;
    cur.kernels[1].metrics = DerivedMetrics{};
    cur.kernels[1].trafficBytes = 0.0;
    cur.kernels[1].seconds = 0.0;

    const DiffReport report = diffAnalyses(base, cur);
    EXPECT_FALSE(report.hasRegressions());
    ASSERT_EQ(report.notes.size(), 1u);
    EXPECT_NE(report.notes[0].find("unavailable"), std::string::npos);
    EXPECT_NE(report.notes[0].find("backend=perf"), std::string::npos);
    std::ostringstream os;
    report.print(os);
    EXPECT_NE(os.str().find("note: hardware row unavailable"),
              std::string::npos);

    // The opposite direction (baseline captured without PMU access)
    // equally compares nothing — and the sim row still gates normally.
    EXPECT_FALSE(diffAnalyses(cur, base).hasRegressions());
    CampaignAnalysis slow = cur;
    slow.kernels[0].metrics.perf *= 0.5;
    EXPECT_TRUE(diffAnalyses(base, slow).hasRegressions());
}

TEST(HardwareDelta, UnavailableRowsAreNamedButNeverGate)
{
    // The CI container denies perf_event_open outright; the resulting
    // placeholder row must surface in the report as a named gap and
    // must never fail the gate.
    CampaignAnalysis doc = baseDoc();
    KernelRow hw = doc.kernels[0];
    hw.backend = "perf";
    hw.available = false;
    hw.quality = 0.0;
    hw.metrics = DerivedMetrics{};
    doc.kernels.push_back(hw);

    const analysis::HardwareDeltaReport report = hardwareDelta(doc);
    ASSERT_EQ(report.rows.size(), 1u);
    EXPECT_FALSE(report.rows[0].available);
    std::ostringstream os;
    EXPECT_EQ(report.gate(0.5, os), 0u);
    EXPECT_NE(os.str().find("unavailable"), std::string::npos);
    EXPECT_NE(os.str().find("triad"), std::string::npos);
}

TEST(HardwareDelta, HardwareRowWithoutSimCounterpartIsUnmatched)
{
    CampaignAnalysis doc = baseDoc();
    doc.kernels[0].backend = "perf"; // perf-only campaign: no sim twin
    const analysis::HardwareDeltaReport report = hardwareDelta(doc);
    EXPECT_TRUE(report.rows.empty());
    ASSERT_EQ(report.unmatched.size(), 1u);
    EXPECT_NE(report.unmatched[0].find("triad"), std::string::npos);
    EXPECT_FALSE(report.empty());
}

TEST(HardwareDelta, SimOnlyDocumentIsEmpty)
{
    EXPECT_TRUE(hardwareDelta(baseDoc()).empty());
}

} // namespace
