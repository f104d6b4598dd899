/**
 * @file
 * Tests of the benchmark harness's own rules: percentiles and the
 * sample-count rule for tails, open-loop timing from the due time, the
 * scheduler lower bound, the served-analysis correctness check and the
 * reference-digest lookup.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <thread>

#include "harness.hh"

namespace pb = perfbench;

TEST(Percentile, NearestRank)
{
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    EXPECT_EQ(pb::percentile(v, 50.0), 50.0);
    EXPECT_EQ(pb::percentile(v, 99.0), 99.0);
    EXPECT_EQ(pb::percentile(v, 100.0), 100.0);
    EXPECT_EQ(pb::percentile({7.0}, 99.0), 7.0);
    EXPECT_EQ(pb::percentile({}, 50.0), 0.0);
    EXPECT_EQ(pb::median({3.0, 1.0, 2.0}), 2.0);
}

TEST(Percentile, TailNeedsTenSamplesBeyond)
{
    EXPECT_EQ(pb::tailPercentileFor(19), 0.0);
    EXPECT_EQ(pb::tailPercentileFor(20), 50.0);
    EXPECT_EQ(pb::tailPercentileFor(40), 75.0);
    EXPECT_EQ(pb::tailPercentileFor(100), 90.0);
    EXPECT_EQ(pb::tailPercentileFor(999), 95.0);
    EXPECT_EQ(pb::tailPercentileFor(1000), 99.0);
    EXPECT_EQ(pb::tailPercentileFor(10000), 99.9);

    std::vector<double> v(1000, 1.0);
    v[995] = 5.0;
    const pb::Summary s = pb::summarize(v);
    EXPECT_EQ(s.n, 1000u);
    EXPECT_EQ(s.median, 1.0);
    EXPECT_EQ(s.tailP, 99.0);
    EXPECT_EQ(s.tail, 1.0);
}

TEST(OpenLoop, LatencyCountsFromDueTime)
{
    // One client; the first request stalls 60 ms, so the second (due
    // at 10 ms) waits behind it. Timed from its due time it shows the
    // wait; timed from its send it would not.
    std::vector<pb::Arrival> schedule(2);
    schedule[0].due = 0.0;
    schedule[1].due = 0.010;
    const auto outcomes = pb::runOpenLoop(
        schedule, 1, 1.0, [](size_t, const pb::Arrival &a) {
            if (a.due == 0.0)
                std::this_thread::sleep_for(std::chrono::milliseconds(60));
            return true;
        });
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_TRUE(outcomes[1].ok);
    EXPECT_GE(outcomes[1].sent, 0.055);
    EXPECT_GE(pb::latencyFromDue(schedule[1], outcomes[1]), 0.045);
    EXPECT_LT(outcomes[1].done - outcomes[1].sent, 0.02);
    // Both requests were outstanding 30 ms in.
    EXPECT_EQ(pb::backlogAt(schedule, outcomes, 0.030), 2u);
    EXPECT_EQ(pb::backlogAt(schedule, outcomes, 1.0), 0u);
}

TEST(OpenLoop, FailedAndAbandonedRequestsMissEveryLimit)
{
    std::vector<pb::Arrival> schedule(3);
    schedule[1].due = 0.001;
    schedule[2].due = 0.002;
    // Grace ends 27 ms in: request 1 is sent (at 20 ms) and fails,
    // request 2 is still waiting at 40 ms and is abandoned.
    const auto outcomes = pb::runOpenLoop(
        schedule, 1, 0.025, [](size_t, const pb::Arrival &a) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            return a.due != 0.001;
        });
    EXPECT_GE(outcomes[1].sent, 0.0);
    EXPECT_TRUE(std::isinf(pb::latencyFromDue(schedule[1], outcomes[1])));
    EXPECT_LT(outcomes[2].sent, 0.0);
    EXPECT_TRUE(std::isinf(pb::latencyFromDue(schedule[2], outcomes[2])));
}

TEST(OpenLoop, FixedRateScheduleIsSeeded)
{
    const auto a = pb::fixedRateSchedule(7, 1000.0, 1.0, {1.0, 3.0});
    const auto b = pb::fixedRateSchedule(7, 1000.0, 1.0, {1.0, 3.0});
    const auto c = pb::fixedRateSchedule(8, 1000.0, 1.0, {1.0, 3.0});
    ASSERT_EQ(a.size(), 1000u);
    ASSERT_EQ(c.size(), 1000u);
    size_t differ = 0, heavy = 0;
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].due, b[i].due);
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_DOUBLE_EQ(a[i].due, (i + 0.5) / 1000.0);
        differ += a[i].kind != c[i].kind;
        heavy += a[i].kind == 1;
    }
    EXPECT_GT(differ, 0u);
    EXPECT_NEAR(static_cast<double>(heavy) / a.size(), 0.75, 0.05);
}

TEST(Schedule, CriticalPathAndLowerBound)
{
    // A campaign's shape: ceiling 0 gates measures 1-3; ceiling 4
    // gates measure 5.
    const std::vector<std::vector<size_t>> deps = {
        {}, {0}, {0}, {0}, {}, {4}};
    const std::vector<double> sec = {2.0, 1.0, 3.0, 0.5, 1.0, 1.0};
    // Work 8.5 s over 4 threads is 2.125 s; the chain 0 -> 2 is 5 s.
    const pb::ScheduleBound b = pb::scheduleBound(deps, sec, 4, 6.0);
    EXPECT_DOUBLE_EQ(b.criticalPath, 5.0);
    EXPECT_DOUBLE_EQ(b.work, 8.5);
    EXPECT_DOUBLE_EQ(b.lowerBound, 5.0);
    EXPECT_DOUBLE_EQ(b.efficiency, 6.0 / 5.0);

    // One thread: the work bound dominates.
    const pb::ScheduleBound one = pb::scheduleBound(deps, sec, 1, 8.5);
    EXPECT_DOUBLE_EQ(one.lowerBound, 8.5);
    EXPECT_DOUBLE_EQ(one.efficiency, 1.0);
}

TEST(Checks, TamperedAnalysisBodyIsRejected)
{
    const std::string expected =
        "{\"schema\":4,\"campaign\":\"x\",\"kernels\":[{\"flops\":8192}]}\n";
    EXPECT_TRUE(pb::analysisBodyMatches(200, expected, expected));

    std::string tampered = expected;
    tampered[tampered.find("8192") + 3] = '3';
    EXPECT_FALSE(pb::analysisBodyMatches(200, tampered, expected));
    EXPECT_FALSE(pb::analysisBodyMatches(200, expected + " ", expected));
    EXPECT_FALSE(pb::analysisBodyMatches(
        200, expected.substr(0, expected.size() - 1), expected));
    EXPECT_FALSE(pb::analysisBodyMatches(503, expected, expected));
    EXPECT_NE(pb::digestHex(tampered), pb::digestHex(expected));

    pb::Ledger ledger;
    ledger.expect(true, "ok");
    ledger.expect(pb::analysisBodyMatches(200, tampered, expected),
                  "tampered");
    EXPECT_EQ(ledger.attempted(), 2u);
    EXPECT_EQ(ledger.failed(), 1u);
    ASSERT_EQ(ledger.failures().size(), 1u);
    EXPECT_EQ(ledger.failures()[0], "tampered");
}

TEST(Checks, ReferenceDigestLookup)
{
    const std::string table =
        "{\"grid-stream\": {\"7\": {\"grid\": \"aa\", \"served\": \"bb\"}},"
        " \"grid-latency\": {\"7\": {\"grid\": \"cc\"}}}";
    const auto ref = pb::findReference(table, "grid-stream", 7);
    ASSERT_TRUE(ref.has_value());
    EXPECT_EQ(ref->grid, "aa");
    EXPECT_EQ(ref->served, "bb");
    // A different seed, workload, an incomplete entry or a broken
    // table has no reference.
    EXPECT_FALSE(pb::findReference(table, "grid-stream", 8));
    EXPECT_FALSE(pb::findReference(table, "service-mixed", 7));
    EXPECT_FALSE(pb::findReference(table, "grid-latency", 7));
    EXPECT_FALSE(pb::findReference("{\"grid-stream\": ", "grid-stream", 7));
    EXPECT_FALSE(pb::findReference("", "grid-stream", 7));
}
