/** @file Tests for the sampling profiler (DESIGN.md §13). */

#include <atomic>
#include <chrono>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "telemetry/profiler.hh"

namespace
{

using rfl::telemetry::CollapsedStack;
using rfl::telemetry::collapseStacks;
using rfl::telemetry::Profile;
using rfl::telemetry::Profiler;
using rfl::telemetry::ProfilerOptions;
using rfl::telemetry::renderFlamegraphSvg;
using rfl::telemetry::renderProfileJson;

TEST(Profiler, CollapseAggregatesIdenticalStacks)
{
    const std::vector<std::vector<std::string>> raw = {
        {"main", "run", "drain"},
        {"main", "run", "drain"},
        {"main", "run", "encode"},
        {"main", "idle"},
        {}, // empty stacks are skipped, not collapsed to ""
    };
    const std::vector<CollapsedStack> collapsed = collapseStacks(raw);
    ASSERT_EQ(collapsed.size(), 3u);
    // Sorted by count descending, ties alphabetical: deterministic.
    EXPECT_EQ(collapsed[0].stack, "main;run;drain");
    EXPECT_EQ(collapsed[0].count, 2u);
    EXPECT_EQ(collapsed[1].stack, "main;idle");
    EXPECT_EQ(collapsed[2].stack, "main;run;encode");
    EXPECT_EQ(collapsed[1].count + collapsed[2].count, 2u);
}

TEST(Profiler, ProfileJsonSchema)
{
    Profile p;
    p.label = "unit \"test\"";
    p.hz = 997;
    p.seconds = 1.25;
    p.samples = 3;
    p.dropped = 1;
    p.stacks = {{"a;b", 2}, {"a;c", 1}};

    const std::string json = renderProfileJson(p);
    EXPECT_NE(json.find("\"kind\":\"rfl-profile\""), std::string::npos);
    EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
    EXPECT_NE(json.find("\"hz\":997"), std::string::npos);
    EXPECT_NE(json.find("\"samples\":3"), std::string::npos);
    EXPECT_NE(json.find("\"dropped\":1"), std::string::npos);
    EXPECT_NE(json.find("\"stack\":\"a;b\",\"count\":2"),
              std::string::npos);
    EXPECT_NE(json.find("unit \\\"test\\\""), std::string::npos);
}

TEST(Profiler, FlamegraphLaysOutTrie)
{
    const std::vector<CollapsedStack> stacks = {
        {"main;run;drain", 6},
        {"main;run;encode", 2},
        {"main;idle", 2},
    };
    const std::string svg =
        renderFlamegraphSvg(stacks, "synthetic profile");
    EXPECT_NE(svg.find("<svg"), std::string::npos);
    EXPECT_NE(svg.find("synthetic profile"), std::string::npos);
    EXPECT_NE(svg.find("10 samples"), std::string::npos);
    // Every frame gets a rect with an exact-count tooltip.
    EXPECT_NE(svg.find("drain — 6 samples"), std::string::npos);
    EXPECT_NE(svg.find("main — 10 samples"), std::string::npos);
    // XML-escaped content only (C++ symbols carry <> liberally).
    const std::string svg2 = renderFlamegraphSvg(
        {{"std::vector<int>::push_back", 1}}, "t");
    EXPECT_NE(svg2.find("std::vector&lt;int&gt;::push_back"),
              std::string::npos);
}

TEST(Profiler, FlamegraphOfNothingIsStillAnSvg)
{
    const std::string svg = renderFlamegraphSvg({}, "empty");
    EXPECT_NE(svg.find("<svg"), std::string::npos);
    EXPECT_NE(svg.find("0 samples"), std::string::npos);
}

TEST(Profiler, StopWithoutStartIsEmpty)
{
    const Profile p = Profiler::instance().stop("never started");
    EXPECT_EQ(p.samples, 0u);
    EXPECT_TRUE(p.stacks.empty());
    EXPECT_EQ(p.label, "never started");
}

TEST(Profiler, LiveCaptureAttributesBusyLoop)
{
    ProfilerOptions opts;
    opts.hz = 997;
    ASSERT_TRUE(Profiler::instance().start(opts));
    EXPECT_FALSE(Profiler::instance().start(opts)) // second start fails
        << "profiler must refuse concurrent captures";
    EXPECT_TRUE(Profiler::instance().running());

    // Burn ~200 ms of CPU so SIGPROF has something to land on.
    std::atomic<uint64_t> sink{0};
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(200);
    while (std::chrono::steady_clock::now() < until)
        sink.fetch_add(1, std::memory_order_relaxed);

    const Profile p = Profiler::instance().stop("busy loop");
    EXPECT_FALSE(Profiler::instance().running());
    // ~200 samples expected at 997 Hz over 200 ms of CPU; be lenient —
    // CI machines throttle — but some must have landed.
    EXPECT_GT(p.samples, 5u);
    EXPECT_FALSE(p.stacks.empty());
    uint64_t total = 0;
    for (const CollapsedStack &cs : p.stacks) {
        total += cs.count;
        // The signal path must have been stripped during symbolization.
        EXPECT_EQ(cs.stack.find("rflProfilerSignalHandler"),
                  std::string::npos);
    }
    EXPECT_LE(total, p.samples);

    // A second capture after stop() must work (state fully reset).
    ASSERT_TRUE(Profiler::instance().start(opts));
    const Profile p2 = Profiler::instance().stop("immediate");
    EXPECT_LE(p2.dropped, p2.samples + 1);
}

} // namespace
