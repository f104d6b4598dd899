/**
 * @file
 * Simulator-throughput microbenchmark: how many simulated demand
 * accesses per wall-clock second the memory-hierarchy model sustains.
 *
 * Not a paper figure: this tracks the *simulator's* own performance so
 * the perf trajectory of the hot path (Machine::accessLine,
 * Machine::simulateBatch and below) is recorded over time. Two tiers
 * are measured, each in three modes — the reference path
 * (setFastPath(false), per-access dispatch: plain set-scan lookups, no
 * memos), the PR 2 fast path (per-access dispatch with the memos), and
 * the PR 3 batched path (access-stream IR consumed by simulateBatch
 * with same-line run coalescing) — reporting simulated L1 demand
 * accesses per wall second and the speedups over reference:
 *
 *  - hot-loop tier: raw access loops (a resident-line streak and an
 *    L3-resident stream), isolating the demand-access path without
 *    kernel arithmetic or address translation on top;
 *  - kernel tier: registered kernels (daxpy, triad, sum,
 *    pointer-chase) driven through SimEngine, the end-to-end rate a
 *    campaign sweep experiences.
 *
 * Each workload keeps one machine per mode and times N rounds of one
 * window per mode (N=9, 3 under $RFL_FAST), alternating the mode order
 * from round to round. A speedup is the median over rounds of the
 * per-round rate ratio, and a rate is the median over rounds, so host
 * drift and scheduling noise hit both sides of a ratio alike and one
 * outlying window cannot move the committed trajectory.
 *
 * Output: a human-readable table on stdout and a JSON trajectory file
 * (default ./BENCH_sim_throughput.json, override with argv[1]).
 * $RFL_FAST=1 shrinks sizes and measurement time for CI.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "kernels/engine.hh"
#include "kernels/registry.hh"
#include "sim/machine.hh"
#include "support/address_arena.hh"
#include "trace/access_batch.hh"

namespace
{

using namespace rfl;
using Clock = std::chrono::steady_clock;

/** Execution mode of one measurement (see file comment). */
enum class Mode
{
    Reference,
    Fast,
    Batched,
};

struct Workload
{
    const char *name;
    std::string spec;   ///< kernel spec, or "" for a raw machine loop
    uint64_t rawSpan;   ///< raw loop: bytes touched per rep (8 B steps)
    int lanes;
    bool streaming;     ///< counts toward the streaming-kernel speedup
    bool hotLoop;       ///< counts toward the hot-loop speedup
};

struct ModeResult
{
    uint64_t accesses = 0; ///< simulated L1 demand accesses, timed region
    double seconds = 0.0;

    double
    accessesPerSec() const
    {
        return seconds > 0 ? static_cast<double>(accesses) / seconds : 0.0;
    }
};

uint64_t
l1Accesses(const sim::Machine::Snapshot &delta)
{
    uint64_t total = 0;
    for (const sim::CacheStats &s : delta.l1)
        total += s.accesses();
    return total;
}

/**
 * One mode's measurement state for one workload: its own machine (and
 * engine, for kernel workloads) kept warm across windows, so windows of
 * different modes can interleave. Kernel workloads share one kernel
 * instance, so every mode simulates the same address stream.
 */
class Runner
{
  public:
    Runner(const Workload &w, Mode mode, kernels::Kernel *kernel)
        : w_(w), mode_(mode),
          machine_(sim::MachineConfig::defaultPlatform()), kernel_(kernel)
    {
        machine_.setFastPath(mode != Mode::Reference);
        if (kernel_) {
            // Mirror the real drivers (Measurer, executor, phase
            // runner): dependent-chain kernels put the machine in
            // dependent mode, where the batched consume loop delivers
            // every record on its own (no run coalescing).
            machine_.setDependentAccesses(kernel_->dependentAccesses());
            engine_ = std::make_unique<kernels::SimEngine>(
                machine_, 0, w.lanes, true,
                mode == Mode::Batched
                    ? kernels::SimEngine::Dispatch::Batched
                    : kernels::SimEngine::Dispatch::Direct);
        }
        rep(); // warm-up: caches, TLB, prefetcher state
    }

    Runner(const Runner &) = delete;
    Runner &operator=(const Runner &) = delete;

    /** One timed window of at least @p min_seconds (and 3 reps). */
    ModeResult
    window(double min_seconds)
    {
        ModeResult r;
        uint64_t reps = 0;
        const sim::Machine::Snapshot before = machine_.snapshot();
        const Clock::time_point t0 = Clock::now();
        Clock::time_point t1;
        do {
            rep();
            ++reps;
            t1 = Clock::now();
        } while (std::chrono::duration<double>(t1 - t0).count() <
                     min_seconds ||
                 reps < 3);
        r.seconds = std::chrono::duration<double>(t1 - t0).count();
        // snapshot() drains the batched engine, so buffered accesses
        // from the last rep are included.
        r.accesses = l1Accesses(machine_.snapshot() - before);
        return r;
    }

  private:
    void
    rep()
    {
        if (kernel_) {
            kernel_->run(*engine_, 0, 1);
        } else if (mode_ == Mode::Batched) {
            // Raw batched loop: fill IR batches the way SimEngine does
            // (same-line hints included), bulk-consume them.
            const uint32_t shift = 6; // 64 B lines on the default config
            uint64_t prev_line = ~0ull;
            for (uint64_t a = 0; a < w_.rawSpan; a += 8) {
                if (batch_.full()) {
                    machine_.simulateBatch(batch_, 0);
                    batch_.clear();
                }
                const uint64_t addr = (1ull << 32) + a;
                const uint64_t line = addr >> shift;
                batch_.pushMem(trace::AccessKind::Load, 0, addr, 8,
                               line == prev_line);
                prev_line = line;
            }
            machine_.simulateBatch(batch_, 0);
            batch_.clear();
        } else {
            for (uint64_t a = 0; a < w_.rawSpan; a += 8)
                machine_.load(0, (1ull << 32) + a, 8);
        }
    }

    const Workload &w_;
    Mode mode_;
    sim::Machine machine_;
    kernels::Kernel *kernel_;
    std::unique_ptr<kernels::SimEngine> engine_;
    trace::AccessBatch batch_;
};

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/** Geometric-mean accumulator over workload speedups. */
struct Geomean
{
    double logSum = 0.0;
    int n = 0;

    void
    add(double speedup)
    {
        logSum += std::log(speedup);
        ++n;
    }

    double value() const { return n ? std::exp(logSum / n) : 1.0; }
};

} // namespace

int
main(int argc, char **argv)
{
    rfl::bench::banner("sim_throughput",
                       "simulated-access throughput of the memory "
                       "hierarchy hot path");

    const std::string json_path =
        argc > 1 ? argv[1] : "BENCH_sim_throughput.json";
    const bool fast_env = rfl::fastMode();
    const double min_seconds = fast_env ? 0.05 : 0.3;
    const int trials = fast_env ? 3 : 9;
    const size_t n = fast_env ? (1u << 13) : (1u << 16);
    const uint64_t raw_stream_span =
        fast_env ? (128ull << 10) : (1ull << 20);

    const std::string sn = std::to_string(n);
    const std::vector<Workload> workloads = {
        {"raw-l1-streak", "", 16ull << 10, 1, false, true},
        {"raw-l3-stream", "", raw_stream_span, 1, true, true},
        {"daxpy-scalar", "daxpy:n=" + sn, 0, 1, true, false},
        {"daxpy-avx", "daxpy:n=" + sn, 0, 4, true, false},
        {"triad-scalar", "triad:n=" + sn, 0, 1, true, false},
        {"sum-scalar", "sum:n=" + sn, 0, 1, true, false},
        {"pointer-chase",
         "pointer-chase:nodes=16384,hops=" + sn, 0, 1, false, false},
    };

    std::printf("%-14s %13s %13s %13s %8s %8s\n", "workload",
                "ref Macc/s", "fast Macc/s", "batch Macc/s", "fast x",
                "batch x");

    struct Row
    {
        Workload w;
        double refRate;     ///< median accesses/s over rounds
        double fastRate;
        double batchedRate;
        double fastSpeedup; ///< median of per-round ratios
        double batchedSpeedup;
    };
    std::vector<Row> rows;
    Geomean fast_all, fast_stream, fast_hot;
    Geomean batch_all, batch_stream, batch_hot;

    for (const Workload &w : workloads) {
        AddressArena::Scope scope;
        std::unique_ptr<kernels::Kernel> kernel;
        if (!w.spec.empty()) {
            kernel = kernels::createKernel(w.spec);
            kernel->init(1);
        }
        Runner ref(w, Mode::Reference, kernel.get());
        Runner fast(w, Mode::Fast, kernel.get());
        Runner batched(w, Mode::Batched, kernel.get());
        std::vector<double> ref_rate, fast_rate, batch_rate;
        std::vector<double> fast_x, batch_x;
        for (int t = 0; t < trials; ++t) {
            // Alternate the order so a drift in host speed across a
            // round favours neither side of a ratio.
            ModeResult r, f, b;
            if (t % 2 == 0) {
                r = ref.window(min_seconds);
                f = fast.window(min_seconds);
                b = batched.window(min_seconds);
            } else {
                b = batched.window(min_seconds);
                f = fast.window(min_seconds);
                r = ref.window(min_seconds);
            }
            ref_rate.push_back(r.accessesPerSec());
            fast_rate.push_back(f.accessesPerSec());
            batch_rate.push_back(b.accessesPerSec());
            fast_x.push_back(f.accessesPerSec() / r.accessesPerSec());
            batch_x.push_back(b.accessesPerSec() / r.accessesPerSec());
        }
        const Row row{w,
                      median(ref_rate),
                      median(fast_rate),
                      median(batch_rate),
                      median(fast_x),
                      median(batch_x)};
        std::printf("%-14s %13.2f %13.2f %13.2f %7.2fx %7.2fx\n", w.name,
                    row.refRate / 1e6, row.fastRate / 1e6,
                    row.batchedRate / 1e6, row.fastSpeedup,
                    row.batchedSpeedup);
        fast_all.add(row.fastSpeedup);
        batch_all.add(row.batchedSpeedup);
        if (w.streaming) {
            fast_stream.add(row.fastSpeedup);
            batch_stream.add(row.batchedSpeedup);
        }
        if (w.hotLoop) {
            fast_hot.add(row.fastSpeedup);
            batch_hot.add(row.batchedSpeedup);
        }
        rows.push_back(row);
    }

    std::printf("\n%-38s %8s %8s\n", "geomean speedup vs reference",
                "fast", "batched");
    std::printf("%-38s %7.2fx %7.2fx\n", "  all workloads",
                fast_all.value(), batch_all.value());
    std::printf("%-38s %7.2fx %7.2fx\n", "  streaming workloads",
                fast_stream.value(), batch_stream.value());
    std::printf("%-38s %7.2fx %7.2fx\n", "  hot loops",
                fast_hot.value(), batch_hot.value());

    FILE *f = std::fopen(json_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"sim_throughput\",\n");
    std::fprintf(f, "  \"schema_version\": 5,\n");
    std::fprintf(f, "  \"unit\": \"simulated_accesses_per_second\",\n");
    std::fprintf(f, "  \"rfl_fast\": %s,\n", fast_env ? "true" : "false");
    std::fprintf(f, "  \"trials\": %d,\n", trials);
    std::fprintf(f, "  \"workloads\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        std::fprintf(f, "    {\n");
        std::fprintf(f, "      \"name\": \"%s\",\n", r.w.name);
        std::fprintf(f, "      \"spec\": \"%s\",\n", r.w.spec.c_str());
        std::fprintf(f, "      \"lanes\": %d,\n", r.w.lanes);
        std::fprintf(f, "      \"streaming\": %s,\n",
                     r.w.streaming ? "true" : "false");
        std::fprintf(f, "      \"hot_loop\": %s,\n",
                     r.w.hotLoop ? "true" : "false");
        std::fprintf(f, "      \"reference_accesses_per_sec\": %.1f,\n",
                     r.refRate);
        std::fprintf(f, "      \"fast_accesses_per_sec\": %.1f,\n",
                     r.fastRate);
        std::fprintf(f, "      \"batched_accesses_per_sec\": %.1f,\n",
                     r.batchedRate);
        std::fprintf(f, "      \"speedup\": %.3f,\n", r.fastSpeedup);
        std::fprintf(f, "      \"batched_speedup\": %.3f\n",
                     r.batchedSpeedup);
        std::fprintf(f, "    }%s\n", i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"geomean_speedup\": %.3f,\n", fast_all.value());
    std::fprintf(f, "  \"streaming_speedup\": %.3f,\n",
                 fast_stream.value());
    std::fprintf(f, "  \"hot_loop_speedup\": %.3f,\n", fast_hot.value());
    std::fprintf(f, "  \"batched_geomean_speedup\": %.3f,\n",
                 batch_all.value());
    std::fprintf(f, "  \"batched_streaming_speedup\": %.3f,\n",
                 batch_stream.value());
    std::fprintf(f, "  \"batched_hot_loop_speedup\": %.3f\n",
                 batch_hot.value());
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
    return 0;
}
