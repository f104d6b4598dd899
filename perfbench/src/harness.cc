#include "harness.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

#include "campaign/serialize.hh"
#include "support/hash.hh"
#include "support/logging.hh"
#include "support/rng.hh"

namespace perfbench
{

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    // The epsilon keeps p * n / 100 from rounding up past an integer.
    const double rank = std::ceil(p / 100.0 * values.size() - 1e-9);
    const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return values[std::min(idx, values.size() - 1)];
}

double
median(const std::vector<double> &values)
{
    return percentile(values, 50.0);
}

double
tailPercentileFor(size_t n)
{
    for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
        // Samples strictly above the nearest-rank index.
        const size_t rank =
            static_cast<size_t>(std::ceil(p / 100.0 * n - 1e-9));
        if (n >= rank && n - rank >= kTailBeyond)
            return p;
    }
    return 0.0;
}

Summary
summarize(const std::vector<double> &values)
{
    Summary s;
    s.n = values.size();
    s.median = median(values);
    s.tailP = tailPercentileFor(s.n);
    if (s.tailP > 0.0)
        s.tail = percentile(values, s.tailP);
    return s;
}

ScheduleBound
scheduleBound(const std::vector<std::vector<size_t>> &deps,
              const std::vector<double> &seconds, int threads,
              double wallSeconds)
{
    RFL_ASSERT(deps.size() == seconds.size());
    RFL_ASSERT(threads > 0);
    const size_t n = deps.size();
    // finish[i] = longest chain ending with job i; state 1 = visiting.
    std::vector<double> finish(n, 0.0);
    std::vector<int> state(n, 0);
    std::function<double(size_t)> visit = [&](size_t i) -> double {
        if (state[i] == 2)
            return finish[i];
        RFL_ASSERT(state[i] == 0, "dependency cycle at job %zu", i);
        state[i] = 1;
        double start = 0.0;
        for (size_t d : deps[i]) {
            RFL_ASSERT(d < n);
            start = std::max(start, visit(d));
        }
        finish[i] = start + seconds[i];
        state[i] = 2;
        return finish[i];
    };

    ScheduleBound b;
    for (size_t i = 0; i < n; ++i) {
        b.criticalPath = std::max(b.criticalPath, visit(i));
        b.work += seconds[i];
    }
    b.lowerBound = std::max(b.criticalPath, b.work / threads);
    b.efficiency = b.lowerBound > 0.0 ? wallSeconds / b.lowerBound : 0.0;
    return b;
}

std::vector<Arrival>
fixedRateSchedule(uint64_t seed, double rate, double seconds,
                  const std::vector<double> &weights)
{
    RFL_ASSERT(rate > 0.0 && !weights.empty());
    double total = 0.0;
    for (double w : weights)
        total += w;
    rfl::Rng rng(seed);
    std::vector<Arrival> out;
    const size_t n = static_cast<size_t>(rate * seconds);
    for (size_t i = 0; i < n; ++i) {
        Arrival a;
        a.due = (static_cast<double>(i) + 0.5) / rate;
        double pick = rng.nextDouble() * total;
        a.kind = static_cast<int>(weights.size()) - 1;
        for (size_t k = 0; k < weights.size(); ++k) {
            if (pick < weights[k]) {
                a.kind = static_cast<int>(k);
                break;
            }
            pick -= weights[k];
        }
        a.arg = static_cast<uint32_t>(rng.next());
        out.push_back(a);
    }
    return out;
}

std::vector<Outcome>
runOpenLoop(const std::vector<Arrival> &schedule, size_t clients,
            double graceSeconds, const SendFn &send)
{
    using Clock = std::chrono::steady_clock;
    std::vector<Outcome> outcomes(schedule.size());
    const double lastDue = schedule.empty() ? 0.0 : schedule.back().due;
    const double abandonAt = lastDue + graceSeconds;
    std::atomic<size_t> next{0};
    const Clock::time_point origin = Clock::now();
    const auto since = [origin] {
        return std::chrono::duration<double>(Clock::now() - origin)
            .count();
    };

    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            for (;;) {
                const size_t i = next.fetch_add(1);
                if (i >= schedule.size())
                    return;
                const Arrival &a = schedule[i];
                std::this_thread::sleep_until(
                    origin + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(a.due)));
                Outcome &o = outcomes[i];
                if (since() > abandonAt)
                    continue;
                o.sent = since();
                o.ok = send(c, a);
                o.done = since();
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    return outcomes;
}

double
latencyFromDue(const Arrival &a, const Outcome &o)
{
    if (!o.ok || o.done < 0.0)
        return std::numeric_limits<double>::infinity();
    return o.done - a.due;
}

size_t
backlogAt(const std::vector<Arrival> &schedule,
          const std::vector<Outcome> &outcomes, double t)
{
    size_t n = 0;
    for (size_t i = 0; i < schedule.size(); ++i) {
        if (schedule[i].due <= t &&
            (outcomes[i].done < 0.0 || outcomes[i].done > t))
            ++n;
    }
    return n;
}

bool
Ledger::expect(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        if (failures_.size() < 16)
            failures_.push_back(what);
    }
    return ok;
}

bool
analysisBodyMatches(int httpStatus, const std::string &served,
                    const std::string &expected)
{
    return httpStatus == 200 && !expected.empty() && served == expected;
}

std::string
digestHex(const std::string &text)
{
    return rfl::hashToHex(rfl::Fnv1a().mix(text).value());
}

std::optional<ReferenceDigests>
findReference(const std::string &tableJson, const std::string &workload,
              uint64_t seed)
{
    using rfl::campaign::Json;
    Json table;
    if (!Json::tryParse(tableJson, &table) ||
        table.kind() != Json::Kind::Object || !table.has(workload))
        return std::nullopt;
    const Json &seeds = table.at(workload);
    const std::string key = std::to_string(seed);
    if (seeds.kind() != Json::Kind::Object || !seeds.has(key))
        return std::nullopt;
    const Json &entry = seeds.at(key);
    if (entry.kind() != Json::Kind::Object || !entry.has("grid") ||
        !entry.has("served") ||
        entry.at("grid").kind() != Json::Kind::String ||
        entry.at("served").kind() != Json::Kind::String)
        return std::nullopt;
    return ReferenceDigests{entry.at("grid").asString(),
                            entry.at("served").asString()};
}

} // namespace perfbench
