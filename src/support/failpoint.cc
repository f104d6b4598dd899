#include "support/failpoint.hh"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>

#include "support/cancel.hh"
#include "support/hash.hh"
#include "support/logging.hh"
#include "telemetry/metrics.hh"

namespace rfl::failpoint
{

namespace detail
{
std::atomic<uint32_t> armedCount{0};
} // namespace detail

namespace
{

enum class Action
{
    Off,
    Error,
    Throw,
    Sleep,
};

/** One armed failpoint's configuration and trigger state. */
struct Armed
{
    Action action = Action::Off;
    uint64_t sleepMs = 0;
    double probability = 1.0; ///< trigger chance per evaluation
    uint64_t maxCount = 0;    ///< 0 = unlimited
    uint64_t hits = 0;        ///< evaluations that triggered
    uint64_t rngState = 0;    ///< per-failpoint xorshift stream
    telemetry::Counter *triggers = nullptr;
};

struct RegistryState
{
    std::mutex mutex;
    std::map<std::string, Armed> armed;
    /** Trigger totals survive disarm so tests can assert post-hoc. */
    std::map<std::string, uint64_t> history;
};

RegistryState &
state()
{
    static RegistryState s;
    return s;
}

/** xorshift64*: deterministic, cheap, good enough for trigger dice. */
double
nextUniform(uint64_t &s)
{
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return static_cast<double>((s * 0x2545f4914f6cdd1dull) >> 11) /
           static_cast<double>(1ull << 53);
}

bool
parseSpec(const std::string &name, const std::string &spec, Armed &out,
          std::string *err)
{
    const auto bad = [&](const std::string &what) {
        if (err)
            *err = "failpoint '" + name + "': " + what + " in '" +
                   spec + "'";
        return false;
    };

    // "<action>[:mod[:mod...]]"
    size_t colon = spec.find(':');
    const std::string action = spec.substr(0, colon);
    if (action == "off") {
        out.action = Action::Off;
    } else if (action == "error") {
        out.action = Action::Error;
    } else if (action == "throw") {
        out.action = Action::Throw;
    } else if (action.rfind("sleep(", 0) == 0 && action.back() == ')') {
        const std::string arg =
            action.substr(6, action.size() - 7);
        char *end = nullptr;
        errno = 0;
        const long ms = std::strtol(arg.c_str(), &end, 10);
        if (end == arg.c_str() || *end != '\0' || ms < 0 || errno != 0)
            return bad("sleep wants a millisecond count");
        out.action = Action::Sleep;
        out.sleepMs = static_cast<uint64_t>(ms);
    } else {
        return bad("unknown action '" + action + "'");
    }

    while (colon != std::string::npos) {
        const size_t begin = colon + 1;
        colon = spec.find(':', begin);
        const std::string mod = spec.substr(
            begin, colon == std::string::npos ? std::string::npos
                                              : colon - begin);
        const size_t eq = mod.find('=');
        const std::string key = mod.substr(0, eq);
        const std::string value =
            eq == std::string::npos ? "" : mod.substr(eq + 1);
        char *end = nullptr;
        if (key == "p") {
            const double p = std::strtod(value.c_str(), &end);
            // Written so NaN fails too: it compares false both ways.
            if (end == value.c_str() || *end != '\0' ||
                !(p >= 0.0 && p <= 1.0))
                return bad("p wants a probability in [0,1]");
            out.probability = p;
        } else if (key == "count") {
            errno = 0;
            const long n = std::strtol(value.c_str(), &end, 10);
            if (end == value.c_str() || *end != '\0' || n < 1 ||
                errno != 0)
                return bad("count wants a positive integer");
            out.maxCount = static_cast<uint64_t>(n);
        } else {
            return bad("unknown modifier '" + key + "'");
        }
    }

    // Seeded by name only: the trigger pattern of a probabilistic
    // failpoint is a fixed function of its evaluation sequence, so a
    // chaos failure reproduces under the same request order.
    out.rngState = Fnv1a().mix(name).value() | 1;
    return true;
}

} // namespace

namespace detail
{

bool
evaluateSlow(const char *name)
{
    Action action = Action::Off;
    uint64_t sleepMs = 0;
    {
        RegistryState &s = state();
        std::lock_guard<std::mutex> lock(s.mutex);
        const auto it = s.armed.find(name);
        if (it == s.armed.end())
            return false;
        Armed &fp = it->second;
        if (fp.action == Action::Off)
            return false;
        if (fp.maxCount && fp.hits >= fp.maxCount)
            return false;
        if (fp.probability < 1.0 &&
            nextUniform(fp.rngState) >= fp.probability)
            return false;
        ++fp.hits;
        ++s.history[name];
        fp.triggers->inc();
        action = fp.action;
        sleepMs = fp.sleepMs;
    }

    // Act outside the registry lock: a sleeping failpoint must not
    // serialize every other armed seam in the process.
    switch (action) {
      case Action::Off:
        return false;
      case Action::Error:
        return true;
      case Action::Throw:
        throw FailpointError(std::string("failpoint '") + name +
                             "' triggered");
      case Action::Sleep: {
        // Sliced sleep: a job deadline (support/cancel.hh) bound to
        // this thread still fires mid-delay instead of waiting out an
        // arbitrarily long injected stall.
        using Clock = std::chrono::steady_clock;
        const auto until = Clock::now() +
                           std::chrono::milliseconds(sleepMs);
        while (Clock::now() < until) {
            checkCancelled();
            const auto left = until - Clock::now();
            std::this_thread::sleep_for(std::min<Clock::duration>(
                left, std::chrono::milliseconds(20)));
        }
        return false;
      }
    }
    return false;
}

} // namespace detail

bool
arm(const std::string &name, const std::string &actionSpec,
    std::string *err)
{
    Armed fp;
    if (!parseSpec(name, actionSpec, fp, err))
        return false;
    fp.triggers = &telemetry::Registry::global().counter(
        "rfl_failpoint_triggers_total",
        "fault injections performed, by failpoint name",
        {{"name", name}});

    RegistryState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    const auto [it, inserted] = s.armed.insert_or_assign(name, fp);
    (void)it;
    if (inserted)
        detail::armedCount.fetch_add(1, std::memory_order_relaxed);
    return true;
}

void
disarm(const std::string &name)
{
    RegistryState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.armed.erase(name))
        detail::armedCount.fetch_sub(1, std::memory_order_relaxed);
}

void
disarmAll()
{
    RegistryState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    detail::armedCount.fetch_sub(
        static_cast<uint32_t>(s.armed.size()),
        std::memory_order_relaxed);
    s.armed.clear();
}

uint64_t
triggerCount(const std::string &name)
{
    RegistryState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    const auto it = s.history.find(name);
    return it == s.history.end() ? 0 : it->second;
}

std::vector<std::string>
armedNames()
{
    RegistryState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    std::vector<std::string> names;
    names.reserve(s.armed.size());
    for (const auto &[name, fp] : s.armed)
        names.push_back(name);
    return names;
}

int
armFromEnv(const char *env)
{
    const char *value = std::getenv(env);
    if (!value || !*value)
        return 0;
    int count = 0;
    std::string text(value);
    size_t pos = 0;
    while (pos <= text.size()) {
        size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        const std::string entry = text.substr(pos, comma - pos);
        pos = comma + 1;
        if (entry.empty())
            continue;
        const size_t eq = entry.find('=');
        if (eq == std::string::npos || eq == 0) {
            warn("%s: skipping malformed entry '%s' (want "
                 "name=action)",
                 env, entry.c_str());
            continue;
        }
        std::string err;
        if (!arm(entry.substr(0, eq), entry.substr(eq + 1), &err)) {
            warn("%s: %s", env, err.c_str());
            continue;
        }
        ++count;
    }
    if (count)
        warn("%s: %d failpoint(s) armed — this process is running "
             "under fault injection",
             env, count);
    return count;
}

namespace
{
/** Every rfl binary honors RFL_FAILPOINTS without per-main plumbing. */
struct EnvArmAtStartup
{
    EnvArmAtStartup() { armFromEnv(); }
} envArmAtStartup;
} // namespace

} // namespace rfl::failpoint
