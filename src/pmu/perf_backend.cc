#include "pmu/perf_backend.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "support/logging.hh"
#include "telemetry/metrics.hh"

namespace rfl::pmu
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
 * The rfl_pmu_* family. Lazily registered (idempotent) on first touch
 * from either a backend construction or probe(); the service touches
 * probe() at startup so /statsz carries a pmu group even on hosts where
 * perf_event_open is forbidden.
 */
struct PmuMetrics
{
    telemetry::Counter &scaledReads;
    telemetry::Counter &multiplexedReads;
    telemetry::Counter &unavailable;
    telemetry::Gauge &eventsLive;
    telemetry::Gauge &eventsDead;
};

PmuMetrics &
pmuMetrics()
{
    auto &reg = telemetry::Registry::global();
    static PmuMetrics m = {
        reg.counter("rfl_pmu_scaled_reads_total",
                    "Atomic group/singleton counter reads that applied "
                    "multiplex scaling math"),
        reg.counter("rfl_pmu_multiplexed_reads_total",
                    "Reads where at least one event was descheduled part "
                    "of the region (quality < 1)"),
        reg.counter("rfl_pmu_unavailable_total",
                    "perf_event backend constructions that found no live "
                    "counters"),
        reg.gauge("rfl_pmu_events_live",
                  "Events the host PMU accepted at last probe/open"),
        reg.gauge("rfl_pmu_events_dead",
                  "Mapped events the host PMU rejected at last "
                  "probe/open"),
    };
    return m;
}

/** /proc/sys/kernel/perf_event_paranoid, or -2 when unreadable. */
int
readParanoid()
{
    int level = -2;
    if (std::FILE *f = std::fopen("/proc/sys/kernel/perf_event_paranoid",
                                  "r")) {
        if (std::fscanf(f, "%d", &level) != 1)
            level = -2;
        std::fclose(f);
    }
    return level;
}

/** Once-per-process note that hardware counting is unavailable. */
void
informUnavailableOnce()
{
    static std::once_flag once;
    std::call_once(once, [] {
        inform("pmu: perf_event unavailable paranoid=%d live_events=0; "
               "hardware rows will be marked unavailable",
               readParanoid());
    });
}

/** Strip leading/trailing spaces and tabs. */
std::string
trimmed(const std::string &s)
{
    size_t b = s.find_first_not_of(" \t");
    if (b == std::string::npos)
        return "";
    size_t e = s.find_last_not_of(" \t");
    return s.substr(b, e - b + 1);
}

/**
 * Parse a non-negative integer (decimal or 0x hex); false on junk,
 * a sign (strtoull would wrap "-1") or a value above 64 bits.
 */
bool
parseU64(const std::string &s, uint64_t &out)
{
    if (s.empty() || !std::isdigit(static_cast<unsigned char>(s[0])))
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 0);
    if (errno != 0 || end == s.c_str() || *end != '\0')
        return false;
    out = static_cast<uint64_t>(v);
    return true;
}

} // namespace

int
PmuProbe::liveCount() const
{
    return static_cast<int>(std::count_if(
        events.begin(), events.end(),
        [](const ProbedEvent &e) { return e.live; }));
}

int
PmuProbe::deadCount() const
{
    return static_cast<int>(events.size()) - liveCount();
}

bool
PerfEventBackend::parseEventMap(const std::string &text,
                                std::vector<EventMapping> &out,
                                std::string *error)
{
    size_t pos = 0;
    while (pos <= text.size()) {
        const size_t comma = text.find(',', pos);
        const std::string entry = trimmed(
            text.substr(pos, comma == std::string::npos ? std::string::npos
                                                        : comma - pos));
        pos = comma == std::string::npos ? text.size() + 1 : comma + 1;
        if (entry.empty())
            continue;
        const size_t eq = entry.find('=');
        const size_t colon =
            eq == std::string::npos ? std::string::npos
                                    : entry.find(':', eq + 1);
        if (eq == std::string::npos || colon == std::string::npos) {
            if (error)
                *error = "expected <event>=<type>:<config>, got '" +
                         entry + "'";
            return false;
        }
        EventMapping m;
        const std::string name = trimmed(entry.substr(0, eq));
        if (!parseEventName(name, m.id)) {
            if (error)
                *error = "unknown event name '" + name + "'";
            return false;
        }
        uint64_t type = 0;
        if (!parseU64(trimmed(entry.substr(eq + 1, colon - eq - 1)),
                      type) ||
            type > UINT32_MAX ||
            !parseU64(trimmed(entry.substr(colon + 1)), m.config)) {
            if (error)
                *error = "bad type:config numbers in '" + entry + "'";
            return false;
        }
        m.type = static_cast<uint32_t>(type);
        m.fromEnv = true;
        out.push_back(m);
    }
    return true;
}

#if defined(__linux__)

namespace
{

/**
 * Core-PMU event types that can share a leader group. Dynamic types
 * (uncore IMC and friends) schedule on a different PMU and must be
 * opened standalone.
 */
bool
groupableType(uint32_t type)
{
    return type == PERF_TYPE_HARDWARE || type == PERF_TYPE_HW_CACHE ||
           type == PERF_TYPE_RAW;
}

} // namespace

std::vector<EventMapping>
PerfEventBackend::eventMappings()
{
    // The container-portable defaults. l3_hits is deliberately mapped
    // to CACHE_REFERENCES: references = hits + misses, so the backend
    // derives hits = references - misses at read time (see end()).
    std::vector<EventMapping> mappings = {
        {EventId::Cycles, PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES,
         false},
        {EventId::Instructions, PERF_TYPE_HARDWARE,
         PERF_COUNT_HW_INSTRUCTIONS, false},
        {EventId::L3Hits, PERF_TYPE_HARDWARE,
         PERF_COUNT_HW_CACHE_REFERENCES, false},
        {EventId::L3Misses, PERF_TYPE_HARDWARE,
         PERF_COUNT_HW_CACHE_MISSES, false},
    };
    const char *env = std::getenv("RFL_PERF_EVENTS");
    if (!env || !*env)
        return mappings;
    std::vector<EventMapping> fromEnv;
    std::string error;
    if (!parseEventMap(env, fromEnv, &error)) {
        warn("pmu: ignoring malformed RFL_PERF_EVENTS: %s",
             error.c_str());
        return mappings;
    }
    for (const EventMapping &m : fromEnv) {
        auto it = std::find_if(mappings.begin(), mappings.end(),
                               [&](const EventMapping &d) {
                                   return d.id == m.id;
                               });
        if (it != mappings.end())
            *it = m;
        else
            mappings.push_back(m);
    }
    return mappings;
}

int
PerfEventBackend::openEvent(uint32_t type, uint64_t config, int groupFd)
{
    perf_event_attr attr;
    std::memset(&attr, 0, sizeof(attr));
    attr.size = sizeof(attr);
    attr.type = type;
    attr.config = config;
    attr.inherit = 0;
    if (groupableType(type)) {
        // Per-thread pinned core event. The leader starts disabled and
        // is enabled as a group in begin(); members follow the leader.
        attr.disabled = groupFd < 0 ? 1 : 0;
        attr.exclude_kernel = 1;
        attr.exclude_hv = 1;
        attr.read_format = PERF_FORMAT_GROUP |
                           PERF_FORMAT_TOTAL_TIME_ENABLED |
                           PERF_FORMAT_TOTAL_TIME_RUNNING;
        const long fd = syscall(SYS_perf_event_open, &attr,
                                0 /* this thread */, -1 /* any cpu */,
                                groupFd, 0ul);
        return static_cast<int>(fd);
    }
    // Uncore/dynamic PMU: counts system-wide per socket, cannot join a
    // core group and rejects exclude bits; needs elevated privileges.
    attr.disabled = 1;
    attr.read_format = PERF_FORMAT_TOTAL_TIME_ENABLED |
                       PERF_FORMAT_TOTAL_TIME_RUNNING;
    const long fd = syscall(SYS_perf_event_open, &attr, -1 /* any pid */,
                            0 /* cpu 0 */, -1 /* no group */, 0ul);
    return static_cast<int>(fd);
}

bool
PerfEventBackend::available()
{
    const int fd =
        openEvent(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES, -1);
    if (fd < 0)
        return false;
    close(fd);
    return true;
}

PmuProbe
PerfEventBackend::probe()
{
    PmuProbe p;
    p.paranoid = readParanoid();
    for (const EventMapping &m : eventMappings()) {
        ProbedEvent e;
        e.mapping = m;
        const int fd = openEvent(m.type, m.config, -1);
        e.live = fd >= 0;
        if (fd >= 0)
            close(fd);
        if (e.live)
            p.available = true;
        p.events.push_back(e);
    }
    PmuMetrics &met = pmuMetrics();
    met.eventsLive.set(p.liveCount());
    met.eventsDead.set(p.deadCount());
    return p;
}

PerfEventBackend::PerfEventBackend()
{
    size_t deadCount = 0;
    bool misses = false;
    for (const EventMapping &m : eventMappings()) {
        if (groupableType(m.type)) {
            const int fd = openEvent(m.type, m.config, leaderFd_);
            if (fd < 0) {
                ++deadCount;
                continue;
            }
            if (leaderFd_ < 0)
                leaderFd_ = fd;
            group_.push_back({m.id, group_.size(), fd});
        } else {
            const int fd = openEvent(m.type, m.config, -1);
            if (fd < 0) {
                ++deadCount;
                continue;
            }
            singles_.push_back({m.id, fd});
        }
        if (m.id == EventId::L3Misses)
            misses = true;
        if (m.id == EventId::L3Hits)
            l3HitsFromReferences_ =
                !m.fromEnv && m.type == PERF_TYPE_HARDWARE &&
                m.config == PERF_COUNT_HW_CACHE_REFERENCES;
    }
    // A derived l3_hits without a misses counter is untrustworthy: the
    // references value would be reported as hits. Drop it up front.
    if (l3HitsFromReferences_ && !misses) {
        auto it = std::find_if(group_.begin(), group_.end(),
                               [](const GroupMember &g) {
                                   return g.id == EventId::L3Hits;
                               });
        if (it != group_.end()) {
            if (it->fd == leaderFd_) {
                // The doomed counter is the group leader (cycles and
                // instructions both failed to open).
                if (group_.size() == 1) {
                    close(it->fd);
                    leaderFd_ = -1;
                    group_.clear();
                } else {
                    // Later members schedule under this leader, so its
                    // fd must stay open and counting; mark the id dead
                    // so end() never reports its value.
                    it->id = EventId::NumEvents;
                }
            } else {
                // Closing a sibling also removes it from the kernel's
                // event group: erase it here too and compact later
                // slots so the leader read's values[] stays aligned
                // with group_ (and nr == group_.size() keeps holding).
                close(it->fd);
                const size_t slot = it->slot;
                group_.erase(it);
                for (GroupMember &g : group_)
                    if (g.slot > slot)
                        --g.slot;
            }
            l3HitsFromReferences_ = false;
            ++deadCount;
        }
    }
    PmuMetrics &met = pmuMetrics();
    const size_t liveGroup = static_cast<size_t>(
        std::count_if(group_.begin(), group_.end(),
                      [](const GroupMember &g) {
                          return g.id != EventId::NumEvents;
                      }));
    met.eventsLive.set(static_cast<double>(liveGroup + singles_.size()));
    met.eventsDead.set(static_cast<double>(deadCount));
    if (liveGroup == 0 && singles_.empty()) {
        met.unavailable.inc();
        informUnavailableOnce();
    }
}

PerfEventBackend::~PerfEventBackend()
{
    for (GroupMember &g : group_)
        if (g.fd >= 0)
            close(g.fd);
    for (Singleton &s : singles_)
        if (s.fd >= 0)
            close(s.fd);
}

bool
PerfEventBackend::supports(EventId id) const
{
    for (const GroupMember &g : group_)
        if (g.id == id)
            return true;
    for (const Singleton &s : singles_)
        if (s.id == id)
            return true;
    return false;
}

void
PerfEventBackend::begin()
{
    RFL_ASSERT(!inRegion_);
    inRegion_ = true;
    if (leaderFd_ >= 0) {
        ioctl(leaderFd_, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
        ioctl(leaderFd_, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
    }
    for (Singleton &s : singles_) {
        ioctl(s.fd, PERF_EVENT_IOC_RESET, 0);
        ioctl(s.fd, PERF_EVENT_IOC_ENABLE, 0);
    }
    beginSeconds_ = nowSeconds();
}

Counts
PerfEventBackend::end()
{
    RFL_ASSERT(inRegion_);
    inRegion_ = false;
    const double seconds = nowSeconds() - beginSeconds_;
    if (leaderFd_ >= 0)
        ioctl(leaderFd_, PERF_EVENT_IOC_DISABLE, PERF_IOC_FLAG_GROUP);
    for (Singleton &s : singles_)
        ioctl(s.fd, PERF_EVENT_IOC_DISABLE, 0);

    Counts c;
    bool anyRead = false;
    bool multiplexed = false;

    // The whole core group in ONE atomic leader read:
    //   { u64 nr; u64 time_enabled; u64 time_running; u64 values[nr]; }
    // so every member value is from the same scheduling instant.
    if (leaderFd_ >= 0) {
        std::vector<uint64_t> buf(3 + group_.size(), 0);
        const ssize_t want =
            static_cast<ssize_t>(buf.size() * sizeof(uint64_t));
        const ssize_t got = read(leaderFd_, buf.data(), buf.size() *
                                                            sizeof(uint64_t));
        const uint64_t nr = buf[0];
        if (got <= want && got >= static_cast<ssize_t>(3 * sizeof(uint64_t)) &&
            nr == group_.size()) {
            const uint64_t enabled = buf[1];
            const uint64_t running = buf[2];
            if (running > 0) {
                anyRead = true;
                const double scale = static_cast<double>(enabled) /
                                     static_cast<double>(running);
                const double quality =
                    enabled > 0 ? static_cast<double>(running) /
                                      static_cast<double>(enabled)
                                : 1.0;
                if (running < enabled)
                    multiplexed = true;
                for (const GroupMember &g : group_) {
                    if (g.id == EventId::NumEvents)
                        continue; // dropped derived-hits slot
                    const double v =
                        static_cast<double>(buf[3 + g.slot]) * scale;
                    c.set(g.id, static_cast<uint64_t>(v + 0.5));
                    c.setQuality(g.id, quality);
                }
            }
        }
    }

    // Singleton (uncore) fds: each read carries its own time fields.
    for (Singleton &s : singles_) {
        uint64_t buf[3] = {0, 0, 0};
        if (read(s.fd, buf, sizeof(buf)) != sizeof(buf))
            continue;
        const uint64_t enabled = buf[1];
        const uint64_t running = buf[2];
        if (running == 0)
            continue;
        anyRead = true;
        const double scale = static_cast<double>(enabled) /
                             static_cast<double>(running);
        const double quality =
            enabled > 0 ? static_cast<double>(running) /
                              static_cast<double>(enabled)
                        : 1.0;
        if (running < enabled)
            multiplexed = true;
        c.set(s.id, static_cast<uint64_t>(
                        static_cast<double>(buf[0]) * scale + 0.5));
        c.setQuality(s.id, quality);
    }

    // The default mapping backs l3_hits with CACHE_REFERENCES, which
    // counts hits + misses: report hits = references - misses (clamped)
    // and flag the derivation so consumers can tell.
    if (l3HitsFromReferences_ && c.supported(EventId::L3Hits) &&
        c.supported(EventId::L3Misses)) {
        const uint64_t refs = c.get(EventId::L3Hits);
        const uint64_t miss = c.get(EventId::L3Misses);
        c.set(EventId::L3Hits, refs > miss ? refs - miss : 0);
        c.setQuality(EventId::L3Hits,
                     std::min(c.quality(EventId::L3Hits),
                              c.quality(EventId::L3Misses)));
        c.markDerived(EventId::L3Hits);
    }

    if (anyRead) {
        PmuMetrics &met = pmuMetrics();
        met.scaledReads.inc();
        if (multiplexed)
            met.multiplexedReads.inc();
    }
    c.setSeconds(seconds);
    return c;
}

#else // !__linux__

std::vector<EventMapping>
PerfEventBackend::eventMappings()
{
    return {};
}

int
PerfEventBackend::openEvent(uint32_t, uint64_t, int)
{
    return -1;
}

bool
PerfEventBackend::available()
{
    return false;
}

PmuProbe
PerfEventBackend::probe()
{
    PmuProbe p;
    PmuMetrics &met = pmuMetrics();
    met.eventsLive.set(0);
    met.eventsDead.set(0);
    return p;
}

PerfEventBackend::PerfEventBackend()
{
    pmuMetrics().unavailable.inc();
    informUnavailableOnce();
}

PerfEventBackend::~PerfEventBackend() = default;

bool
PerfEventBackend::supports(EventId) const
{
    return false;
}

void
PerfEventBackend::begin()
{
    inRegion_ = true;
    beginSeconds_ = nowSeconds();
}

Counts
PerfEventBackend::end()
{
    inRegion_ = false;
    Counts c;
    c.setSeconds(nowSeconds() - beginSeconds_);
    return c;
}

#endif

} // namespace rfl::pmu
