#include "service/session.hh"

#include <algorithm>

#include "support/logging.hh"

namespace rfl::service
{

namespace
{

/**
 * Distinct client buckets kept before idle ones are swept; bounds the
 * table's memory against address churn (a resident daemon would
 * otherwise keep one entry per client forever).
 */
constexpr size_t kMaxClients = 4096;
/** A bucket idle this long is evictable by the sweep. */
constexpr double kIdleEvictSeconds = 300.0;

} // namespace

SessionTable::SessionTable(SessionOptions opts) : opts_(opts)
{
}

void
SessionTable::evictStaleLocked(std::chrono::steady_clock::time_point now)
{
    if (buckets_.size() < kMaxClients)
        return;
    // O(clients) sweep, amortized by only running at the cap; with
    // the table full of genuinely active clients it degrades to one
    // scan per admit, which is still cheap at kMaxClients scale.
    for (auto it = buckets_.begin(); it != buckets_.end();) {
        const double idle =
            std::chrono::duration<double>(now - it->second.last)
                .count();
        if (idle > kIdleEvictSeconds)
            it = buckets_.erase(it);
        else
            ++it;
    }
}

bool
SessionTable::admit(const std::string &client)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto now = std::chrono::steady_clock::now();
    evictStaleLocked(now);
    if (opts_.ratePerSec <= 0.0) {
        ++stats_.admitted;
        // Count distinct clients anyway; last stays default-old, so
        // unlimited-mode entries are the first the sweep reclaims.
        buckets_.try_emplace(client);
        stats_.clients = buckets_.size();
        return true;
    }

    auto [it, fresh] = buckets_.try_emplace(client);
    Bucket &b = it->second;
    if (fresh) {
        b.tokens = opts_.burst;
        b.last = now;
    }
    stats_.clients = buckets_.size();

    const double elapsed =
        std::chrono::duration<double>(now - b.last).count();
    b.last = now;
    b.tokens = std::min(opts_.burst,
                        b.tokens + elapsed * opts_.ratePerSec);
    if (b.tokens < 1.0) {
        ++stats_.rateLimited;
        return false;
    }
    b.tokens -= 1.0;
    ++stats_.admitted;
    return true;
}

void
SessionTable::logRequest(const std::string &client,
                         const std::string &method,
                         const std::string &target, int status,
                         double seconds, const std::string &requestId)
{
    if (!opts_.logRequests)
        return;
    LogContext ctx(requestId);
    inform("http %s \"%s %s\" %d %.3fms", client.c_str(),
           method.c_str(), target.c_str(), status, seconds * 1e3);
}

SessionStats
SessionTable::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace rfl::service
