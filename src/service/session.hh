/**
 * @file
 * Per-client sessions: rate limiting and request logging.
 *
 * The service tracks one token bucket per client address: each request
 * spends a token, tokens refill at ratePerSec up to burst. A client
 * that outruns its bucket gets 429 responses until it backs off —
 * cheap protection against a single chatty client starving the
 * campaign workers. ratePerSec == 0 disables limiting entirely (load
 * tests hammer on purpose).
 *
 * Request logging goes through support/logging's inform() channel in
 * a common-log-like shape, so `roofline_serve` output is greppable
 * with the rest of the library's diagnostics and muted the same way
 * (setVerbose(false)).
 */

#ifndef RFL_SERVICE_SESSION_HH
#define RFL_SERVICE_SESSION_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace rfl::service
{

/** Session-layer knobs. */
struct SessionOptions
{
    /** Sustained requests/second allowed per client; 0 = unlimited. */
    double ratePerSec = 0.0;
    /** Bucket capacity: short bursts above the rate that are OK. */
    double burst = 32.0;
    /** Log one line per request through inform(). */
    bool logRequests = true;
};

/** Monotonic session counters, exposed by /statsz. */
struct SessionStats
{
    uint64_t admitted = 0;
    uint64_t rateLimited = 0;
    size_t clients = 0; ///< distinct client addresses seen
};

/** See file comment. All methods are thread-safe. */
class SessionTable
{
  public:
    explicit SessionTable(SessionOptions opts = {});

    /**
     * Spend one token of @p client's bucket. @return false when the
     * client is over its rate (the API answers 429).
     */
    bool admit(const std::string &client);

    /** Log one served request (no-op when logging is off). @p
     *  requestId tags the line so it correlates with job spans. */
    void logRequest(const std::string &client,
                    const std::string &method,
                    const std::string &target, int status,
                    double seconds, const std::string &requestId = "");

    SessionStats stats() const;

  private:
    struct Bucket
    {
        double tokens = 0.0;
        std::chrono::steady_clock::time_point last;
    };

    /** Sweep idle buckets once the table is at kMaxClients. */
    void evictStaleLocked(std::chrono::steady_clock::time_point now);

    SessionOptions opts_;
    mutable std::mutex mutex_;
    std::map<std::string, Bucket> buckets_;
    SessionStats stats_;
};

} // namespace rfl::service

#endif // RFL_SERVICE_SESSION_HH
