/**
 * @file
 * Cooperative cancellation: wall-clock deadlines for long simulations.
 *
 * A CancelToken carries an optional deadline and an optional shared
 * abort flag; a CancelScope binds one token to the current thread
 * (RAII, nests). Long-running code polls at natural boundaries —
 * the simulator once per batch a producer hands over (a SimEngine
 * capacity flush or replayed trace batch, never a drain), the campaign
 * executor between job stages — via checkCancelled(), which throws
 * TimedOutError once the bound token expires.
 *
 * Cost model: with no token bound (every CLI run, every campaign
 * without a timeout) a check is one thread-local pointer load and a
 * predictable branch — nothing else. With a token bound it adds one
 * relaxed atomic load plus a steady_clock read per check; the
 * simulator checks once per batch of up to 4096 records, so this
 * stays far below the sim-throughput noise floor.
 *
 * The campaign executor builds one token per job (deadline = the
 * earlier of the campaign's `timeout =` deadline and the job's
 * ExecutorOptions::jobTimeoutSeconds budget), all linked to one
 * per-run abort flag: the first job to time out flips the flag and
 * every other in-flight job of the same campaign unwinds at its next
 * check instead of running to completion.
 */

#ifndef RFL_SUPPORT_CANCEL_HH
#define RFL_SUPPORT_CANCEL_HH

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>

namespace rfl
{

/** Thrown by checkCancelled() when the bound token has expired; the
 *  service maps it to the TimedOut job state, the CLI to exit 1. */
class TimedOutError : public std::runtime_error
{
  public:
    explicit TimedOutError(const std::string &msg)
        : std::runtime_error(msg)
    {
    }
};

/** See file comment. */
class CancelToken
{
  public:
    CancelToken() = default;

    /** Expire once the wall clock reaches @p tp. */
    void
    setDeadline(std::chrono::steady_clock::time_point tp)
    {
        deadline_ = tp;
        hasDeadline_ = true;
    }

    /** Expire @p seconds from now. */
    void
    setDeadlineIn(double seconds)
    {
        setDeadline(std::chrono::steady_clock::now() +
                    std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(seconds)));
    }

    /** Share @p flag: the token also expires once *flag is true. */
    void
    linkAbortFlag(const std::atomic<bool> *flag)
    {
        abort_ = flag;
    }

    /** Immediate cancellation (sets this token's own flag). */
    void
    cancel()
    {
        cancelled_.store(true, std::memory_order_relaxed);
    }

    bool
    expired() const
    {
        if (cancelled_.load(std::memory_order_relaxed))
            return true;
        if (abort_ && abort_->load(std::memory_order_relaxed))
            return true;
        return hasDeadline_ &&
               std::chrono::steady_clock::now() >= deadline_;
    }

  private:
    std::atomic<bool> cancelled_{false};
    const std::atomic<bool> *abort_ = nullptr;
    std::chrono::steady_clock::time_point deadline_{};
    bool hasDeadline_ = false;
};

namespace detail
{
/** The innermost bound token of this thread (null = no deadline). */
extern thread_local const CancelToken *tlCancelToken;
} // namespace detail

/** RAII thread binding; nests (innermost token wins, outer restored). */
class CancelScope
{
  public:
    explicit CancelScope(const CancelToken *token)
        : prev_(detail::tlCancelToken)
    {
        detail::tlCancelToken = token;
    }

    ~CancelScope() { detail::tlCancelToken = prev_; }

    CancelScope(const CancelScope &) = delete;
    CancelScope &operator=(const CancelScope &) = delete;

  private:
    const CancelToken *prev_;
};

/** @return whether the bound token (if any) has expired. */
inline bool
cancelPending()
{
    const CancelToken *token = detail::tlCancelToken;
    return token != nullptr && token->expired();
}

/** Throw TimedOutError (with @p what as context) if a bound token has
 *  expired; no-op — one TLS load — otherwise. */
void checkCancelled(const char *what = nullptr);

} // namespace rfl

#endif // RFL_SUPPORT_CANCEL_HH
