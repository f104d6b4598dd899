/**
 * @file
 * Cache-line-aligned owning buffer for kernel operands.
 *
 * The measurement methodology depends on operands starting at a cache-line
 * boundary: expected-traffic formulas assume an array of n doubles touches
 * exactly ceil(8n / 64) lines. A misaligned operand would touch one extra
 * line and bias the traffic-validation experiments.
 */

#ifndef RFL_SUPPORT_ALIGNED_BUFFER_HH
#define RFL_SUPPORT_ALIGNED_BUFFER_HH

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <type_traits>
#include <utility>

#include "support/address_arena.hh"

namespace rfl
{

/**
 * Owning, cache-line (64 B) aligned array of T.
 *
 * Move-only; the allocation is zero-initialized so cold-cache protocols
 * start from a deterministic memory image. The zeros come from calloc,
 * which hands out fresh pages without writing them: a large buffer
 * costs no resident memory until it is written, and an operand that is
 * only read stays on the kernel's shared zero page.
 */
template <typename T>
class AlignedBuffer
{
    // All-zero bytes are T{} only for arithmetic types.
    static_assert(std::is_arithmetic_v<T>);

  public:
    static constexpr size_t alignment = 64;

    AlignedBuffer() = default;

    /** Allocate @p n zero-initialized elements. */
    explicit AlignedBuffer(size_t n) { reset(n); }

    AlignedBuffer(const AlignedBuffer &) = delete;
    AlignedBuffer &operator=(const AlignedBuffer &) = delete;

    AlignedBuffer(AlignedBuffer &&other) noexcept
        : raw_(std::exchange(other.raw_, nullptr)),
          data_(std::exchange(other.data_, nullptr)),
          size_(std::exchange(other.size_, 0))
    {}

    AlignedBuffer &
    operator=(AlignedBuffer &&other) noexcept
    {
        if (this != &other) {
            release();
            raw_ = std::exchange(other.raw_, nullptr);
            data_ = std::exchange(other.data_, nullptr);
            size_ = std::exchange(other.size_, 0);
        }
        return *this;
    }

    ~AlignedBuffer() { release(); }

    /**
     * Re-allocate to @p n zero-initialized elements; throws
     * std::bad_alloc when n * sizeof(T), rounded up to the alignment,
     * plus the alignment slack, does not fit in size_t.
     */
    void
    reset(size_t n)
    {
        release();
        if (n == 0)
            return;
        if (n > (SIZE_MAX - 2 * alignment) / sizeof(T))
            throw std::bad_alloc();
        // Whole lines, so the buffer never shares its last line.
        const size_t bytes =
            (n * sizeof(T) + alignment - 1) / alignment * alignment;
        // calloc has no aligned variant: over-allocate by one line and
        // round the start up to the next line boundary.
        raw_ = std::calloc(1, bytes + alignment);
        if (!raw_)
            throw std::bad_alloc();
        const uintptr_t start =
            (reinterpret_cast<uintptr_t>(raw_) + alignment - 1) /
            alignment * alignment;
        data_ = reinterpret_cast<T *>(start);
        size_ = n;
        // Give the buffer a canonical simulated address when a
        // measurement scope is active (see support/address_arena.hh).
        if (AddressArena *arena = AddressArena::current())
            arena->registerRegion(data_, bytes);
    }

    T *data() { return data_; }
    const T *data() const { return data_; }
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    size_t sizeBytes() const { return size_ * sizeof(T); }

    T &operator[](size_t i) { return data_[i]; }
    const T &operator[](size_t i) const { return data_[i]; }

    T *begin() { return data_; }
    T *end() { return data_ + size_; }
    const T *begin() const { return data_; }
    const T *end() const { return data_ + size_; }

  private:
    void
    release()
    {
        std::free(raw_);
        raw_ = nullptr;
        data_ = nullptr;
        size_ = 0;
    }

    void *raw_ = nullptr; ///< what calloc returned; data_ is aligned
    T *data_ = nullptr;
    size_t size_ = 0;
};

} // namespace rfl

#endif // RFL_SUPPORT_ALIGNED_BUFFER_HH
