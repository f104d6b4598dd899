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
#include <utility>

#include "support/address_arena.hh"

namespace rfl
{

/**
 * Owning, cache-line (64 B) aligned array of T.
 *
 * Move-only; the allocation is zero-initialized so cold-cache protocols
 * start from a deterministic memory image.
 */
template <typename T>
class AlignedBuffer
{
  public:
    static constexpr size_t alignment = 64;

    AlignedBuffer() = default;

    /** Allocate @p n zero-initialized elements. */
    explicit AlignedBuffer(size_t n) { reset(n); }

    AlignedBuffer(const AlignedBuffer &) = delete;
    AlignedBuffer &operator=(const AlignedBuffer &) = delete;

    AlignedBuffer(AlignedBuffer &&other) noexcept
        : data_(std::exchange(other.data_, nullptr)),
          size_(std::exchange(other.size_, 0))
    {}

    AlignedBuffer &
    operator=(AlignedBuffer &&other) noexcept
    {
        if (this != &other) {
            release();
            data_ = std::exchange(other.data_, nullptr);
            size_ = std::exchange(other.size_, 0);
        }
        return *this;
    }

    ~AlignedBuffer() { release(); }

    /**
     * Re-allocate to @p n zero-initialized elements; throws
     * std::bad_alloc when n * sizeof(T), rounded up to the alignment,
     * does not fit in size_t.
     */
    void
    reset(size_t n)
    {
        release();
        if (n == 0)
            return;
        if (n > (SIZE_MAX - alignment) / sizeof(T))
            throw std::bad_alloc();
        size_t bytes = n * sizeof(T);
        // aligned_alloc requires the size to be a multiple of the alignment.
        bytes = (bytes + alignment - 1) / alignment * alignment;
        void *p = std::aligned_alloc(alignment, bytes);
        if (!p)
            throw std::bad_alloc();
        data_ = static_cast<T *>(p);
        size_ = n;
        for (size_t i = 0; i < n; ++i)
            data_[i] = T{};
        // Give the buffer a canonical simulated address when a
        // measurement scope is active (see support/address_arena.hh).
        if (AddressArena *arena = AddressArena::current())
            arena->registerRegion(p, bytes);
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
        std::free(data_);
        data_ = nullptr;
        size_ = 0;
    }

    T *data_ = nullptr;
    size_t size_ = 0;
};

} // namespace rfl

#endif // RFL_SUPPORT_ALIGNED_BUFFER_HH
