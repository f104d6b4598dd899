#include "kernels/fft.hh"

#include <cmath>

#include "support/logging.hh"

namespace rfl::kernels
{

namespace
{

bool
isPow2(size_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

Fft::Fft(size_t n) : n_(n), log2n_(std::log2(static_cast<double>(n)))
{
    if (!isPow2(n) || n < 4)
        fatal("Fft: n must be a power of two >= 4 (got %zu)", n);
}

std::string
Fft::sizeLabel() const
{
    return "n=" + std::to_string(n_);
}

double
Fft::expectedColdTrafficBytes() const
{
    const double n = static_cast<double>(n_);
    if (workingSetBytes() <= llcHintBytes())
        return 40.0 * n;
    return 32.0 * n * (log2n_ + 1.0) + 8.0 * n;
}

void
Fft::init(uint64_t seed)
{
    if (data_.empty()) {
        data_.reset(2 * n_);
        twiddle_.reset(n_);

        // Twiddle table: w^k = exp(-2 pi i k / n) for k in [0, n/2).
        for (size_t k = 0; k < n_ / 2; ++k) {
            const double ang = -2.0 * M_PI * static_cast<double>(k) /
                               static_cast<double>(n_);
            twiddle_[2 * k] = std::cos(ang);
            twiddle_[2 * k + 1] = std::sin(ang);
        }

        // Bit-reversal index table.
        bitrev_.resize(n_);
        const int bits = static_cast<int>(std::round(log2n_));
        for (size_t i = 0; i < n_; ++i) {
            size_t r = 0;
            for (int b = 0; b < bits; ++b)
                if (i & (1ull << b))
                    r |= 1ull << (bits - 1 - b);
            bitrev_[i] = r;
        }
    }
    Rng rng(seed);
    for (size_t i = 0; i < 2 * n_; ++i)
        data_[i] = rng.nextDouble(-1.0, 1.0);
}

double
Fft::checksum() const
{
    double s = 0.0;
    for (size_t i = 0; i < 2 * n_; ++i)
        s += data_[i] * (i % 7 == 0 ? 1.0 : 0.5);
    return s;
}

} // namespace rfl::kernels
