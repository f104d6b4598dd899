/**
 * @file
 * Iterative in-place radix-2 complex FFT with a precomputed twiddle
 * table — the paper's example of a kernel whose operational intensity
 * grows with log(n).
 *
 * Analytic models (n complex points, interleaved re/im doubles):
 *   W = 5 n log2(n) flops
 *     (n/2 butterflies/stage * log2(n) stages * 10 flops each:
 *      complex mul = 4 mul + 2 add, two complex adds = 4 add)
 *   Q_cold, in-cache regime (24n bytes <= LLC):
 *     40n = data read 16n + data write-back 16n + twiddles 8n
 *   Q_cold streaming regime:
 *     32n (log2(n) + 1) + 8n  (each stage streams the array through
 *     DRAM; +1 for the bit-reversal pass)
 *
 * The kernel body is scalar (complex butterflies do not map onto the
 * engine's simple lane model); lanes() > 1 engines run it identically.
 */

#ifndef RFL_KERNELS_FFT_HH
#define RFL_KERNELS_FFT_HH

#include "kernels/kernel.hh"
#include "support/aligned_buffer.hh"

namespace rfl::kernels
{

/** See file comment. */
class Fft : public EngineKernel<Fft>
{
  public:
    /** @param n number of complex points; must be a power of two >= 4. */
    explicit Fft(size_t n);

    std::string name() const override { return "fft"; }
    std::string sizeLabel() const override;
    size_t workingSetBytes() const override { return 24 * n_; }
    double expectedFlops() const override
    {
        return 5.0 * static_cast<double>(n_) * log2n_;
    }
    double expectedColdTrafficBytes() const override;
    void init(uint64_t seed) override;
    /** The FFT dependency structure is not partitioned in this model. */
    bool parallelizable() const override { return false; }
    double checksum() const override;

  private:
    friend EngineKernel;

    template <typename E>
    void
    runT(E &e, int part, int nparts)
    {
        RFL_ASSERT(part == 0 && nparts == 1);
        double *d = data_.data();
        const double *tw = twiddle_.data();

        // Bit-reversal permutation (loads/stores only).
        for (size_t i = 0; i < n_; ++i) {
            const size_t j = bitrev_[i];
            if (j > i) {
                const double re_i = e.load(d + 2 * i);
                const double im_i = e.load(d + 2 * i + 1);
                const double re_j = e.load(d + 2 * j);
                const double im_j = e.load(d + 2 * j + 1);
                e.store(d + 2 * i, re_j);
                e.store(d + 2 * i + 1, im_j);
                e.store(d + 2 * j, re_i);
                e.store(d + 2 * j + 1, im_i);
            }
        }
        e.loop(n_);

        // log2(n) butterfly stages.
        for (size_t len = 2; len <= n_; len <<= 1) {
            const size_t half = len >> 1;
            const size_t step = n_ / len; // twiddle stride in the table
            for (size_t base = 0; base < n_; base += len) {
                for (size_t k = 0; k < half; ++k) {
                    const double wr = e.load(tw + 2 * (k * step));
                    const double wi = e.load(tw + 2 * (k * step) + 1);
                    double *lo = d + 2 * (base + k);
                    double *hi = d + 2 * (base + k + half);
                    const double xr = e.load(hi);
                    const double xi = e.load(hi + 1);
                    // t = w * x (complex): 4 mul + 2 add
                    const double tr = e.sub(e.mul(wr, xr), e.mul(wi, xi));
                    const double ti = e.add(e.mul(wr, xi), e.mul(wi, xr));
                    const double yr = e.load(lo);
                    const double yi = e.load(lo + 1);
                    e.store(hi, e.sub(yr, tr));
                    e.store(hi + 1, e.sub(yi, ti));
                    e.store(lo, e.add(yr, tr));
                    e.store(lo + 1, e.add(yi, ti));
                }
            }
            e.loop(n_ / 2, 4); // index arithmetic is heavier here
        }
    }

    size_t n_;
    double log2n_;
    AlignedBuffer<double> data_;    ///< 2n doubles, interleaved complex
    AlignedBuffer<double> twiddle_; ///< n doubles (n/2 complex roots)
    std::vector<size_t> bitrev_;
};

} // namespace rfl::kernels

#endif // RFL_KERNELS_FFT_HH
