/**
 * @file
 * Strided sum: s = sum x[i*stride] for i in [0, n).
 *
 * The diagnostic kernel for the two under-the-roof effects the roofline
 * alone cannot separate:
 *   - stride 1..4 lines: the streamer keeps up, latency hidden;
 *   - larger strides: the prefetcher loses the pattern, every access
 *     exposes DRAM latency;
 *   - stride >= a page: DTLB misses stack a page walk on every access.
 *
 * Analytic models (elements 8 bytes, line 64 B):
 *   W = n flops
 *   Q_cold = n * 64 bytes for stride >= 8 doubles (one line per touch);
 *            for smaller strides ceil(n*stride/8) distinct lines.
 */

#ifndef RFL_KERNELS_STRIDED_HH
#define RFL_KERNELS_STRIDED_HH

#include "kernels/kernel.hh"
#include "support/aligned_buffer.hh"

namespace rfl::kernels
{

/** See file comment. */
class StridedSum : public EngineKernel<StridedSum>
{
  public:
    /**
     * @param n      number of touched elements
     * @param stride distance between touched elements, in doubles
     */
    StridedSum(size_t n, size_t stride) : n_(n), stride_(stride)
    {
        RFL_ASSERT(n > 0 && stride > 0);
    }

    std::string name() const override { return "strided-sum"; }
    std::string sizeLabel() const override;
    size_t workingSetBytes() const override { return 8 * n_ * stride_; }
    double expectedFlops() const override
    {
        return static_cast<double>(n_);
    }
    double expectedColdTrafficBytes() const override;
    void init(uint64_t seed) override;
    double checksum() const override { return result_.total(); }

  private:
    friend EngineKernel;

    template <typename E>
    void
    runT(E &e, int part, int nparts)
    {
        const auto [lo, hi] = partitionRange(n_, part, nparts, 1);
        const double *x = x_.data();
        double acc = 0.0;
        for (size_t i = lo; i < hi; ++i)
            acc = e.add(acc, e.load(x + i * stride_));
        e.loop(hi - lo);
        result_.add(part, nparts, acc);
    }

    size_t n_;
    size_t stride_;
    PartialSums result_;
    AlignedBuffer<double> x_;
};

} // namespace rfl::kernels

#endif // RFL_KERNELS_STRIDED_HH
