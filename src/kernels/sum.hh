/**
 * @file
 * sum: s = sum x[i] — the minimal-work validation kernel (the paper
 * lineage uses a sum reduction to sanity-check the whole toolchain).
 *
 * Analytic models:
 *   W = n flops (n adds; the horizontal/partition combines are O(1))
 *   Q_cold = 8n bytes
 *   I_cold = 1/8 flops/byte
 */

#ifndef RFL_KERNELS_SUM_HH
#define RFL_KERNELS_SUM_HH

#include "kernels/kernel.hh"
#include "support/aligned_buffer.hh"

namespace rfl::kernels
{

/** See file comment. */
class SumReduction : public EngineKernel<SumReduction>
{
  public:
    explicit SumReduction(size_t n) : n_(n) { RFL_ASSERT(n > 0); }

    std::string name() const override { return "sum"; }
    std::string sizeLabel() const override;
    size_t workingSetBytes() const override { return 8 * n_; }
    double expectedFlops() const override
    {
        return static_cast<double>(n_);
    }
    double expectedColdTrafficBytes() const override
    {
        return 8.0 * static_cast<double>(n_);
    }
    void init(uint64_t seed) override;
    double checksum() const override { return result_.total(); }

  private:
    friend EngineKernel;

    template <typename E>
    void
    runT(E &e, int part, int nparts)
    {
        const auto [lo, hi] = partitionRange(n_, part, nparts);
        const double *x = x_.data();
        const int w = e.lanes();
        double acc = 0.0;
        size_t i = lo;
        if (w > 1) {
            Vec vacc = e.vbroadcast(0.0);
            for (; i + static_cast<size_t>(w) <= hi;
                 i += static_cast<size_t>(w)) {
                vacc = e.vadd(vacc, e.vload(x + i));
            }
            acc = e.vreduce(vacc);
        }
        for (; i < hi; ++i)
            acc = e.add(acc, e.load(x + i));
        e.loop((hi - lo + static_cast<size_t>(w) - 1) /
               static_cast<size_t>(w));
        result_.add(part, nparts, acc);
    }

    size_t n_;
    PartialSums result_;
    AlignedBuffer<double> x_;
};

} // namespace rfl::kernels

#endif // RFL_KERNELS_SUM_HH
