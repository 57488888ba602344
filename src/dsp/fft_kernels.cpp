#include "dsp/fft_kernels.hpp"

#include <cmath>
#include <stdexcept>

#include "dsp/kernels.hpp"

namespace witrack::dsp {

// The transform is an iterative Stockham autosort: every stage reads the
// quartet {base, base + n/4, base + n/2, base + 3n/4} (base = s*p + q) from
// the source plane and writes the contiguous group {4sp + q + k*s} to the
// destination plane, ping-ponging between the data and work planes. There
// is no bit-reversal permutation, every inner q-loop walks contiguous
// memory, and the twiddle factor depends only on p -- exactly the shape
// the lane templates in fft_kernels_impl.hpp vectorize explicitly.
//
// Pruning bookkeeping: a nonzero input prefix [0, nzb) stays a *contiguous*
// prefix under this stage ordering. With thresholds t_k = clamp(nzb - k*n/4,
// 0, n/4), operand k of the butterfly at base is structurally zero iff
// base >= t_k, so each stage splits its p-range into four branch-free
// regions (4, 3, 2, 1 live operands) plus a skipped all-zero tail, and the
// prefix bound propagates as nzb' = 4s * ceil(t_0 / s). Because every
// stage's stride divides the next stage's bound, the region boundaries
// always fall on whole p values, and a skipped (unwritten) destination
// range is never read back. The final stage always satisfies nzb >= s, so
// its t_0 covers the whole p-range and the output is fully materialized.

Pow2Kernel::Pow2Kernel(std::size_t n, std::size_t n_nonzero) : n_(n) {
    if (!is_power_of_two(n_))
        throw std::invalid_argument("Pow2Kernel: size must be a power of two");
    nz_ = (n_nonzero == 0 || n_nonzero > n_) ? n_ : n_nonzero;

    // Plan the stage sequence: radix-4 all the way down, with a radix-2
    // fixup as the last stage when log2(n) is odd.
    std::size_t sub = n_;
    std::size_t stride = 1;
    while (sub >= 4) {
        const std::size_t m = sub / 4;
        stages_.push_back({4, stride, m, tw_.size()});
        tw_.resize(tw_.size() + 6 * m);
        double* w1r = tw_.data() + stages_.back().tw_offset;
        double* w1i = w1r + m;
        double* w2r = w1i + m;
        double* w2i = w2r + m;
        double* w3r = w2i + m;
        double* w3i = w3r + m;
        const double theta = -2.0 * M_PI / static_cast<double>(sub);
        for (std::size_t p = 0; p < m; ++p) {
            const double a = theta * static_cast<double>(p);
            w1r[p] = std::cos(a);
            w1i[p] = std::sin(a);
            w2r[p] = std::cos(2.0 * a);
            w2i[p] = std::sin(2.0 * a);
            w3r[p] = std::cos(3.0 * a);
            w3i[p] = std::sin(3.0 * a);
        }
        sub /= 4;
        stride *= 4;
    }
    if (sub == 2) stages_.push_back({2, n_ / 2, 1, tw_.size()});
}

void Pow2Kernel::forward(double* xr, double* xi, double* wr, double* wi) const {
    kernels().forward(*this, xr, xi, wr, wi, nz_);
}

void Pow2Kernel::forward_dense(double* xr, double* xi, double* wr,
                               double* wi) const {
    kernels().forward(*this, xr, xi, wr, wi, n_);
}

void Pow2Kernel::inverse(double* xr, double* xi, double* wr, double* wi) const {
    kernels().inverse(*this, xr, xi, wr, wi);
}

}  // namespace witrack::dsp
