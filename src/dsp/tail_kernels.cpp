// The analysis-tail entry points: one-line forwards to the kernel table of
// the active dispatch level (kernels.hpp).
#include "dsp/tail_kernels.hpp"

#include "dsp/kernels.hpp"

namespace witrack::dsp::tail {

void diff_magnitude(const double* cur_re, const double* cur_im,
                    double* prev_re, double* prev_im, double* out,
                    std::size_t n) {
    kernels().diff_magnitude(cur_re, cur_im, prev_re, prev_im, out, n);
}

void scaled_diff_magnitude(const double* cur_re, const double* cur_im,
                           const double* ref_re, const double* ref_im,
                           double scale, double* out, std::size_t n) {
    kernels().scaled_diff_magnitude(cur_re, cur_im, ref_re, ref_im, scale, out, n);
}

Moments extent_moments(const double* v, std::size_t lo, std::size_t hi,
                       double threshold, double bin_m) {
    return kernels().extent_moments(v, lo, hi, threshold, bin_m);
}

std::size_t max_bin(const double* v, std::size_t n) {
    return kernels().max_bin(v, n);
}

void peak_candidates(const double* v, std::size_t n, double threshold,
                     double* out) {
    kernels().peak_candidates(v, n, threshold, out);
}

}  // namespace witrack::dsp::tail
