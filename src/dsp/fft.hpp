// FFT engine for the range transform (paper Section 7: "The signal from each
// receiving antenna is transformed to the frequency domain using an FFT whose
// size matches the FMCW sweep period").
//
// The sweep period (2.5 ms at 1 MS/s) gives N = 2500 samples, which is not a
// power of two, so the engine supports both power-of-two transforms (the
// structure-of-arrays radix-4 kernel in fft_kernels.hpp) and Bluestein's
// chirp-z algorithm for arbitrary N (whose internal convolution runs on the
// same kernel). Plans may additionally be *pruned*: a plan built with
// n_nonzero < n assumes the input tail [n_nonzero, n) is exactly zero and
// skips the butterflies that only touch it -- the natural shape of the
// zero-padded sweep (2500 samples into a 4096-point transform).
#pragma once

#include <complex>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "dsp/fft_kernels.hpp"

namespace witrack::dsp {

class FftPlanCache;

using cplx = std::complex<double>;

/// Caller-owned scratch space for allocation-free transforms: separate
/// re/im planes (the kernels are structure-of-arrays throughout). Buffers
/// grow on first use and are reused afterwards, so a long-lived scratch
/// makes every subsequent transform heap-allocation-free. One scratch must
/// not be shared between threads.
struct FftScratch {
    std::vector<double> dre, dim;  ///< deinterleave / r2c packing planes
    std::vector<double> wre, wim;  ///< kernel ping-pong work planes
    std::vector<double> bre, bim;  ///< Bluestein convolution planes
};

/// Planned DFT of a fixed size. Plans precompute per-stage twiddle tables
/// (and, for non-power-of-two sizes, the Bluestein chirp spectrum), so
/// repeated transforms of the same size are cheap. Plans are immutable
/// after construction and safe to share across threads.
class Fft {
  public:
    /// `n_nonzero` in [1, n) builds a pruned plan: forward() then reads
    /// only the first n_nonzero input entries and treats the tail as
    /// exactly zero (the caller promises it is). 0 (or >= n) means dense.
    /// Pruning applies to power-of-two sizes; other sizes are planned
    /// dense. inverse() is always dense.
    explicit Fft(std::size_t n, std::size_t n_nonzero = 0);

    std::size_t size() const { return n_; }
    /// Effective nonzero input prefix (== size() for a dense plan).
    std::size_t n_nonzero() const {
        return pow2_ ? kernel_->n_nonzero() : n_;
    }

    /// The pruning a plan of size n actually applies (cache-key normalizer:
    /// non-power-of-two and degenerate requests plan dense).
    static std::size_t effective_nonzero(std::size_t n, std::size_t n_nonzero) {
        if (!is_power_of_two(n)) return n;
        return (n_nonzero == 0 || n_nonzero >= n) ? n : n_nonzero;
    }

    /// In-place forward DFT: X_k = sum_n x_n exp(-2*pi*i*n*k/N).
    void forward(std::vector<cplx>& data) const;

    /// In-place inverse DFT, normalized by 1/N so inverse(forward(x)) == x.
    void inverse(std::vector<cplx>& data) const;

    /// Scratch-based variants: identical results, but all temporary storage
    /// lives in `scratch`, so repeated calls do not touch the heap.
    void forward(std::vector<cplx>& data, FftScratch& scratch) const;
    void inverse(std::vector<cplx>& data, FftScratch& scratch) const;

    /// Structure-of-arrays entry points (the hot path): transform the
    /// size() doubles in each of (re, im) in place. For a pruned plan,
    /// forward_soa reads only the first n_nonzero() entries.
    void forward_soa(double* re, double* im, FftScratch& scratch) const;
    void inverse_soa(double* re, double* im, FftScratch& scratch) const;

    static bool is_power_of_two(std::size_t n) {
        return Pow2Kernel::is_power_of_two(n);
    }

  private:
    void bluestein_forward(double* re, double* im, FftScratch& scratch) const;

    std::size_t n_ = 0;
    bool pow2_ = false;

    // Power-of-two path: the SoA radix-4 kernel plan.
    std::unique_ptr<Pow2Kernel> kernel_;

    // Bluestein state: convolution length m_ (power of two >= 2n-1), the
    // quadratic chirp b_k = exp(+i*pi*k^2/n) as SoA planes, the forward
    // FFT of the zero-padded index-wrapped chirp, and the convolution
    // kernel (forward pruned to the n nonzero data entries of the
    // m-point buffer; inverse dense).
    std::size_t m_ = 0;
    std::vector<double> chirp_re_, chirp_im_;
    std::vector<double> chirp_spec_re_, chirp_spec_im_;
    std::unique_ptr<Pow2Kernel> conv_kernel_;
};

/// Real-input DFT plan of a fixed size N with a true r2c half-spectrum
/// contract: forward() emits the N/2 + 1 non-redundant bins X_0 .. X_{N/2}
/// (the upper half is their conjugate mirror and is never materialized).
/// Even N runs through one N/2-point complex FFT (even samples in the real
/// plane, odd samples in the imaginary plane) plus an O(N/4) paired
/// untangling stage; odd N falls back to the complex plan. A plan built
/// with n_nonzero < N accepts exactly n_nonzero input samples and treats
/// the zero-padded tail as structural (pruning the underlying kernel when
/// the half size is a power of two). Immutable after construction; all
/// per-call storage is in the caller's FftScratch, so steady-state
/// transforms are allocation-free.
class RealFft {
  public:
    explicit RealFft(std::size_t n, std::size_t n_nonzero = 0);

    /// Cache-backed variant: the internal half-length (or odd-N fallback)
    /// complex plan is obtained from `cache` instead of built privately, so
    /// RealFft instances of one shape -- and complex-plan consumers of the
    /// half size -- share tables. Identical arithmetic either way.
    RealFft(std::size_t n, FftPlanCache& cache, std::size_t n_nonzero = 0);

    std::size_t size() const { return n_; }
    /// Number of input samples forward() consumes (== size() when dense).
    std::size_t n_nonzero() const { return nz_; }
    /// Bins forward() emits: size()/2 + 1 (DC through Nyquist inclusive).
    std::size_t spectrum_size() const { return n_ / 2 + 1; }

    /// Half spectrum of the real input (input.size() == n_nonzero(),
    /// zero-padded to size()) into `out`, resized to spectrum_size() --
    /// no allocation once capacity is warm.
    void forward(std::span<const double> input, std::vector<cplx>& out,
                 FftScratch& scratch) const;

    /// Fused-window variant: transforms input[i] * window[i], applying the
    /// window during the r2c packing pass instead of in a separate sweep
    /// over the samples. window.size() == n_nonzero().
    void forward_windowed(std::span<const double> input,
                          std::span<const double> window,
                          std::vector<cplx>& out, FftScratch& scratch) const;

    /// Structure-of-arrays variants: identical transforms, but the half
    /// spectrum lands in separate re/im planes (each resized to
    /// spectrum_size()) instead of an interleaved complex vector. Plane
    /// element k is bit-identical to the complex overload's out[k] -- the
    /// output layout is the only difference, which lets downstream SIMD
    /// consumers (background subtraction, magnitude scans) stream the
    /// planes with unit stride.
    void forward_soa(std::span<const double> input, std::vector<double>& out_re,
                     std::vector<double>& out_im, FftScratch& scratch) const;
    void forward_windowed_soa(std::span<const double> input,
                              std::span<const double> window,
                              std::vector<double>& out_re,
                              std::vector<double>& out_im,
                              FftScratch& scratch) const;

  private:
    void init(std::size_t n_nonzero);
    void transform(std::span<const double> input, const double* window,
                   double* out_re, double* out_im, std::size_t out_stride,
                   FftScratch& scratch) const;

    std::size_t n_ = 0;
    std::size_t nz_ = 0;                    ///< input samples consumed
    std::size_t packed_nz_ = 0;             ///< nonzero half-length entries
    std::shared_ptr<const Fft> half_plan_;  ///< N/2-point plan (even N)
    std::shared_ptr<const Fft> full_plan_;  ///< fallback plan (odd N)
    std::vector<double> twr_, twi_;  ///< exp(-2*pi*i*k/N), k in [0, N/4]
};

/// Process-wide plan lookup (FftPlanCache::global()): returns a shared
/// immutable dense plan for size n. The range pipeline transforms
/// thousands of sweeps of identical length, so caching the plan dominates
/// performance. All per-call scratch is the caller's; there are no
/// input-copying convenience wrappers (callers own their buffers).
const Fft& fft_plan(std::size_t n);

}  // namespace witrack::dsp
