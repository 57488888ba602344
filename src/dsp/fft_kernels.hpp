// Power-of-two FFT kernel engine: structure-of-arrays (separate re/im
// planes), iterative Stockham radix-4 with a radix-2 fixup stage, per-stage
// sequentially-laid-out twiddle tables, and *separate* forward/inverse
// butterfly loops (no direction branch and no conj inside the hot loop).
// The butterfly loops are written once as lane templates over the SIMD
// layer in simd.hpp (fft_kernels_impl.hpp) and instantiated once per
// dispatch level -- scalar, SSE2, AVX2 -- into that level's dsp::Kernels
// table (kernels.hpp), so one plan serves every level with bit-identical
// results.
//
// Input pruning: a kernel built with n_nonzero < n treats the input tail
// [n_nonzero, n) as structurally zero and skips the early-stage butterflies
// whose operands are all inside that tail. The range pipeline zero-pads a
// 2500-sample sweep into a 4096-point transform, so the packed half-length
// sequence it actually transforms is ~39% structural zeros; the Bluestein
// convolution (2500 nonzero samples in an 8192-point buffer) is ~69% zeros.
// Pruned and unpruned kernels of one size produce results equal under
// operator== (skipped butterflies may flip the sign of an exact zero, which
// IEEE-754 compares equal).
#pragma once

#include <cstddef>
#include <vector>

namespace witrack::dsp {

/// One stage of the iterative plan. Public (rather than a Pow2Kernel
/// private) so the lane-templated butterfly loops can walk the plan; see
/// fft_kernels_impl.hpp.
struct FftStage {
    std::size_t radix;      ///< 4, or 2 for the final fixup stage
    std::size_t stride;     ///< s: n / sub_n for this stage
    std::size_t m;          ///< butterflies per sub-transform (sub_n/radix)
    std::size_t tw_offset;  ///< start of this stage's table in twiddles()
};

class Pow2Kernel {
  public:
    /// Build a plan for a power-of-two transform of `n` points whose input
    /// is nonzero only in the prefix [0, n_nonzero). n_nonzero of 0 (or
    /// >= n) means a dense input. Throws std::invalid_argument unless n is
    /// a power of two.
    explicit Pow2Kernel(std::size_t n, std::size_t n_nonzero = 0);

    std::size_t size() const { return n_; }
    /// Effective nonzero prefix the forward kernel assumes (n when dense).
    std::size_t n_nonzero() const { return nz_; }

    /// Forward DFT of the SoA data in (xr, xi). Only the first n_nonzero()
    /// entries are read; the tail is treated as exactly zero and may hold
    /// anything. (wr, wi) are caller-owned ping-pong work planes. All four
    /// planes must hold size() doubles; the result lands in (xr, xi).
    void forward(double* xr, double* xi, double* wr, double* wi) const;

    /// Forward DFT reading all size() input entries regardless of the
    /// plan's pruning (used for one-shot dense transforms such as the
    /// Bluestein chirp-spectrum precompute).
    void forward_dense(double* xr, double* xi, double* wr, double* wi) const;

    /// Inverse DFT scaled by 1/n. Always dense: inverse inputs (spectra)
    /// have no structural zero tail.
    void inverse(double* xr, double* xi, double* wr, double* wi) const;

    static bool is_power_of_two(std::size_t n) {
        return n != 0 && (n & (n - 1)) == 0;
    }

    /// The stage sequence and twiddle storage, exposed read-only for the
    /// lane-templated butterfly loops.
    const std::vector<FftStage>& plan_stages() const { return stages_; }
    const std::vector<double>& twiddles() const { return tw_; }

  private:
    std::size_t n_ = 0;
    std::size_t nz_ = 0;
    std::vector<FftStage> stages_;
    // Forward twiddles, sequential per stage. A radix-4 stage with m
    // butterflies stores six contiguous runs of m doubles:
    //   [w1.re | w1.im | w2.re | w2.im | w3.re | w3.im],
    // w_k[p] = exp(-2*pi*i * k*p / sub_n), so every butterfly loop walks
    // its tables linearly. The radix-2 fixup stage (sub_n = 2) needs no
    // table (its only twiddle is 1). Inverse kernels reuse the same tables
    // with the imaginary sign folded into their butterfly expressions.
    std::vector<double> tw_;
};

}  // namespace witrack::dsp
