// Lane-templated tone-bank kernel behind hw::DechirpMixer: accumulates the
// real parts of rotating unit phasors (one beat tone per propagation path,
// paper Eq. 1) into a baseband sweep, optionally with the first-order sweep
// ripple term. Same discipline as tail_kernels_impl.hpp: one template over
// the simd.hpp lane vocabulary, instantiated with its own lane only by each
// kernels_<level>.cpp (built with -ffp-contract=off) as the accumulate
// entry of that level's dsp::Kernels table.
//
// The lanes run paths, not samples: one pass carries kTonesPerPass paths
// (one AvxD register, two SseD or four ScalarD) through the whole sweep, so
// the per-sample phasor recurrence -- a serial complex multiply -- advances
// four independent paths at once. Each path keeps the exact per-element
// arithmetic of a one-path loop:
//    c    = amp * re                          (no ripple)
//    c    = amp * (re - (scale * ripple[i]) * im)   (ripple)
//    re'  = re*rot_re - im*rot_im,  im' = re*rot_im + im*rot_re
// and after every 512th sample (i % 512 == 511) divides re and im by
// hypot(re, im) to stop magnitude drift. The pass stores its lane
// contributions and adds them to out[i] one at a time in tone order, never
// as a horizontal sum, so every out[i] sees the same sequence of additions
// as a path-at-a-time loop: the result is bit-identical to it at every
// dispatch level and for every tone count (the count % kTonesPerPass
// leftover tones run last, together in one scalar pass).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "dsp/kernels.hpp"
#include "dsp/simd.hpp"

namespace witrack::dsp::tone {

inline constexpr std::size_t kTonesPerPass = 4;
inline constexpr std::size_t kRenormPeriod = 512;

/// One pass of R registers of lane L (R * L::width tones) over the sweep.
template <class L, std::size_t R, bool kRipple>
void run_tone_pass_t(const Tone* tones, const double* ripple, double* out,
                     std::size_t n) {
    constexpr std::size_t W = L::width;
    constexpr std::size_t P = R * W;
    using reg = typename L::reg;

    reg re[R], im[R], rot_re[R], rot_im[R], amp[R], scale[R];
    double lanes[6][P];
    for (std::size_t k = 0; k < P; ++k) {
        lanes[0][k] = tones[k].re;
        lanes[1][k] = tones[k].im;
        lanes[2][k] = tones[k].rot_re;
        lanes[3][k] = tones[k].rot_im;
        lanes[4][k] = tones[k].amp;
        lanes[5][k] = tones[k].ripple_scale;
    }
    for (std::size_t r = 0; r < R; ++r) {
        re[r] = L::load(lanes[0] + r * W);
        im[r] = L::load(lanes[1] + r * W);
        rot_re[r] = L::load(lanes[2] + r * W);
        rot_im[r] = L::load(lanes[3] + r * W);
        amp[r] = L::load(lanes[4] + r * W);
        scale[r] = L::load(lanes[5] + r * W);
    }

    for (std::size_t start = 0; start < n; start += kRenormPeriod) {
        const std::size_t end = std::min(n, start + kRenormPeriod);
        for (std::size_t i = start; i < end; ++i) {
            double c[P];
            for (std::size_t r = 0; r < R; ++r) {
                reg v = re[r];
                if constexpr (kRipple) {
                    const reg delta = L::mul(scale[r], L::set1(ripple[i]));
                    v = L::sub(v, L::mul(delta, im[r]));
                }
                L::store(c + r * W, L::mul(amp[r], v));
                const reg next_re =
                    L::sub(L::mul(re[r], rot_re[r]), L::mul(im[r], rot_im[r]));
                im[r] = L::add(L::mul(re[r], rot_im[r]), L::mul(im[r], rot_re[r]));
                re[r] = next_re;
            }
            double acc = out[i];
            for (std::size_t k = 0; k < P; ++k) acc += c[k];
            out[i] = acc;
        }
        if (end - start == kRenormPeriod) {  // drift control at i % 512 == 511
            for (std::size_t r = 0; r < R; ++r) {
                L::store(lanes[0] + r * W, re[r]);
                L::store(lanes[1] + r * W, im[r]);
            }
            for (std::size_t k = 0; k < P; ++k) {
                const double norm = std::hypot(lanes[0][k], lanes[1][k]);
                lanes[0][k] /= norm;
                lanes[1][k] /= norm;
            }
            for (std::size_t r = 0; r < R; ++r) {
                re[r] = L::load(lanes[0] + r * W);
                im[r] = L::load(lanes[1] + r * W);
            }
        }
    }
}

/// out[i] += sum over tones (in order) of tone i's contribution, i in [0, n).
/// `ripple` (n entries) selects the ripple variant; nullptr means none.
template <class L>
void run_tones_t(const Tone* tones, std::size_t count, const double* ripple,
                 double* out, std::size_t n) {
    static_assert(kTonesPerPass % L::width == 0 && kTonesPerPass == 4);
    constexpr std::size_t R = kTonesPerPass / L::width;
    const auto run = [&]<bool kRipple>() {
        std::size_t t = 0;
        for (; t + kTonesPerPass <= count; t += kTonesPerPass)
            run_tone_pass_t<L, R, kRipple>(tones + t, ripple, out, n);
        switch (count - t) {  // the leftovers, as one scalar pass
            case 3: run_tone_pass_t<simd::ScalarD, 3, kRipple>(tones + t, ripple, out, n); break;
            case 2: run_tone_pass_t<simd::ScalarD, 2, kRipple>(tones + t, ripple, out, n); break;
            case 1: run_tone_pass_t<simd::ScalarD, 1, kRipple>(tones + t, ripple, out, n); break;
            default: break;
        }
    };
    if (ripple != nullptr)
        run.template operator()<true>();
    else
        run.template operator()<false>();
}

}  // namespace witrack::dsp::tone
