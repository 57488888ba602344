// Lane-templated butterfly loops shared by every dispatch level of the
// Pow2Kernel engine. The transform schedule, the pruning bookkeeping and
// every arithmetic expression here are the scalar kernels of PR 5 ported
// verbatim onto the simd.hpp lane vocabulary: a lane performs the same
// IEEE-754 add/sub/mul per element as the scalar code (no FMA -- the
// kernel translation units are additionally built with -ffp-contract=off
// so the compiler cannot contract on wider -march targets), which is what
// makes all dispatch levels bit-identical.
//
// run_forward_t / run_inverse_t vectorize the contiguous q loop inside each
// butterfly group. Early stages have stride s < width and fall through to
// the scalar tail.
//
// Each kernels_<level>.cpp instantiates the templates with its own lane
// only, as the forward and inverse entries of its dsp::Kernels table.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "dsp/fft_kernels.hpp"
#include "dsp/simd.hpp"

namespace witrack::dsp::detail {

namespace {

/// ceil(t / s); exact division everywhere the pruning invariant holds.
inline std::size_t ceil_div(std::size_t t, std::size_t s) {
    return (t + s - 1) / s;
}

}  // namespace

// -------------------------------------------------- single transform

template <class L>
void run_forward_t(const Pow2Kernel& plan, double* xr, double* xi, double* wr,
                   double* wi, std::size_t nzb) {
    const std::size_t n = plan.size();
    const auto& stages = plan.plan_stages();
    const double* tw = plan.twiddles().data();

    double* sr = xr;
    double* si = xi;
    double* dr = wr;
    double* di = wi;
    if (stages.size() % 2 == 1) {
        // Odd stage count: start from the work planes so the final stage
        // lands the result in (xr, xi). Only the live prefix needs copying.
        std::memcpy(wr, xr, nzb * sizeof(double));
        std::memcpy(wi, xi, nzb * sizeof(double));
        sr = wr;
        si = wi;
        dr = xr;
        di = xi;
    }

    const std::size_t n4 = n / 4;
    for (const FftStage& st : stages) {
        const std::size_t s = st.stride;
        if (st.radix == 2) {
            // Final fixup stage: sub_n = 2, one butterfly per q, twiddle 1.
            const std::size_t h = n / 2;
            const std::size_t t0 = std::min(nzb, h);
            const std::size_t t1 = nzb > h ? nzb - h : 0;
            simd::lane_loop<L>(t1, [&]<class V>(std::size_t q) {
                const auto ar = V::load(sr + q), ai = V::load(si + q);
                const auto br = V::load(sr + q + h), bi = V::load(si + q + h);
                V::store(dr + q, V::add(ar, br));
                V::store(di + q, V::add(ai, bi));
                V::store(dr + q + h, V::sub(ar, br));
                V::store(di + q + h, V::sub(ai, bi));
            });
            for (std::size_t q = t1; q < t0; ++q) {  // b structurally zero
                const double ar = sr[q], ai = si[q];
                dr[q] = ar;
                di[q] = ai;
                dr[q + h] = ar;
                di[q + h] = ai;
            }
            nzb = t0 > 0 ? n : 0;
            std::swap(sr, dr);
            std::swap(si, di);
            continue;
        }

        const std::size_t m = st.m;
        const double* w1r = tw + st.tw_offset;
        const double* w1i = w1r + m;
        const double* w2r = w1i + m;
        const double* w2i = w2r + m;
        const double* w3r = w2i + m;
        const double* w3i = w3r + m;

        // Region boundaries in p for 4/3/2/1 live operands.
        std::size_t t[4];
        for (std::size_t k = 0; k < 4; ++k) {
            const std::size_t cut = k * n4;
            const std::size_t tk = nzb > cut ? nzb - cut : 0;
            t[k] = std::min(tk, n4);
        }
        const std::size_t p0 = ceil_div(t[0], s);
        const std::size_t p1 = ceil_div(t[1], s);
        const std::size_t p2 = ceil_div(t[2], s);
        const std::size_t p3 = ceil_div(t[3], s);

        for (std::size_t p = 0; p < p3; ++p) {  // all four operands live
            const double* x0r = sr + s * p;
            const double* x0i = si + s * p;
            double* y0r = dr + 4 * s * p;
            double* y0i = di + 4 * s * p;
            simd::lane_loop<L>(s, [&]<class V>(std::size_t q) {
                const auto ar = V::load(x0r + q), ai = V::load(x0i + q);
                const auto br = V::load(x0r + q + n4), bi = V::load(x0i + q + n4);
                const auto cr = V::load(x0r + q + 2 * n4);
                const auto ci = V::load(x0i + q + 2 * n4);
                const auto er = V::load(x0r + q + 3 * n4);
                const auto ei = V::load(x0i + q + 3 * n4);
                const auto apcr = V::add(ar, cr), apci = V::add(ai, ci);
                const auto amcr = V::sub(ar, cr), amci = V::sub(ai, ci);
                const auto bpdr = V::add(br, er), bpdi = V::add(bi, ei);
                const auto jr = V::sub(ei, bi), ji = V::sub(br, er);  // i*(b-d)
                V::store(y0r + q, V::add(apcr, bpdr));
                V::store(y0i + q, V::add(apci, bpdi));
                const auto u1r = V::set1(w1r[p]), u1i = V::set1(w1i[p]);
                const auto t1r = V::sub(amcr, jr), t1i = V::sub(amci, ji);
                V::store(y0r + q + s, V::sub(V::mul(u1r, t1r), V::mul(u1i, t1i)));
                V::store(y0i + q + s, V::add(V::mul(u1r, t1i), V::mul(u1i, t1r)));
                const auto u2r = V::set1(w2r[p]), u2i = V::set1(w2i[p]);
                const auto t2r = V::sub(apcr, bpdr), t2i = V::sub(apci, bpdi);
                V::store(y0r + q + 2 * s,
                         V::sub(V::mul(u2r, t2r), V::mul(u2i, t2i)));
                V::store(y0i + q + 2 * s,
                         V::add(V::mul(u2r, t2i), V::mul(u2i, t2r)));
                const auto u3r = V::set1(w3r[p]), u3i = V::set1(w3i[p]);
                const auto t3r = V::add(amcr, jr), t3i = V::add(amci, ji);
                V::store(y0r + q + 3 * s,
                         V::sub(V::mul(u3r, t3r), V::mul(u3i, t3i)));
                V::store(y0i + q + 3 * s,
                         V::add(V::mul(u3r, t3i), V::mul(u3i, t3r)));
            });
        }
        for (std::size_t p = p3; p < p2; ++p) {  // d structurally zero
            // The scalar source computed j = i*b as (jr, ji) = (-bi, br)
            // and formed t1 = amc - j, t3 = amc + j; negation then
            // subtraction is exactly addition in IEEE-754, so the folded
            // add/sub forms below are bit-identical.
            const double* x0r = sr + s * p;
            const double* x0i = si + s * p;
            double* y0r = dr + 4 * s * p;
            double* y0i = di + 4 * s * p;
            simd::lane_loop<L>(s, [&]<class V>(std::size_t q) {
                const auto ar = V::load(x0r + q), ai = V::load(x0i + q);
                const auto br = V::load(x0r + q + n4), bi = V::load(x0i + q + n4);
                const auto cr = V::load(x0r + q + 2 * n4);
                const auto ci = V::load(x0i + q + 2 * n4);
                const auto apcr = V::add(ar, cr), apci = V::add(ai, ci);
                const auto amcr = V::sub(ar, cr), amci = V::sub(ai, ci);
                V::store(y0r + q, V::add(apcr, br));
                V::store(y0i + q, V::add(apci, bi));
                const auto u1r = V::set1(w1r[p]), u1i = V::set1(w1i[p]);
                const auto t1r = V::add(amcr, bi), t1i = V::sub(amci, br);
                V::store(y0r + q + s, V::sub(V::mul(u1r, t1r), V::mul(u1i, t1i)));
                V::store(y0i + q + s, V::add(V::mul(u1r, t1i), V::mul(u1i, t1r)));
                const auto u2r = V::set1(w2r[p]), u2i = V::set1(w2i[p]);
                const auto t2r = V::sub(apcr, br), t2i = V::sub(apci, bi);
                V::store(y0r + q + 2 * s,
                         V::sub(V::mul(u2r, t2r), V::mul(u2i, t2i)));
                V::store(y0i + q + 2 * s,
                         V::add(V::mul(u2r, t2i), V::mul(u2i, t2r)));
                const auto u3r = V::set1(w3r[p]), u3i = V::set1(w3i[p]);
                const auto t3r = V::sub(amcr, bi), t3i = V::add(amci, br);
                V::store(y0r + q + 3 * s,
                         V::sub(V::mul(u3r, t3r), V::mul(u3i, t3i)));
                V::store(y0i + q + 3 * s,
                         V::add(V::mul(u3r, t3i), V::mul(u3i, t3r)));
            });
        }
        for (std::size_t p = p2; p < p1; ++p) {  // c and d structurally zero
            const double* x0r = sr + s * p;
            const double* x0i = si + s * p;
            double* y0r = dr + 4 * s * p;
            double* y0i = di + 4 * s * p;
            simd::lane_loop<L>(s, [&]<class V>(std::size_t q) {
                const auto ar = V::load(x0r + q), ai = V::load(x0i + q);
                const auto br = V::load(x0r + q + n4), bi = V::load(x0i + q + n4);
                V::store(y0r + q, V::add(ar, br));
                V::store(y0i + q, V::add(ai, bi));
                const auto u1r = V::set1(w1r[p]), u1i = V::set1(w1i[p]);
                const auto t1r = V::add(ar, bi), t1i = V::sub(ai, br);  // a-i*b
                V::store(y0r + q + s, V::sub(V::mul(u1r, t1r), V::mul(u1i, t1i)));
                V::store(y0i + q + s, V::add(V::mul(u1r, t1i), V::mul(u1i, t1r)));
                const auto u2r = V::set1(w2r[p]), u2i = V::set1(w2i[p]);
                const auto t2r = V::sub(ar, br), t2i = V::sub(ai, bi);
                V::store(y0r + q + 2 * s,
                         V::sub(V::mul(u2r, t2r), V::mul(u2i, t2i)));
                V::store(y0i + q + 2 * s,
                         V::add(V::mul(u2r, t2i), V::mul(u2i, t2r)));
                const auto u3r = V::set1(w3r[p]), u3i = V::set1(w3i[p]);
                const auto t3r = V::sub(ar, bi), t3i = V::add(ai, br);  // a+i*b
                V::store(y0r + q + 3 * s,
                         V::sub(V::mul(u3r, t3r), V::mul(u3i, t3i)));
                V::store(y0i + q + 3 * s,
                         V::add(V::mul(u3r, t3i), V::mul(u3i, t3r)));
            });
        }
        for (std::size_t p = p1; p < p0; ++p) {  // only a live
            const double* x0r = sr + s * p;
            const double* x0i = si + s * p;
            double* y0r = dr + 4 * s * p;
            double* y0i = di + 4 * s * p;
            simd::lane_loop<L>(s, [&]<class V>(std::size_t q) {
                const auto ar = V::load(x0r + q), ai = V::load(x0i + q);
                V::store(y0r + q, ar);
                V::store(y0i + q, ai);
                const auto u1r = V::set1(w1r[p]), u1i = V::set1(w1i[p]);
                V::store(y0r + q + s, V::sub(V::mul(u1r, ar), V::mul(u1i, ai)));
                V::store(y0i + q + s, V::add(V::mul(u1r, ai), V::mul(u1i, ar)));
                const auto u2r = V::set1(w2r[p]), u2i = V::set1(w2i[p]);
                V::store(y0r + q + 2 * s,
                         V::sub(V::mul(u2r, ar), V::mul(u2i, ai)));
                V::store(y0i + q + 2 * s,
                         V::add(V::mul(u2r, ai), V::mul(u2i, ar)));
                const auto u3r = V::set1(w3r[p]), u3i = V::set1(w3i[p]);
                V::store(y0r + q + 3 * s,
                         V::sub(V::mul(u3r, ar), V::mul(u3i, ai)));
                V::store(y0i + q + 3 * s,
                         V::add(V::mul(u3r, ai), V::mul(u3i, ar)));
            });
        }
        // p >= p0: both source and destination are structurally zero; the
        // untouched destination range is never read back (later stages'
        // bounds exclude it).
        nzb = 4 * s * p0;
        std::swap(sr, dr);
        std::swap(si, di);
    }
}

template <class L>
void run_inverse_t(const Pow2Kernel& plan, double* xr, double* xi, double* wr,
                   double* wi) {
    const std::size_t n = plan.size();
    const auto& stages = plan.plan_stages();
    const double* tw = plan.twiddles().data();

    double* sr = xr;
    double* si = xi;
    double* dr = wr;
    double* di = wi;
    if (stages.size() % 2 == 1) {
        std::memcpy(wr, xr, n * sizeof(double));
        std::memcpy(wi, xi, n * sizeof(double));
        sr = wr;
        si = wi;
        dr = xr;
        di = xi;
    }

    const std::size_t n4 = n / 4;
    for (const FftStage& st : stages) {
        const std::size_t s = st.stride;
        if (st.radix == 2) {
            const std::size_t h = n / 2;
            simd::lane_loop<L>(h, [&]<class V>(std::size_t q) {
                const auto ar = V::load(sr + q), ai = V::load(si + q);
                const auto br = V::load(sr + q + h), bi = V::load(si + q + h);
                V::store(dr + q, V::add(ar, br));
                V::store(di + q, V::add(ai, bi));
                V::store(dr + q + h, V::sub(ar, br));
                V::store(di + q + h, V::sub(ai, bi));
            });
            std::swap(sr, dr);
            std::swap(si, di);
            continue;
        }
        const std::size_t m = st.m;
        const double* w1r = tw + st.tw_offset;
        const double* w1i = w1r + m;
        const double* w2r = w1i + m;
        const double* w2i = w2r + m;
        const double* w3r = w2i + m;
        const double* w3i = w3r + m;
        for (std::size_t p = 0; p < m; ++p) {
            // Conjugated twiddles and +i rotation, signs folded into the
            // expressions -- no branch, no conj call.
            const double* x0r = sr + s * p;
            const double* x0i = si + s * p;
            double* y0r = dr + 4 * s * p;
            double* y0i = di + 4 * s * p;
            simd::lane_loop<L>(s, [&]<class V>(std::size_t q) {
                const auto ar = V::load(x0r + q), ai = V::load(x0i + q);
                const auto br = V::load(x0r + q + n4), bi = V::load(x0i + q + n4);
                const auto cr = V::load(x0r + q + 2 * n4);
                const auto ci = V::load(x0i + q + 2 * n4);
                const auto er = V::load(x0r + q + 3 * n4);
                const auto ei = V::load(x0i + q + 3 * n4);
                const auto apcr = V::add(ar, cr), apci = V::add(ai, ci);
                const auto amcr = V::sub(ar, cr), amci = V::sub(ai, ci);
                const auto bpdr = V::add(br, er), bpdi = V::add(bi, ei);
                const auto jr = V::sub(ei, bi), ji = V::sub(br, er);  // i*(b-d)
                V::store(y0r + q, V::add(apcr, bpdr));
                V::store(y0i + q, V::add(apci, bpdi));
                const auto u1r = V::set1(w1r[p]), u1i = V::set1(w1i[p]);
                const auto t1r = V::add(amcr, jr), t1i = V::add(amci, ji);
                V::store(y0r + q + s, V::add(V::mul(u1r, t1r), V::mul(u1i, t1i)));
                V::store(y0i + q + s, V::sub(V::mul(u1r, t1i), V::mul(u1i, t1r)));
                const auto u2r = V::set1(w2r[p]), u2i = V::set1(w2i[p]);
                const auto t2r = V::sub(apcr, bpdr), t2i = V::sub(apci, bpdi);
                V::store(y0r + q + 2 * s,
                         V::add(V::mul(u2r, t2r), V::mul(u2i, t2i)));
                V::store(y0i + q + 2 * s,
                         V::sub(V::mul(u2r, t2i), V::mul(u2i, t2r)));
                const auto u3r = V::set1(w3r[p]), u3i = V::set1(w3i[p]);
                const auto t3r = V::sub(amcr, jr), t3i = V::sub(amci, ji);
                V::store(y0r + q + 3 * s,
                         V::add(V::mul(u3r, t3r), V::mul(u3i, t3i)));
                V::store(y0i + q + 3 * s,
                         V::sub(V::mul(u3r, t3i), V::mul(u3i, t3r)));
            });
        }
        std::swap(sr, dr);
        std::swap(si, di);
    }

    const double scale = 1.0 / static_cast<double>(n);
    simd::lane_loop<L>(n, [&]<class V>(std::size_t i) {
        const auto k = V::set1(scale);
        V::store(xr + i, V::mul(V::load(xr + i), k));
        V::store(xi + i, V::mul(V::load(xi + i), k));
    });
}

}  // namespace witrack::dsp::detail
