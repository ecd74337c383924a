#pragma once
/// \file tape_kernels.h
/// \brief Internal interval kernels of the tape interpreter.
///
/// These helpers are the arithmetic core of `Hc4Tape::contract`; the IR
/// constant folder (src/smt/ir) calls them too, and the native backend
/// (src/smt/jit) emits instruction-for-instruction translations of them.
/// They live in one header so the tape, the IR folder and the emitted
/// code share one definition of the boundary cases the differential fuzz
/// harnesses check against the tree walk (±0, ±inf, NaN, empty
/// intervals).
///
/// Not a public API: include only from src/smt tape implementation files.

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/interval/interval.h"

#if defined(__SSE2__)
#define BCERT_TAPE_SSE2 1
#include <emmintrin.h>
#else
#define BCERT_TAPE_SSE2 0
#endif

namespace bcert::smt::tkern {

using interval::Interval;

/// x · [w, w] for fixed-sign nonzero finite w — bit-for-bit equal to the
/// general operator* (multiplication by a constant is monotone, and
/// mul_ep's 0·∞ = 0 convention is preserved) at half the endpoint work.
inline Interval mul_const(const Interval& x, double w) {
  if (x.is_empty()) return Interval::empty();
  if (x.lo() == 0.0 && x.hi() == 0.0) return Interval(0.0);
  const double p1 = interval::detail::mul_ep(x.lo(), w);
  const double p2 = interval::detail::mul_ep(x.hi(), w);
  return w > 0.0
             ? Interval(interval::prev_float(p1), interval::next_float(p2))
             : Interval(interval::prev_float(p2), interval::next_float(p1));
}

/// r · rec for a reciprocal interval of known sign (never empty, never
/// touching zero). Monotonicity in r collapses the four-product general
/// multiply to one endpoint pair per bound; any ±0 sign discrepancy with
/// the general path is erased by the outward rounding (prev/next_float
/// treat +0 and -0 identically), so results stay bit-identical.
inline Interval mul_rec(const Interval& r, const Interval& rec,
                        bool positive) {
  if (r.lo() == 0.0 && r.hi() == 0.0) return Interval(0.0);
  using interval::detail::mul_ep;
  double lo, hi;
  if (positive) {
    lo = std::min(mul_ep(r.lo(), rec.lo()), mul_ep(r.lo(), rec.hi()));
    hi = std::max(mul_ep(r.hi(), rec.lo()), mul_ep(r.hi(), rec.hi()));
  } else {
    lo = std::min(mul_ep(r.hi(), rec.lo()), mul_ep(r.hi(), rec.hi()));
    hi = std::max(mul_ep(r.lo(), rec.lo()), mul_ep(r.lo(), rec.hi()));
  }
  return {interval::prev_float(lo), interval::next_float(hi)};
}

/// refine_quotient specialized to a target known to be exactly [w, w]:
/// the intersect-and-hull collapses to a membership test (the result is
/// [w, w] again when w lies in a quotient piece, empty otherwise), so
/// the slot needs no write on the surviving path.
inline bool const_quotient_feasible(double w, const Interval& num,
                                    const Interval& den) {
  Interval q1, q2;
  const int pieces = interval::extended_div(num, den, q1, q2);
  return (pieces >= 1 && q1.contains(w)) || (pieces == 2 && q2.contains(w));
}

#if BCERT_TAPE_SSE2
// --- SIMD interval kernels (tape engine only) -------------------------------
// The flat register layout lets the sweeps treat an Interval as one
// two-lane vector [lo, hi]. These kernels are bit-for-bit equal to the
// scalar operations (the differential fuzz suite checks this), including
// the ±0 / ±inf / NaN edges of the outward rounding.

inline __m128d load_iv(const Interval& x) {
  return _mm_set_pd(x.hi(), x.lo());  // lane0 = lo, lane1 = hi
}

inline Interval store_iv(__m128d v) {
  alignas(16) double d[2];
  _mm_store_pd(d, v);
  return Interval(d[0], d[1]);
}

/// [prev_float(lo), next_float(hi)] — branchless vector twin of the
/// scalar helpers: IEEE-754 bit step away from the interval, ±0 mapped
/// to the first subnormal of the step direction, the saturating endpoint
/// (-inf on the lo lane, +inf on the hi lane) and NaN passed through.
inline __m128d outward_pd(__m128d v) {
  const __m128i bits = _mm_castpd_si128(v);
  const __m128i sign = _mm_srli_epi64(bits, 63);  // 0 or 1 per lane
  // Per-lane bit delta: lo lane steps sign?+1:-1, hi lane sign?-1:+1.
  __m128i t = _mm_sub_epi64(_mm_slli_epi64(sign, 1), _mm_set1_epi64x(1));
  const __m128i hi_lane = _mm_set_epi64x(-1, 0);
  const __m128i neg_t = _mm_sub_epi64(_mm_setzero_si128(), t);
  t = _mm_or_si128(_mm_and_si128(hi_lane, neg_t),
                   _mm_andnot_si128(hi_lane, t));
  __m128d stepped = _mm_castsi128_pd(_mm_add_epi64(bits, t));
  // ±0 → smallest subnormal in the step direction.
  const __m128d zero_mask = _mm_cmpeq_pd(v, _mm_setzero_pd());
  const __m128d zero_step = _mm_castsi128_pd(_mm_set_epi64x(
      1, static_cast<long long>(0x8000000000000001ULL)));
  stepped = _mm_or_pd(_mm_and_pd(zero_mask, zero_step),
                      _mm_andnot_pd(zero_mask, stepped));
  // Keep saturating infinities and NaN unchanged.
  const double inf = std::numeric_limits<double>::infinity();
  const __m128d keep = _mm_or_pd(_mm_cmpeq_pd(v, _mm_set_pd(inf, -inf)),
                                 _mm_cmpunord_pd(v, v));
  return _mm_or_pd(_mm_and_pd(keep, v), _mm_andnot_pd(keep, stepped));
}

/// Forward addition (operands may be empty — e.g. sqrt of a negative
/// range upstream — which yields the canonical empty, exactly like
/// operator+).
inline Interval add_iv(const Interval& a, const Interval& b) {
  if (a.is_empty() || b.is_empty()) return Interval::empty();
  return store_iv(outward_pd(_mm_add_pd(load_iv(a), load_iv(b))));
}

/// target ∩= (r − s), the kAdd projection leg. All operands are nonempty
/// (the backward sweep aborts the moment anything empties), so the
/// scalar empty pre-checks are vacuous and skipped; the max/min operand
/// order and the NaN behavior replicate scalar intersect exactly.
inline bool refine_sub(Interval& target, __m128d r, const Interval& s) {
  const __m128d sv = load_iv(s);
  const __m128d diff =
      outward_pd(_mm_sub_pd(r, _mm_shuffle_pd(sv, sv, 1)));
  const __m128d tv = load_iv(target);
  const __m128d res = _mm_move_sd(_mm_min_pd(tv, diff),
                                  _mm_max_pd(tv, diff));  // [max-lo, min-hi]
  alignas(16) double d[2];
  _mm_store_pd(d, res);
  target = Interval(d[0], d[1]);
  return !(d[0] > d[1]);  // mirrors !is_empty(), NaN-tolerant
}
#endif  // BCERT_TAPE_SSE2

}  // namespace bcert::smt::tkern
