// Blocked 3D convolution engine (Algorithm 1 of the paper).
//
// Layout conventions (see tensor/layout.hpp):
//   src      {ICb, D, H, W, 16}   (or plain {IC, D, H, W} when IC < 16)
//   dst      {OCb, OD, OH, OW, 16}
//   weights  {OCb, ICb, K, K, K, 16ic, 16oc}
//            ({OCb, K, K, K, IC, 16oc} for the plain-source case)
//
// The source is copied once per step into a zero-padded staging
// workspace (owned by the stream's LayerExecState) so every inner loop
// is branch-free; the innermost (ow, ic, oc) loops operate on 16-float
// channel blocks that the compiler lowers to AVX-512 FMAs. Threading
// decomposes the output voxel space in the forward pass and in the
// backward sweep (LeakyReLU mask, bias gradient and, for a plain
// source, every weight tap in one pass over ddst), the *input* voxel
// space in the backward-data pass (gather form over transposed weight
// tiles — each dsrc row is produced whole, with no zero-fill or scatter
// traffic), and (ocb, icb, kd) channel-block tiles in the blocked
// backward-weights pass, as described in §III-C.
#include "dnn/conv3d.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/telemetry.hpp"

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "tensor/tensor_ops.hpp"

namespace cf::dnn {

using tensor::kChannelBlock;
using tensor::Shape;
using tensor::Tensor;

namespace {

constexpr std::int64_t kB = kChannelBlock;  // 16

/// Output positions held in registers per row block (Algorithm 1
/// register-blocks the output width; the paper uses 28 positions).
constexpr std::int64_t kOwBlock = 8;

#if defined(__AVX512F__)

/// acc[ic][oc] += src[ow*stride][ic] * ddst[ow][oc] outer products over
/// the `nd` x `nh` rows of one weight tap (backward-weights
/// micro-kernel). ddst rows are contiguous; source row (d, h) starts at
/// src + d * sdstep + h * shstep. The 16x16 accumulator tile lives in
/// 16 zmm registers across every row, so narrow layers do not pay a
/// tile load and store per short row.
inline void micro_bww_tap(float* __restrict acc, const float* __restrict src,
                          const float* __restrict ddst, std::int64_t nd,
                          std::int64_t nh, std::int64_t count,
                          std::int64_t stride, std::int64_t sdstep,
                          std::int64_t shstep) {
  __m512 a[kB];
  for (int ic = 0; ic < kB; ++ic) a[ic] = _mm512_loadu_ps(acc + ic * kB);
  for (std::int64_t d = 0; d < nd; ++d) {
    for (std::int64_t h = 0; h < nh; ++h) {
      const float* src_row = src + d * sdstep + h * shstep;
      const float* ddst_row = ddst + (d * nh + h) * count * kB;
      for (std::int64_t ow = 0; ow < count; ++ow) {
        const float* s = src_row + ow * stride * kB;
        const __m512 dv = _mm512_loadu_ps(ddst_row + ow * kB);
        for (int ic = 0; ic < kB; ++ic) {
          a[ic] = _mm512_fmadd_ps(dv, _mm512_set1_ps(s[ic]), a[ic]);
        }
      }
    }
  }
  for (int ic = 0; ic < kB; ++ic) _mm512_storeu_ps(acc + ic * kB, a[ic]);
}

#else  // portable fallback

inline void micro_bww_tap(float* __restrict acc, const float* __restrict src,
                          const float* __restrict ddst, std::int64_t nd,
                          std::int64_t nh, std::int64_t count,
                          std::int64_t stride, std::int64_t sdstep,
                          std::int64_t shstep) {
  for (std::int64_t d = 0; d < nd; ++d) {
    for (std::int64_t h = 0; h < nh; ++h) {
      const float* src_row = src + d * sdstep + h * shstep;
      const float* ddst_row = ddst + (d * nh + h) * count * kB;
      for (std::int64_t ow = 0; ow < count; ++ow) {
        const float* s = src_row + ow * stride * kB;
        const float* dv = ddst_row + ow * kB;
        for (int ic = 0; ic < kB; ++ic) {
          const float sv = s[ic];
          float* arow = acc + ic * kB;
          for (int oc = 0; oc < kB; ++oc) arow[oc] += dv[oc] * sv;
        }
      }
    }
  }
}

#endif  // __AVX512F__

/// One tap of a forward row's tap list: `s` is the padded source row of
/// this (icb, kd, kh, kw) at ow = 0, `w0`/`w1` the 16ic x 16oc weight
/// tiles of the two output-channel blocks of the pair.
template <class Wt>
struct PairTap {
  const float* s;
  const Wt* w0;
  const Wt* w1;
};

inline float widen(float v) { return v; }
inline float widen(bf16_t v) { return bf16_to_float(v); }
inline void narrow(float v, float* p) { *p = v; }
inline void narrow(float v, bf16_t* p) { *p = float_to_bf16(v); }

#if defined(__AVX512F__)

inline __m512 load16(const float* p) { return _mm512_loadu_ps(p); }
inline __m512 load16(const bf16_t* p) { return bf16_load_16(p); }
inline void store16(float* p, __m512 v) { _mm512_storeu_ps(p, v); }
inline void store16(bf16_t* p, __m512 v) { bf16_store_16(p, v); }

/// The fused LeakyReLU on 16 lanes: `v > 0 ? v : slope * v`, NaN
/// included (it takes the slope) — the standalone layer's float ops.
inline __m512 lrelu16(__m512 v, __m512 vslope) {
  return _mm512_mask_blend_ps(
      _mm512_cmp_ps_mask(v, _mm512_setzero_ps(), _CMP_GT_OQ),
      _mm512_mul_ps(vslope, v), v);
}

/// Paired held-accumulator forward kernel: N output positions x 2
/// output-channel blocks of accumulators (16 zmm registers at N = 8),
/// initialized from the bias and held across every tap of the row, so
/// each source broadcast feeds two FMAs and the row is stored once.
/// The fused LeakyReLU (`v > 0 ? v : slope * v`, NaN included) is
/// applied in registers before the store, which narrows to bf16 with
/// RNE when Ot is bf16_t. `soff` shifts every tap source to this
/// position block; `dual` is false for the duplicated odd trailing
/// block, whose second accumulator set is computed but not stored.
/// Positions are `sstep` floats apart in the source; S > 0 fixes it at
/// compile time to S * 16 so all N broadcasts of an ic address one
/// base register (a runtime step costs one pointer register per
/// position, which spills).
template <int N, int S, class Wt, class Ot>
void fwd_row_pair(Ot* __restrict d0, Ot* __restrict d1, bool dual,
                  const float* __restrict bias0,
                  const float* __restrict bias1, const PairTap<Wt>* taps,
                  std::int64_t ntaps, std::int64_t soff, std::int64_t sstep,
                  bool fused, float slope) {
  if constexpr (S > 0) sstep = S * kB;
  __m512 a[N], b[N];
#pragma GCC unroll 8
  for (int j = 0; j < N; ++j) {
    a[j] = _mm512_loadu_ps(bias0);
    b[j] = _mm512_loadu_ps(bias1);
  }
  for (std::int64_t t = 0; t < ntaps; ++t) {
    const float* s = taps[t].s + soff;
    const Wt* w0 = taps[t].w0;
    const Wt* w1 = taps[t].w1;
    for (int ic = 0; ic < kB; ++ic) {
      const __m512 wv0 = load16(w0 + ic * kB);
      const __m512 wv1 = load16(w1 + ic * kB);
#pragma GCC unroll 8
      for (int j = 0; j < N; ++j) {
        const __m512 sv = _mm512_set1_ps(s[j * sstep + ic]);
        a[j] = _mm512_fmadd_ps(wv0, sv, a[j]);
        b[j] = _mm512_fmadd_ps(wv1, sv, b[j]);
      }
    }
  }
  const __m512 vslope = _mm512_set1_ps(slope);
  const auto lrelu = [&](__m512 v) { return fused ? lrelu16(v, vslope) : v; };
#pragma GCC unroll 8
  for (int j = 0; j < N; ++j) store16(d0 + j * kB, lrelu(a[j]));
  if (!dual) return;
#pragma GCC unroll 8
  for (int j = 0; j < N; ++j) store16(d1 + j * kB, lrelu(b[j]));
}

#else  // portable fallback

template <int N, int S, class Wt, class Ot>
void fwd_row_pair(Ot* __restrict d0, Ot* __restrict d1, bool dual,
                  const float* __restrict bias0,
                  const float* __restrict bias1, const PairTap<Wt>* taps,
                  std::int64_t ntaps, std::int64_t soff, std::int64_t sstep,
                  bool fused, float slope) {
  float a[2][N][kB];
  for (int j = 0; j < N; ++j) {
    std::memcpy(a[0][j], bias0, sizeof(a[0][j]));
    std::memcpy(a[1][j], bias1, sizeof(a[1][j]));
  }
  for (std::int64_t t = 0; t < ntaps; ++t) {
    const float* s = taps[t].s + soff;
    for (int ic = 0; ic < kB; ++ic) {
      const Wt* w0 = taps[t].w0 + ic * kB;
      const Wt* w1 = taps[t].w1 + ic * kB;
      for (int j = 0; j < N; ++j) {
        const float sv = s[j * sstep + ic];
        for (int oc = 0; oc < kB; ++oc) {
          a[0][j][oc] += widen(w0[oc]) * sv;
          a[1][j][oc] += widen(w1[oc]) * sv;
        }
      }
    }
  }
  for (int p = 0; p < (dual ? 2 : 1); ++p) {
    Ot* d = p == 0 ? d0 : d1;
    for (int j = 0; j < N; ++j) {
      for (int oc = 0; oc < kB; ++oc) {
        const float v = a[p][j][oc];
        narrow(fused && !(v > 0.0f) ? slope * v : v, d + j * kB + oc);
      }
    }
  }
}

#endif  // __AVX512F__

/// One output row of the paired forward over 8-, 4- and 1-wide
/// position blocks. S is the conv stride when it is 1 or 2, else 0
/// (see fwd_row_pair).
template <int S, class Wt, class Ot>
void fwd_row(Ot* d0, Ot* d1, bool dual, const float* bias0,
             const float* bias1, const PairTap<Wt>* taps, std::int64_t ntaps,
             std::int64_t count, std::int64_t stride, bool fused,
             float slope) {
  const std::int64_t sstep = stride * kB;
  std::int64_t ow = 0;
  for (; ow + kOwBlock <= count; ow += kOwBlock) {
    fwd_row_pair<kOwBlock, S>(d0 + ow * kB, d1 + ow * kB, dual, bias0, bias1,
                              taps, ntaps, ow * sstep, sstep, fused, slope);
  }
  for (; ow + 4 <= count; ow += 4) {
    fwd_row_pair<4, S>(d0 + ow * kB, d1 + ow * kB, dual, bias0, bias1, taps,
                       ntaps, ow * sstep, sstep, fused, slope);
  }
  for (; ow < count; ++ow) {
    fwd_row_pair<1, S>(d0 + ow * kB, d1 + ow * kB, dual, bias0, bias1, taps,
                       ntaps, ow * sstep, sstep, fused, slope);
  }
}

#if defined(__AVX512F__)

/// First-layer (IC == 1) forward row: 8 x 16-lane accumulator
/// registers per output-row block, held across the whole kernel
/// window, then the fused LeakyReLU and the store (RNE-narrowed when Ot
/// is bf16_t) straight from the registers. `splanes[tap]` is the padded
/// single-channel source plane at (id, ih), `wtaps[tap]` the {K, 16oc}
/// weight rows for this (kd, kh).
template <class Wt, class Ot>
void micro_fwd_row_ic1(Ot* __restrict dst_row, const float* __restrict bias16,
                       const float* const* splanes, const Wt* const* wtaps,
                       std::int64_t taps, std::int64_t kernel_w,
                       std::int64_t count, std::int64_t stride, bool fused,
                       float slope) {
  const __m512 vslope = _mm512_set1_ps(slope);
  const auto out = [&](std::int64_t ow, __m512 v) {
    store16(dst_row + ow * kB, fused ? lrelu16(v, vslope) : v);
  };
  std::int64_t ow = 0;
  for (; ow + kOwBlock <= count; ow += kOwBlock) {
    const __m512 b = _mm512_loadu_ps(bias16);
    __m512 a0 = b, a1 = b, a2 = b, a3 = b, a4 = b, a5 = b, a6 = b, a7 = b;
    for (std::int64_t tap = 0; tap < taps; ++tap) {
      const float* s = splanes[tap] + ow * stride;
      const Wt* w = wtaps[tap];
      for (std::int64_t kw = 0; kw < kernel_w; ++kw) {
        const __m512 wv = load16(w + kw * kB);
        a0 = _mm512_fmadd_ps(wv, _mm512_set1_ps(s[0 * stride + kw]), a0);
        a1 = _mm512_fmadd_ps(wv, _mm512_set1_ps(s[1 * stride + kw]), a1);
        a2 = _mm512_fmadd_ps(wv, _mm512_set1_ps(s[2 * stride + kw]), a2);
        a3 = _mm512_fmadd_ps(wv, _mm512_set1_ps(s[3 * stride + kw]), a3);
        a4 = _mm512_fmadd_ps(wv, _mm512_set1_ps(s[4 * stride + kw]), a4);
        a5 = _mm512_fmadd_ps(wv, _mm512_set1_ps(s[5 * stride + kw]), a5);
        a6 = _mm512_fmadd_ps(wv, _mm512_set1_ps(s[6 * stride + kw]), a6);
        a7 = _mm512_fmadd_ps(wv, _mm512_set1_ps(s[7 * stride + kw]), a7);
      }
    }
    out(ow + 0, a0);
    out(ow + 1, a1);
    out(ow + 2, a2);
    out(ow + 3, a3);
    out(ow + 4, a4);
    out(ow + 5, a5);
    out(ow + 6, a6);
    out(ow + 7, a7);
  }
  for (; ow < count; ++ow) {
    __m512 a = _mm512_loadu_ps(bias16);
    for (std::int64_t tap = 0; tap < taps; ++tap) {
      const float* s = splanes[tap] + ow * stride;
      const Wt* w = wtaps[tap];
      for (std::int64_t kw = 0; kw < kernel_w; ++kw) {
        a = _mm512_fmadd_ps(load16(w + kw * kB), _mm512_set1_ps(s[kw]), a);
      }
    }
    out(ow, a);
  }
}

#endif  // __AVX512F__

/// Writes a finished fp32 accumulator row: the fused LeakyReLU in place
/// (the standalone LeakyRelu's float ops — compare, multiply — so the
/// fused output is bitwise identical), then a copy or the RNE narrowing
/// to bf16.
template <class Ot>
void store_row(float* __restrict acc, Ot* drow, std::int64_t n, bool fused,
               float slope) {
  if (fused) {
    for (std::int64_t i = 0; i < n; ++i) {
      const float v = acc[i];
      acc[i] = v > 0.0f ? v : slope * v;
    }
  }
  if constexpr (std::is_same_v<Ot, float>) {
    std::memcpy(drow, acc, static_cast<std::size_t>(n) * sizeof(float));
  } else {
    bf16_from_f32(acc, drow, static_cast<std::size_t>(n));
  }
}

/// AvgPool(2) over four stored conv rows (row r = window offset
/// (kd, kh) = (r / 2, r % 2), `row_len` elements apart): out[pw] is
/// the sum of the window's eight values, taken from zero in AvgPool3d's
/// kd -> kh -> kw order after widening, times 0.125f — the standalone
/// pool's float ops in both precisions.
template <class Ot>
void avg_pool_rows(const Ot* rows, std::int64_t row_len, std::int64_t count,
                   Ot* out) {
#if defined(__AVX512F__)
  const __m512 inv = _mm512_set1_ps(0.125f);
  for (std::int64_t pw = 0; pw < count; ++pw) {
    __m512 acc = _mm512_setzero_ps();
    for (std::int64_t r = 0; r < 4; ++r) {
      const Ot* s = rows + r * row_len + 2 * pw * kB;
      acc = _mm512_add_ps(acc, load16(s));
      acc = _mm512_add_ps(acc, load16(s + kB));
    }
    store16(out + pw * kB, _mm512_mul_ps(acc, inv));
  }
#else
  for (std::int64_t pw = 0; pw < count; ++pw) {
    float acc[kB] = {};
    for (std::int64_t r = 0; r < 4; ++r) {
      const Ot* s = rows + r * row_len + 2 * pw * kB;
      for (int kw = 0; kw < 2; ++kw) {
        for (int c = 0; c < kB; ++c) acc[c] += widen(s[kw * kB + c]);
      }
    }
    for (int c = 0; c < kB; ++c) narrow(acc[c] * 0.125f, out + pw * kB + c);
  }
#endif
}

/// bits[ow] = the lanes of conv output row `row` at ow with y > 0: the
/// fused LeakyReLU's derivative, all the backward needs of the output.
template <class Ot>
void record_mask(const Ot* row, std::int64_t count, std::uint16_t* bits) {
  for (std::int64_t ow = 0; ow < count; ++ow) {
#if defined(__AVX512F__)
    bits[ow] = _mm512_cmp_ps_mask(load16(row + ow * kB), _mm512_setzero_ps(),
                                  _CMP_GT_OQ);
#else
    unsigned b = 0;
    for (int c = 0; c < kB; ++c) {
      b |= (widen(row[ow * kB + c]) > 0.0f ? 1u : 0u) << c;
    }
    bits[ow] = static_cast<std::uint16_t>(b);
#endif
  }
}

/// One conv-output row of the backward sweep (Conv3d::backward_sweep).
struct SweepRowArgs {
  float* drow = nullptr;  // full-resolution ddst row
  // Unpooled: the forward output row, the fused mask source (null when
  // the layer is unfused or the row was masked by an earlier group).
  const float* yrow = nullptr;
  const float* prow = nullptr;          // pooled: the pooled ddst row
  const std::uint16_t* mrow = nullptr;  // pooled: the row's y > 0 bits
  float slope = 0.0f;
  bool store = false;  // write the masked row to drow
};

/// Masks each ddst vector with the fused LeakyReLU derivative, adds it
/// to the bias accumulator and FMAs it into N (ic, tap) weight-gradient
/// accumulators. Unpooled, the vector is read from drow and masked by
/// yrow; pooled, it is the pooled vector times 0.125f, masked by mrow —
/// the unfused AvgPool3d backward's multiply, then the mask's. `taps[t]`
/// is tap t's padded source row at ow = 0. Accumulators stay in
/// registers across the row, so each ddst vector is loaded once; `bias`
/// is read and written only when non-null.
constexpr int kTapGroup = 27;  // IC = 1, k = 3: 27 of 32 zmm registers

#if defined(__AVX512F__)

template <int N, bool kPooled>
void sweep_row(float* __restrict acc, float* __restrict bias,
               const float* const* __restrict taps, const SweepRowArgs& in,
               std::int64_t count, std::int64_t stride) {
  float* __restrict drow = in.drow;
  __m512 a[N > 0 ? N : 1];
#pragma GCC unroll 32
  for (int t = 0; t < N; ++t) a[t] = _mm512_loadu_ps(acc + t * kB);
  __m512 b = bias != nullptr ? _mm512_loadu_ps(bias) : _mm512_setzero_ps();
  const __m512 vslope = _mm512_set1_ps(in.slope);
  const __m512 vscale = _mm512_set1_ps(0.125f);
  for (std::int64_t ow = 0; ow < count; ++ow) {
    __m512 d;
    if constexpr (kPooled) {
      d = _mm512_mul_ps(_mm512_loadu_ps(in.prow + ow / 2 * kB), vscale);
      d = _mm512_mask_mul_ps(d, static_cast<__mmask16>(~in.mrow[ow]), d,
                             vslope);
      if (in.store) _mm512_storeu_ps(drow + ow * kB, d);
    } else {
      d = _mm512_loadu_ps(drow + ow * kB);
      if (in.yrow != nullptr) {
        // Lanes with !(y > 0), NaN included, take the slope: exactly
        // the scalar `y > 0 ? d : slope * d`.
        const __mmask16 neg =
            _mm512_cmp_ps_mask(_mm512_loadu_ps(in.yrow + ow * kB),
                               _mm512_setzero_ps(), _CMP_NGT_UQ);
        d = _mm512_mask_mul_ps(d, neg, d, vslope);
        if (in.store) _mm512_storeu_ps(drow + ow * kB, d);
      }
    }
    b = _mm512_add_ps(b, d);
    const std::int64_t s = ow * stride;
#pragma GCC unroll 32
    for (int t = 0; t < N; ++t) {
      a[t] = _mm512_fmadd_ps(d, _mm512_set1_ps(taps[t][s]), a[t]);
    }
  }
#pragma GCC unroll 32
  for (int t = 0; t < N; ++t) _mm512_storeu_ps(acc + t * kB, a[t]);
  if (bias != nullptr) _mm512_storeu_ps(bias, b);
}

#else  // portable fallback

template <int N, bool kPooled>
void sweep_row(float* __restrict acc, float* __restrict bias,
               const float* const* __restrict taps, const SweepRowArgs& in,
               std::int64_t count, std::int64_t stride) {
  float* __restrict drow = in.drow;
  float b[kB];
  for (int oc = 0; oc < kB; ++oc) b[oc] = bias != nullptr ? bias[oc] : 0.0f;
  for (std::int64_t ow = 0; ow < count; ++ow) {
    float d[kB];
    for (int oc = 0; oc < kB; ++oc) {
      if constexpr (kPooled) {
        const float v = in.prow[ow / 2 * kB + oc] * 0.125f;
        d[oc] = (in.mrow[ow] >> oc & 1u) != 0 ? v : in.slope * v;
      } else {
        const float v = drow[ow * kB + oc];
        d[oc] = in.yrow == nullptr || in.yrow[ow * kB + oc] > 0.0f
                    ? v
                    : in.slope * v;
      }
      if ((kPooled || in.yrow != nullptr) && in.store) {
        drow[ow * kB + oc] = d[oc];
      }
      b[oc] += d[oc];
    }
    for (int t = 0; t < N; ++t) {
      const float sv = taps[t][ow * stride];
      for (int oc = 0; oc < kB; ++oc) acc[t * kB + oc] += d[oc] * sv;
    }
  }
  if (bias != nullptr) std::memcpy(bias, b, sizeof(b));
}

#endif  // __AVX512F__

using SweepRowFn = void (*)(float*, float*, const float* const*,
                            const SweepRowArgs&, std::int64_t, std::int64_t);

template <bool kPooled, std::size_t... N>
constexpr std::array<SweepRowFn, sizeof...(N)> make_sweep_rows(
    std::index_sequence<N...>) {
  return {&sweep_row<static_cast<int>(N), kPooled>...};
}

/// sweep_row<n, pooled> at kSweepRow[pooled][n], for every group size n
/// in [0, kTapGroup].
constexpr std::array<std::array<SweepRowFn, kTapGroup + 1>, 2> kSweepRow = {
    make_sweep_rows<false>(std::make_index_sequence<kTapGroup + 1>{}),
    make_sweep_rows<true>(std::make_index_sequence<kTapGroup + 1>{})};

/// dst[e] += sum over `slabs` partial rows (`stride` floats apart) of
/// element e, for e < n — summed in double, in slab order.
void add_slab_sums(const float* partials, std::int64_t slabs,
                   std::int64_t stride, std::int64_t n, float* dst) {
  for (std::int64_t e = 0; e < n; ++e) {
    double sum = 0.0;
    for (std::int64_t s = 0; s < slabs; ++s) sum += partials[s * stride + e];
    dst[e] += static_cast<float>(sum);
  }
}

/// acc[ow*astride][ic] += sum_oc wt[oc][ic] * ddst[ow][oc] — the
/// backward-data micro-kernel in *gather* form: the forward kernel with
/// the src/dst roles swapped. `wt` is one transposed 16oc x 16ic weight
/// tile, ddst is read at unit (16-float) stride and the accumulator row
/// — a local, zero-initialized copy of one unpadded dsrc row — is
/// addressed at `astride` = conv stride. Because each dsrc row is
/// produced whole by a single task, there is no zero-fill pass over a
/// padded volume, no scatter read-modify-write traffic, and no
/// interior copy-out.
#if defined(__AVX512F__)

inline void micro_bwd_gather_row(float* __restrict acc,
                                 const float* __restrict ddst_row,
                                 const float* __restrict wt,
                                 std::int64_t count, std::int64_t astride) {
  std::int64_t ow = 0;
  const std::int64_t astep = astride * kB;
  for (; ow + kOwBlock <= count; ow += kOwBlock) {
    float* a = acc + ow * astep;
    const float* d = ddst_row + ow * kB;
    __m512 a0 = _mm512_loadu_ps(a + 0 * astep);
    __m512 a1 = _mm512_loadu_ps(a + 1 * astep);
    __m512 a2 = _mm512_loadu_ps(a + 2 * astep);
    __m512 a3 = _mm512_loadu_ps(a + 3 * astep);
    __m512 a4 = _mm512_loadu_ps(a + 4 * astep);
    __m512 a5 = _mm512_loadu_ps(a + 5 * astep);
    __m512 a6 = _mm512_loadu_ps(a + 6 * astep);
    __m512 a7 = _mm512_loadu_ps(a + 7 * astep);
    for (int oc = 0; oc < kB; ++oc) {
      const __m512 wv = _mm512_loadu_ps(wt + oc * kB);
      a0 = _mm512_fmadd_ps(wv, _mm512_set1_ps(d[0 * kB + oc]), a0);
      a1 = _mm512_fmadd_ps(wv, _mm512_set1_ps(d[1 * kB + oc]), a1);
      a2 = _mm512_fmadd_ps(wv, _mm512_set1_ps(d[2 * kB + oc]), a2);
      a3 = _mm512_fmadd_ps(wv, _mm512_set1_ps(d[3 * kB + oc]), a3);
      a4 = _mm512_fmadd_ps(wv, _mm512_set1_ps(d[4 * kB + oc]), a4);
      a5 = _mm512_fmadd_ps(wv, _mm512_set1_ps(d[5 * kB + oc]), a5);
      a6 = _mm512_fmadd_ps(wv, _mm512_set1_ps(d[6 * kB + oc]), a6);
      a7 = _mm512_fmadd_ps(wv, _mm512_set1_ps(d[7 * kB + oc]), a7);
    }
    _mm512_storeu_ps(a + 0 * astep, a0);
    _mm512_storeu_ps(a + 1 * astep, a1);
    _mm512_storeu_ps(a + 2 * astep, a2);
    _mm512_storeu_ps(a + 3 * astep, a3);
    _mm512_storeu_ps(a + 4 * astep, a4);
    _mm512_storeu_ps(a + 5 * astep, a5);
    _mm512_storeu_ps(a + 6 * astep, a6);
    _mm512_storeu_ps(a + 7 * astep, a7);
  }
  for (; ow < count; ++ow) {
    const float* d = ddst_row + ow * kB;
    float* a = acc + ow * astep;
    __m512 av = _mm512_loadu_ps(a);
    for (int oc = 0; oc < kB; ++oc) {
      av = _mm512_fmadd_ps(_mm512_loadu_ps(wt + oc * kB),
                           _mm512_set1_ps(d[oc]), av);
    }
    _mm512_storeu_ps(a, av);
  }
}

#else  // portable fallback

inline void micro_bwd_gather_row(float* __restrict acc,
                                 const float* __restrict ddst_row,
                                 const float* __restrict wt,
                                 std::int64_t count, std::int64_t astride) {
  const std::int64_t astep = astride * kB;
  std::int64_t ow = 0;
  for (; ow + kOwBlock <= count; ow += kOwBlock) {
    float a[kOwBlock][kB];
    for (int j = 0; j < kOwBlock; ++j) {
      for (int ic = 0; ic < kB; ++ic) a[j][ic] = acc[(ow + j) * astep + ic];
    }
    const float* d = ddst_row + ow * kB;
    for (int oc = 0; oc < kB; ++oc) {
      const float* wrow = wt + oc * kB;
      for (int j = 0; j < kOwBlock; ++j) {
        const float dv = d[j * kB + oc];
        for (int ic = 0; ic < kB; ++ic) a[j][ic] += wrow[ic] * dv;
      }
    }
    for (int j = 0; j < kOwBlock; ++j) {
      for (int ic = 0; ic < kB; ++ic) acc[(ow + j) * astep + ic] = a[j][ic];
    }
  }
  for (; ow < count; ++ow) {
    const float* d = ddst_row + ow * kB;
    float a[kB];
    for (int ic = 0; ic < kB; ++ic) a[ic] = acc[ow * astep + ic];
    for (int oc = 0; oc < kB; ++oc) {
      const float dv = d[oc];
      const float* wrow = wt + oc * kB;
      for (int ic = 0; ic < kB; ++ic) a[ic] += wrow[ic] * dv;
    }
    for (int ic = 0; ic < kB; ++ic) acc[ow * astep + ic] = a[ic];
  }
}

#endif  // __AVX512F__

}  // namespace

Conv3d::Conv3d(std::string name, Conv3dConfig config)
    : Layer(std::move(name)), config_(config) {
  if (config_.in_channels <= 0 || config_.out_channels <= 0) {
    throw std::invalid_argument("Conv3d: channel counts must be positive");
  }
  if (config_.out_channels % kB != 0) {
    throw std::invalid_argument(
        "Conv3d: out_channels must be a multiple of 16 (blocked engine); "
        "the CosmoFlow topology keeps all channel counts multiples of 16");
  }
  if (config_.in_channels >= kB && config_.in_channels % kB != 0) {
    throw std::invalid_argument(
        "Conv3d: in_channels must be < 16 or a multiple of 16");
  }
  if (config_.kernel <= 0 || config_.stride <= 0) {
    throw std::invalid_argument("Conv3d: bad kernel/stride");
  }
  plain_input_ = config_.in_channels < kB;
}

Shape Conv3d::plan(const Shape& input) {
  const std::int64_t k = config_.kernel;
  if (plain_input_) {
    if (input.rank() != 4 || input[0] != config_.in_channels) {
      throw std::invalid_argument("Conv3d::plan: expected plain {IC,D,H,W}, "
                                  "got " + input.to_string());
    }
    in_d_ = input[1];
    in_h_ = input[2];
    in_w_ = input[3];
  } else {
    if (input.rank() != 5 || input[4] != kB ||
        input[0] != config_.in_channels / kB) {
      throw std::invalid_argument(
          "Conv3d::plan: expected blocked {ICb,D,H,W,16}, got " +
          input.to_string());
    }
    in_d_ = input[1];
    in_h_ = input[2];
    in_w_ = input[3];
  }

  pad_d_ = resolve_pad(config_.padding, in_d_, k, config_.stride);
  pad_h_ = resolve_pad(config_.padding, in_h_, k, config_.stride);
  pad_w_ = resolve_pad(config_.padding, in_w_, k, config_.stride);
  out_d_ = tensor::conv_out_dim(in_d_, k, config_.stride, pad_d_.total());
  out_h_ = tensor::conv_out_dim(in_h_, k, config_.stride, pad_h_.total());
  out_w_ = tensor::conv_out_dim(in_w_, k, config_.stride, pad_w_.total());
  pd_ = in_d_ + pad_d_.total();
  ph_ = in_h_ + pad_h_.total();
  pw_ = in_w_ + pad_w_.total();

  const std::int64_t ocb = config_.out_channels / kB;
  if (plain_input_) {
    weights_ = Tensor(Shape{ocb, k, k, k, config_.in_channels, kB});
  } else {
    weights_ =
        Tensor(Shape{ocb, config_.in_channels / kB, k, k, k, kB, kB});
  }
  bias_ = Tensor(Shape{config_.out_channels});

  Shape out{ocb, out_d_, out_h_, out_w_, kB};
  if (pooled_) {
    if (out_d_ < 2 || out_h_ < 2 || out_w_ < 2) {
      throw std::invalid_argument("Conv3d::plan: " + name() +
                                  " has a fused pool over conv output " +
                                  out.to_string());
    }
    out = Shape{ocb, out_d_ / 2, out_h_ / 2, out_w_ / 2, kB};
  }
  set_shapes(input, out);
  return out;
}

std::vector<ParamSpec> Conv3d::param_specs() {
  return {{name() + ".weights", &weights_},
          {name() + ".bias", &bias_}};
}

FlopCounts Conv3d::flops() const {
  const std::int64_t k3 =
      config_.kernel * config_.kernel * config_.kernel;
  const std::int64_t per_pass = 2 * out_d_ * out_h_ * out_w_ *
                                config_.out_channels * config_.in_channels *
                                k3;
  FlopCounts counts;
  counts.fwd = per_pass;
  counts.bwd_data = per_pass;
  counts.bwd_weights = per_pass;
  if (fused_) {
    // The absorbed LeakyReLU: one op per output element in the forward
    // epilogue and one in the backward-entry mask.
    counts.fwd += conv_numel();
    counts.bwd_weights += conv_numel();
  }
  if (pooled_) {
    // The absorbed AvgPool3d's k^3 + 1 ops per pooled output, forward
    // and backward (its backward runs in the sweep, under bww).
    const std::int64_t pool_ops = output_shape().numel() * 9;
    counts.fwd += pool_ops;
    counts.bwd_weights += pool_ops;
  }
  return counts;
}

bool Conv3d::fuse_leaky_relu(float slope) {
  // The sign trick behind the fused backward mask needs slope in
  // [0, 1); LeakyRelu's constructor enforces the same domain.
  if (slope < 0.0f || slope >= 1.0f) return false;
  fused_ = true;
  slope_ = slope;
  return true;
}

bool Conv3d::fuse_avg_pool() {
  // The backward recovers the pool's input gradient only under the
  // fused LeakyReLU's mask.
  if (!fused_ || pooled_) return false;
  pooled_ = true;
  return true;
}

void Conv3d::init_he(runtime::Rng& rng) {
  const std::int64_t fan_in =
      config_.in_channels * config_.kernel * config_.kernel * config_.kernel;
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  Tensor plain(Shape{config_.out_channels, config_.in_channels,
                     config_.kernel, config_.kernel, config_.kernel});
  tensor::fill_normal(plain, rng, 0.0f, stddev);
  Tensor bias(Shape{config_.out_channels});
  set_plain_weights(plain, bias);
}

void Conv3d::set_plain_weights(const Tensor& weights, const Tensor& bias) {
  const Shape expected{config_.out_channels, config_.in_channels,
                       config_.kernel, config_.kernel, config_.kernel};
  if (weights.shape() != expected) {
    throw std::invalid_argument("Conv3d::set_plain_weights: bad shape " +
                                weights.shape().to_string());
  }
  if (bias.shape() != Shape{config_.out_channels}) {
    throw std::invalid_argument("Conv3d::set_plain_weights: bad bias shape");
  }
  Tensor blocked = plain_input_ ? tensor::to_blocked_weights_small_ic(weights)
                                : tensor::to_blocked_weights(weights);
  if (weights_.empty()) {
    weights_ = std::move(blocked);
  } else {
    // Write through the existing tensor: after Network::finalize() it
    // is a view into the parameter arena and must stay bound there.
    std::memcpy(weights_.data(), blocked.data(),
                blocked.size() * sizeof(float));
  }
  std::memcpy(bias_.data(), bias.data(),
              static_cast<std::size_t>(bias.size()) * sizeof(float));
}

Tensor Conv3d::plain_weights() const {
  return plain_input_
             ? tensor::from_blocked_weights_small_ic(
                   weights_, config_.out_channels, config_.in_channels)
             : tensor::from_blocked_weights(weights_, config_.out_channels,
                                            config_.in_channels);
}

Tensor Conv3d::plain_weight_grads() {
  const Tensor& wg = standalone_state().grads[0];
  return plain_input_
             ? tensor::from_blocked_weights_small_ic(
                   wg, config_.out_channels, config_.in_channels)
             : tensor::from_blocked_weights(wg, config_.out_channels,
                                            config_.in_channels);
}

std::size_t Conv3d::padded_floats() const {
  const std::int64_t planes = plain_input_
                                  ? config_.in_channels
                                  : (config_.in_channels / kB) * kB;
  return static_cast<std::size_t>(planes * pd_ * ph_ * pw_);
}

std::size_t Conv3d::forward_workspace_floats() const {
  // A fused pool's mask: one uint16 per conv output position, two to a
  // float.
  const std::int64_t mask = pooled_ ? (conv_numel() / kB + 1) / 2 : 0;
  return padded_floats() + static_cast<std::size_t>(mask);
}

std::uint16_t* Conv3d::pool_mask(const LayerExecState& exec) const {
  if (!pooled_ || exec.workspace_shared) return nullptr;
  return reinterpret_cast<std::uint16_t*>(exec.workspace.data() +
                                          padded_floats());
}

std::size_t Conv3d::backward_scratch_floats() const {
  // One partial per (ocb, od) slab of the backward sweep: every weight
  // tap of a plain source plus the bias. Backward-data of a blocked
  // source later reuses the scratch for its transposed weight tiles.
  // A fused pool's blocked source first needs the full-resolution
  // masked ddst that bww and backward-data read.
  const std::int64_t ocb_count = config_.out_channels / kB;
  const std::int64_t weights = static_cast<std::int64_t>(weights_.size());
  const std::int64_t slabs = ocb_count * out_d_;
  const std::int64_t expanded = pooled_ && !plain_input_ ? conv_numel() : 0;
  return static_cast<std::size_t>(
      expanded + (plain_input_ ? slabs * (weights / ocb_count + kB)
                               : std::max(weights, slabs * kB)));
}

namespace {

/// Copies a blocked activation into its zero-padded staging workspace.
/// The border is assumed zero on entry (see Conv3d::stage_padded_src)
/// and interior rows are fully overwritten each call.
void copy_padded_blocked(const Tensor& src, float* padded, const PadSpec& pd,
                         const PadSpec& ph, const PadSpec& pw,
                         std::int64_t hp, std::int64_t wp,
                         runtime::ThreadPool& pool, std::size_t grain) {
  const std::int64_t cb = src.shape()[0];
  const std::int64_t d = src.shape()[1];
  const std::int64_t h = src.shape()[2];
  const std::int64_t w = src.shape()[3];

  pool.parallel_for(
      static_cast<std::size_t>(cb * d),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t job = begin; job < end; ++job) {
          const std::int64_t c = static_cast<std::int64_t>(job) / d;
          const std::int64_t dd = static_cast<std::int64_t>(job) % d;
          for (std::int64_t hh = 0; hh < h; ++hh) {
            const float* s =
                src.data() + (((c * d + dd) * h + hh) * w) * kB;
            float* t = padded +
                       (((c * (d + pd.total()) + dd + pd.lo) * hp + hh +
                         ph.lo) *
                            wp +
                        pw.lo) *
                           kB;
            std::memcpy(t, s, static_cast<std::size_t>(w) * kB *
                                  sizeof(float));
          }
        }
      },
      grain);
}

/// Plain-layout variant for the first layer.
void copy_padded_plain(const Tensor& src, float* padded, const PadSpec& pd,
                       const PadSpec& ph, const PadSpec& pw, std::int64_t hp,
                       std::int64_t wp, runtime::ThreadPool& pool,
                       std::size_t grain) {
  const std::int64_t c = src.shape()[0];
  const std::int64_t d = src.shape()[1];
  const std::int64_t h = src.shape()[2];
  const std::int64_t w = src.shape()[3];

  pool.parallel_for(
      static_cast<std::size_t>(c * d),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t job = begin; job < end; ++job) {
          const std::int64_t cc = static_cast<std::int64_t>(job) / d;
          const std::int64_t dd = static_cast<std::int64_t>(job) % d;
          for (std::int64_t hh = 0; hh < h; ++hh) {
            const float* s = src.data() + ((cc * d + dd) * h + hh) * w;
            float* t = padded +
                       ((cc * (d + pd.total()) + dd + pd.lo) * hp + hh +
                        ph.lo) *
                           wp +
                       pw.lo;
            std::memcpy(t, s,
                        static_cast<std::size_t>(w) * sizeof(float));
          }
        }
      },
      grain);
}

}  // namespace

void Conv3d::stage_padded_src(const Tensor& src, LayerExecState& exec,
                              runtime::ThreadPool& pool) const {
  if (exec.workspace.size() < forward_workspace_floats()) {
    throw std::logic_error("Conv3d: workspace smaller than "
                           "forward_workspace_floats()");
  }
  if (exec.workspace_shared) {
    // Another layer may have scribbled over this region since the last
    // call; re-establish the zero border. A private region was zeroed
    // once at context creation and only ever rewritten in the interior,
    // so it skips this (the padding values are zeros either way — the
    // kernels see identical bits).
    std::memset(exec.workspace.data(), 0, padded_floats() * sizeof(float));
  }
  if (plain_input_) {
    copy_padded_plain(src, exec.workspace.data(), pad_d_, pad_h_, pad_w_,
                      ph_, pw_, pool, exec.intraop_grain);
  } else {
    copy_padded_blocked(src, exec.workspace.data(), pad_d_, pad_h_, pad_w_,
                        ph_, pw_, pool, exec.intraop_grain);
  }
}

void Conv3d::forward(const Tensor& src, Tensor& dst, LayerExecState& exec,
                     runtime::ThreadPool& pool) const {
  const runtime::ScopedTimer timer(exec.timers.fwd);
  if (src.shape() != input_shape() || dst.shape() != output_shape()) {
    throw std::invalid_argument("Conv3d::forward: shape mismatch");
  }
  stage_padded_src(src, exec, pool);
  if (plain_input_) {
    forward_plain_src(exec.workspace.data(), weights_.data(), dst.data(),
                      pool_mask(exec), pool, exec.intraop_grain);
  } else {
    forward_blocked(exec.workspace.data(), weights_.data(), dst.data(),
                    pool_mask(exec), pool, exec.intraop_grain);
  }
}

void Conv3d::backward(const Tensor& src, Tensor& ddst, Tensor& dsrc,
                      bool need_dsrc, LayerExecState& exec,
                      runtime::ThreadPool& pool) const {
  if (fused_) {
    throw std::logic_error(
        "Conv3d::backward: fused layer needs its forward output — use the "
        "dst overload");
  }
  backward(src, /*dst=*/ddst, ddst, dsrc, need_dsrc, exec, pool);
}

void Conv3d::backward(const Tensor& src, const Tensor& dst, Tensor& ddst,
                      Tensor& dsrc, bool need_dsrc, LayerExecState& exec,
                      runtime::ThreadPool& pool) const {
  if (src.shape() != input_shape() || ddst.shape() != output_shape()) {
    throw std::invalid_argument("Conv3d::backward: shape mismatch");
  }
  if (exec.grads.size() != 2) {
    throw std::logic_error("Conv3d::backward: exec state has no grads");
  }
  if (exec.scratch.size() < backward_scratch_floats()) {
    throw std::logic_error("Conv3d: backward scratch smaller than "
                           "backward_scratch_floats()");
  }
  const Tensor* y = nullptr;  // forward output: the unpooled mask source
  if (fused_) {
    if (dst.shape() != output_shape()) {
      throw std::invalid_argument("Conv3d::backward: dst shape mismatch");
    }
    if (!pooled_) y = &dst;
  }
  // The masked full-resolution ddst that bww and backward-data read:
  // ddst itself, masked in place. A fused pool re-expands it instead,
  // into the front of the scratch for a blocked source, or into a
  // temporary for the cold plain-source data gradient.
  float* dfull = ddst.data();
  std::span<float> scratch = exec.scratch;
  Tensor plain_dfull;
  if (pooled_) {
    if (out_d_ % 2 != 0 || out_h_ % 2 != 0 || out_w_ % 2 != 0) {
      throw std::logic_error(
          "Conv3d::backward: a fused pool needs even conv output dims");
    }
    if (pool_mask(exec) == nullptr) {
      throw std::logic_error(
          "Conv3d::backward: the fused pool's mask needs a private "
          "workspace");
    }
    if (!plain_input_) {
      dfull = scratch.data();
      scratch = scratch.subspan(static_cast<std::size_t>(conv_numel()));
    } else if (need_dsrc) {
      plain_dfull = Tensor(
          Shape{config_.out_channels / kB, out_d_, out_h_, out_w_, kB});
      dfull = plain_dfull.data();
    } else {
      dfull = nullptr;
    }
  }
  {
    CF_TRACE_SCOPE(span_label_bww().c_str(), "conv");
    const runtime::ScopedTimer timer(exec.timers.bwd_weights);
    backward_sweep(y, ddst, dfull, need_dsrc, scratch.data(), exec, pool);
    // The padded source copy in the stream's workspace is still valid
    // from this stream's forward().
    if (!plain_input_) {
      backward_weights_blocked(dfull, exec.workspace.data(), exec.grads[0],
                               pool, exec.intraop_grain);
    }
  }
  if (!need_dsrc) return;
  CF_TRACE_SCOPE(span_label_bwd_data().c_str(), "conv");
  const runtime::ScopedTimer timer(exec.timers.bwd_data);
  if (dsrc.shape() != input_shape()) {
    throw std::invalid_argument("Conv3d::backward: dsrc shape mismatch");
  }
  if (plain_input_) {
    backward_data_plain_src(pooled_ ? plain_dfull : ddst, dsrc, pool);
  } else {
    backward_data_blocked(dfull, dsrc, scratch, pool, exec.intraop_grain);
  }
}

void Conv3d::backward_sweep(const Tensor* dst, Tensor& ddst, float* dfull,
                            bool need_dsrc, float* partials,
                            LayerExecState& exec,
                            runtime::ThreadPool& pool) const {
  const std::int64_t ic_count = config_.in_channels;
  const std::int64_t ocb_count = config_.out_channels / kB;
  const std::int64_t k = config_.kernel;
  const std::int64_t stride = config_.stride;
  // A plain source's (kd, kh, kw, ic) taps in weight-layout order; a
  // blocked source leaves its weights to backward_weights_blocked.
  const std::int64_t taps = plain_input_ ? k * k * k * ic_count : 0;
  const std::int64_t groups =
      std::max<std::int64_t>(1, (taps + kTapGroup - 1) / kTapGroup);
  const std::int64_t width = (taps + 1) * kB;  // slab partial + bias
  // The masked ddst goes back to memory only for a later reader: the
  // blocked bww kernel or the data-gradient pass, and (unpooled) the
  // next tap group. A pooled row is cheap to rebuild, so every tap
  // group re-expands it from pooled ddst and the mask.
  const bool store = pooled_ ? dfull != nullptr
                             : !plain_input_ || need_dsrc || groups > 1;
  const std::uint16_t* mask = pool_mask(exec);
  const std::int64_t pooled_w = out_w_ / 2;
  pool.parallel_for(
      static_cast<std::size_t>(ocb_count * out_d_),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        const float* src[kTapGroup] = {};
        for (std::size_t job = begin; job < end; ++job) {
          const std::int64_t slab = static_cast<std::int64_t>(job);
          const std::int64_t od = slab % out_d_;
          const std::int64_t id0 = od * stride;
          float* part = partials + slab * width;
          std::fill(part, part + width, 0.0f);
          for (std::int64_t oh = 0; oh < out_h_; ++oh) {
            const std::int64_t row = (slab * out_h_ + oh) * out_w_ * kB;
            SweepRowArgs in;
            in.slope = slope_;
            if (pooled_) {
              // Conv row (od, oh) of block ocb lies in pooled row
              // (od / 2, oh / 2) of the same block.
              const std::int64_t prow =
                  ((slab / out_d_ * (out_d_ / 2) + od / 2) * (out_h_ / 2) +
                   oh / 2) *
                  pooled_w;
              in.prow = ddst.data() + prow * kB;
              in.mrow = mask + (slab * out_h_ + oh) * out_w_;
              in.drow = dfull != nullptr ? dfull + row : nullptr;
            } else {
              in.drow = ddst.data() + row;
            }
            for (std::int64_t g = 0; g < groups; ++g) {
              const std::int64_t t0 = g * kTapGroup;
              const std::int64_t n = std::min<std::int64_t>(kTapGroup,
                                                            taps - t0);
              for (std::int64_t i = 0; i < n; ++i) {
                const std::int64_t kdhw = (t0 + i) / ic_count;
                const std::int64_t ic = (t0 + i) % ic_count;
                src[i] = exec.workspace.data() +
                         ((ic * pd_ + id0 + kdhw / (k * k)) * ph_ +
                          oh * stride + kdhw / k % k) *
                             pw_ +
                         kdhw % k;
              }
              const bool first = g == 0;
              in.yrow = first && dst != nullptr ? dst->data() + row : nullptr;
              in.store = first && store;
              kSweepRow[pooled_ ? 1 : 0][static_cast<std::size_t>(n)](
                  part + t0 * kB, first ? part + taps * kB : nullptr, src,
                  in, out_w_, stride);
            }
          }
        }
      },
      exec.intraop_grain);
  // Partials combine on this thread in slab order: threaded execution
  // is bitwise serial at every thread count and grain (DESIGN.md §2.6).
  for (std::int64_t ocb = 0; ocb < ocb_count; ++ocb) {
    const float* p = partials + ocb * out_d_ * width;
    add_slab_sums(p, out_d_, width, taps * kB,
                  exec.grads[0].data() + ocb * taps * kB);
    add_slab_sums(p + taps * kB, out_d_, width, kB,
                  exec.grads[1].data() + ocb * kB);
  }
}

template <class Ot>
void Conv3d::pool_rows(const Ot* rows, std::int64_t ocb, std::int64_t pd,
                       std::int64_t ph, Ot* dst, std::uint16_t* mask) const {
  const std::int64_t row_len = out_w_ * kB;
  const std::int64_t pooled_w = out_w_ / 2;
  avg_pool_rows(
      rows, row_len, pooled_w,
      dst + ((ocb * (out_d_ / 2) + pd) * (out_h_ / 2) + ph) * pooled_w * kB);
  if (mask == nullptr) return;
  for (std::int64_t r = 0; r < 4; ++r) {
    record_mask(rows + r * row_len, out_w_,
                mask + ((ocb * out_d_ + 2 * pd + r / 2) * out_h_ + 2 * ph +
                        r % 2) *
                           out_w_);
  }
}

template <class Wt, class Ot>
void Conv3d::forward_blocked(const float* padded, const Wt* weights, Ot* dst,
                             std::uint16_t* mask, runtime::ThreadPool& pool,
                             std::size_t grain) const {
  const std::int64_t icb_count = config_.in_channels / kB;
  const std::int64_t ocb_count = config_.out_channels / kB;
  const std::int64_t k = config_.kernel;
  const std::int64_t stride = config_.stride;
  const auto row_kernel = stride == 1   ? fwd_row<1, Wt, Ot>
                          : stride == 2 ? fwd_row<2, Wt, Ot>
                                        : fwd_row<0, Wt, Ot>;
  const std::int64_t pair_count = (ocb_count + 1) / 2;
  const std::int64_t slab = icb_count * k * k * k * kB * kB;
  const std::int64_t row_len = out_w_ * kB;
  const std::int64_t plane = out_d_ * out_h_ * row_len;
  // A fused pool's dst rows each take a 2 x 2 block of conv rows.
  const std::int64_t dst_d = pooled_ ? out_d_ / 2 : out_d_;
  const std::int64_t dst_h = pooled_ ? out_h_ / 2 : out_h_;

  // Jobs over (ocb pair, dst depth) slabs. Each worker flattens the
  // window into a tap list per conv row (icb -> kd -> kh -> kw, the
  // summation order of every output element) and runs the paired kernel
  // over 8-, 4- and 1-wide position blocks, specialized for strides 1
  // and 2. An odd trailing ocb duplicates its tile into both slots and
  // discards the second accumulator set. With a fused pool the conv
  // rows land in a row buffer that pool_rows reduces.
  pool.parallel_for(
      static_cast<std::size_t>(pair_count * dst_d),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        std::vector<PairTap<Wt>> taps(
            static_cast<std::size_t>(icb_count * k * k * k));
        // Fused pool: conv row r of the 2 x 2 block for ocb0 at r, for
        // ocb1 at 4 + r.
        std::vector<Ot> rows(static_cast<std::size_t>(pooled_ ? 8 * row_len
                                                              : 0));
        for (std::size_t job = begin; job < end; ++job) {
          const std::int64_t ocb0 = static_cast<std::int64_t>(job) / dst_d * 2;
          const std::int64_t dd = static_cast<std::int64_t>(job) % dst_d;
          const std::int64_t ocb1 = std::min(ocb0 + 1, ocb_count - 1);
          const bool dual = ocb1 != ocb0;
          const float* b0 = bias_.data() + ocb0 * kB;
          const float* b1 = bias_.data() + ocb1 * kB;
          const auto conv_row = [&](std::int64_t od, std::int64_t oh, Ot* d0,
                                    Ot* d1) {
            std::size_t ntaps = 0;
            for (std::int64_t icb = 0; icb < icb_count; ++icb) {
              for (std::int64_t kd = 0; kd < k; ++kd) {
                for (std::int64_t kh = 0; kh < k; ++kh) {
                  const float* srow =
                      padded + (((icb * pd_ + od * stride + kd) * ph_ +
                                 oh * stride + kh) *
                                pw_) *
                                   kB;
                  const std::int64_t woff =
                      (((icb * k + kd) * k + kh) * k) * kB * kB;
                  for (std::int64_t kw = 0; kw < k; ++kw) {
                    taps[ntaps++] = {srow + kw * kB,
                                     weights + ocb0 * slab + woff +
                                         kw * kB * kB,
                                     weights + ocb1 * slab + woff +
                                         kw * kB * kB};
                  }
                }
              }
            }
            row_kernel(d0, d1, dual, b0, b1, taps.data(),
                       static_cast<std::int64_t>(ntaps), out_w_, stride,
                       fused_, slope_);
          };
          for (std::int64_t dh = 0; dh < dst_h; ++dh) {
            if (!pooled_) {
              const std::int64_t row = (dd * out_h_ + dh) * row_len;
              conv_row(dd, dh, dst + ocb0 * plane + row,
                       dst + ocb1 * plane + row);
              continue;
            }
            Ot* r = rows.data();
            for (std::int64_t i = 0; i < 4; ++i) {
              conv_row(2 * dd + i / 2, 2 * dh + i % 2, r + i * row_len,
                       r + (4 + i) * row_len);
            }
            pool_rows<Ot>(r, ocb0, dd, dh, dst, mask);
            if (dual) pool_rows<Ot>(r + 4 * row_len, ocb1, dd, dh, dst, mask);
          }
        }
      },
      grain);
}

template <class Wt, class Ot>
void Conv3d::forward_plain_src(const float* padded, const Wt* weights,
                               Ot* dst, std::uint16_t* mask,
                               runtime::ThreadPool& pool,
                               std::size_t grain) const {
  const std::int64_t ic_count = config_.in_channels;
  const std::int64_t ocb_count = config_.out_channels / kB;
  const std::int64_t k = config_.kernel;
  const std::int64_t stride = config_.stride;
  const std::int64_t row_len = out_w_ * kB;
  const std::int64_t dst_d = pooled_ ? out_d_ / 2 : out_d_;
  const std::int64_t dst_h = pooled_ ? out_h_ / 2 : out_h_;

  // Jobs over (ocb, dst depth) slabs, rows as in forward_blocked.
  pool.parallel_for(
      static_cast<std::size_t>(ocb_count * dst_d),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        std::vector<const float*> splanes(static_cast<std::size_t>(k * k));
        std::vector<const Wt*> wtaps(static_cast<std::size_t>(k * k));
        std::vector<float> acc(static_cast<std::size_t>(row_len));
        std::vector<Ot> rows(static_cast<std::size_t>(pooled_ ? 4 * row_len
                                                              : 0));
        for (std::size_t job = begin; job < end; ++job) {
          const std::int64_t ocb = static_cast<std::int64_t>(job) / dst_d;
          const std::int64_t dd = static_cast<std::int64_t>(job) % dst_d;
          const float* bias = bias_.data() + ocb * kB;
          const auto conv_row = [&](std::int64_t od, std::int64_t oh,
                                    Ot* drow) {
#if defined(__AVX512F__)
            if (ic_count == 1) {
              // Dedicated first-layer kernel: register accumulators
              // across the whole window, writing the row directly.
              std::int64_t tap = 0;
              for (std::int64_t kd = 0; kd < k; ++kd) {
                const std::int64_t id = od * stride + kd;
                for (std::int64_t kh = 0; kh < k; ++kh, ++tap) {
                  const std::int64_t ih = oh * stride + kh;
                  splanes[static_cast<std::size_t>(tap)] =
                      padded + (id * ph_ + ih) * pw_;
                  wtaps[static_cast<std::size_t>(tap)] =
                      weights + (((ocb * k + kd) * k + kh) * k) * kB;
                }
              }
              micro_fwd_row_ic1(drow, bias, splanes.data(), wtaps.data(),
                                k * k, k, out_w_, stride, fused_, slope_);
              return;
            }
#endif  // __AVX512F__
            for (std::int64_t ow = 0; ow < out_w_; ++ow) {
              std::memcpy(acc.data() + ow * kB, bias, kB * sizeof(float));
            }
            for (std::int64_t kd = 0; kd < k; ++kd) {
              const std::int64_t id = od * stride + kd;
              for (std::int64_t kh = 0; kh < k; ++kh) {
                const std::int64_t ih = oh * stride + kh;
                for (std::int64_t kw = 0; kw < k; ++kw) {
                  const Wt* wtile =
                      weights +
                      ((((ocb * k + kd) * k + kh) * k + kw) * ic_count) * kB;
                  for (std::int64_t ic = 0; ic < ic_count; ++ic) {
                    const float* splane =
                        padded + ((ic * pd_ + id) * ph_ + ih) * pw_ + kw;
                    const Wt* wrow = wtile + ic * kB;
                    for (std::int64_t ow = 0; ow < out_w_; ++ow) {
                      const float sv = splane[ow * stride];
                      float* d = acc.data() + ow * kB;
                      for (int oc = 0; oc < kB; ++oc) {
                        d[oc] += widen(wrow[oc]) * sv;
                      }
                    }
                  }
                }
              }
            }
            store_row(acc.data(), drow, row_len, fused_, slope_);
          };
          for (std::int64_t dh = 0; dh < dst_h; ++dh) {
            if (!pooled_) {
              conv_row(dd, dh,
                       dst + ((ocb * out_d_ + dd) * out_h_ + dh) * row_len);
              continue;
            }
            for (std::int64_t i = 0; i < 4; ++i) {
              conv_row(2 * dd + i / 2, 2 * dh + i % 2,
                       rows.data() + i * row_len);
            }
            pool_rows<Ot>(rows.data(), ocb, dd, dh, dst, mask);
          }
        }
      },
      grain);
}

template void Conv3d::forward_blocked(const float*, const float*, float*,
                                      std::uint16_t*, runtime::ThreadPool&,
                                      std::size_t) const;
template void Conv3d::forward_blocked(const float*, const bf16_t*, bf16_t*,
                                      std::uint16_t*, runtime::ThreadPool&,
                                      std::size_t) const;
template void Conv3d::forward_plain_src(const float*, const float*, float*,
                                        std::uint16_t*, runtime::ThreadPool&,
                                        std::size_t) const;
template void Conv3d::forward_plain_src(const float*, const bf16_t*,
                                        bf16_t*, std::uint16_t*,
                                        runtime::ThreadPool&,
                                        std::size_t) const;

void Conv3d::backward_weights_blocked(const float* ddst,
                                      const float* padded,
                                      Tensor& weight_grad,
                                      runtime::ThreadPool& pool,
                                      std::size_t grain) const {
  const std::int64_t icb_count = config_.in_channels / kB;
  const std::int64_t ocb_count = config_.out_channels / kB;
  const std::int64_t k = config_.kernel;
  const std::int64_t stride = config_.stride;
  const std::int64_t dp = pd_;
  const std::int64_t hp = ph_;
  const std::int64_t wp = pw_;

  // Weight gradient: teams over (ocb, icb, kd) tiles — disjoint writes,
  // no reduction needed when there are enough channel blocks (the
  // "skip the reduction entirely" case of §III-C).
  pool.parallel_for(
      static_cast<std::size_t>(ocb_count * icb_count * k),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        std::vector<float> acc(kB * kB);
        for (std::size_t job = begin; job < end; ++job) {
          const std::int64_t kd = static_cast<std::int64_t>(job) % k;
          const std::int64_t pair = static_cast<std::int64_t>(job) / k;
          const std::int64_t icb = pair % icb_count;
          const std::int64_t ocb = pair / icb_count;
          for (std::int64_t kh = 0; kh < k; ++kh) {
            for (std::int64_t kw = 0; kw < k; ++kw) {
              std::fill(acc.begin(), acc.end(), 0.0f);
              micro_bww_tap(
                  acc.data(),
                  padded + (((icb * dp + kd) * hp + kh) * wp + kw) * kB,
                  ddst + ocb * out_d_ * out_h_ * out_w_ * kB, out_d_,
                  out_h_, out_w_, stride, stride * hp * wp * kB,
                  stride * wp * kB);
              float* wtile =
                  weight_grad.data() +
                  ((((ocb * icb_count + icb) * k + kd) * k + kh) * k + kw) *
                      kB * kB;
              for (std::int64_t i = 0; i < kB * kB; ++i) {
                wtile[i] += acc[static_cast<std::size_t>(i)];
              }
            }
          }
        }
      },
      grain);
}

void Conv3d::backward_data_blocked(const float* ddst, Tensor& dsrc,
                                   std::span<float> scratch,
                                   runtime::ThreadPool& pool,
                                   std::size_t grain) const {
  const std::int64_t icb_count = config_.in_channels / kB;
  const std::int64_t ocb_count = config_.out_channels / kB;
  const std::int64_t k = config_.kernel;
  const std::int64_t stride = config_.stride;

  if (scratch.size() < weights_.size()) {
    throw std::logic_error("Conv3d: backward scratch smaller than "
                           "backward_scratch_floats()");
  }

  // Transpose every 16ic x 16oc weight tile into 16oc x 16ic once per
  // step so the gather kernel broadcasts ddst lanes against contiguous
  // ic rows — the exact mirror of the forward kernel's access pattern.
  float* const wt_base = scratch.data();
  const std::int64_t tiles = ocb_count * icb_count * k * k * k;
  const std::size_t transpose_grain = std::max<std::size_t>(
      weights_.size() <= 4096 ? static_cast<std::size_t>(tiles) : 1, grain);
  pool.parallel_for(
      static_cast<std::size_t>(tiles),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t t = begin; t < end; ++t) {
          const float* w =
              weights_.data() + static_cast<std::int64_t>(t) * kB * kB;
          float* o = wt_base + static_cast<std::int64_t>(t) * kB * kB;
          for (int ic = 0; ic < kB; ++ic) {
            for (int oc = 0; oc < kB; ++oc) o[oc * kB + ic] = w[ic * kB + oc];
          }
        }
      },
      transpose_grain);

  // Gather form: each (icb, id) task produces its unpadded dsrc rows
  // whole — accumulate into a local zeroed row, then store once. Every
  // dsrc element is written exactly once (rows no output tap reaches
  // store the zeroed accumulator), so there is no volume-wide zero
  // fill, no scatter read-modify-write, no copy-out, and the pass
  // fully overwrites dsrc — safe on reused planner buffers. The
  // ocb -> kd -> kh -> kw summation order is fixed per row and
  // independent of the thread count.
  pool.parallel_for(
      static_cast<std::size_t>(icb_count * in_d_),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        std::vector<float> acc(static_cast<std::size_t>(in_w_) * kB);
        std::vector<std::int64_t> kd_tap(static_cast<std::size_t>(k));
        std::vector<std::int64_t> od_tap(static_cast<std::size_t>(k));
        for (std::size_t job = begin; job < end; ++job) {
          const std::int64_t icb = static_cast<std::int64_t>(job) / in_d_;
          const std::int64_t id = static_cast<std::int64_t>(job) % in_d_;
          // Depth taps reaching this input plane: kd with
          // od = (id + pad_d.lo - kd) / stride integral and in range.
          std::int64_t taps = 0;
          for (std::int64_t kd = 0; kd < k; ++kd) {
            const std::int64_t num = id + pad_d_.lo - kd;
            if (num < 0 || num % stride != 0) continue;
            const std::int64_t od = num / stride;
            if (od >= out_d_) continue;
            kd_tap[static_cast<std::size_t>(taps)] = kd;
            od_tap[static_cast<std::size_t>(taps)] = od;
            ++taps;
          }
          for (std::int64_t ih = 0; ih < in_h_; ++ih) {
            std::fill(acc.begin(), acc.end(), 0.0f);
            for (std::int64_t ocb = 0; ocb < ocb_count; ++ocb) {
              for (std::int64_t tap = 0; tap < taps; ++tap) {
                const std::int64_t kd = kd_tap[static_cast<std::size_t>(tap)];
                const std::int64_t od = od_tap[static_cast<std::size_t>(tap)];
                for (std::int64_t kh = 0; kh < k; ++kh) {
                  const std::int64_t hnum = ih + pad_h_.lo - kh;
                  if (hnum < 0 || hnum % stride != 0) continue;
                  const std::int64_t oh = hnum / stride;
                  if (oh >= out_h_) continue;
                  const float* drow =
                      ddst +
                      (((ocb * out_d_ + od) * out_h_ + oh) * out_w_) * kB;
                  const float* wt_tap =
                      wt_base +
                      ((((ocb * icb_count + icb) * k + kd) * k + kh) * k) *
                          kB * kB;
                  for (std::int64_t kw = 0; kw < k; ++kw) {
                    // Edge-trimmed output window keeping
                    // iw = ow * stride + kw - pad_w.lo inside [0, in_w).
                    const std::int64_t lo_num = pad_w_.lo - kw;
                    const std::int64_t ow_lo =
                        lo_num > 0 ? (lo_num + stride - 1) / stride : 0;
                    const std::int64_t hi_num = in_w_ - 1 + pad_w_.lo - kw;
                    if (hi_num < 0) continue;
                    const std::int64_t ow_hi =
                        std::min(out_w_, hi_num / stride + 1);
                    const std::int64_t count = ow_hi - ow_lo;
                    if (count <= 0) continue;
                    micro_bwd_gather_row(
                        acc.data() +
                            (ow_lo * stride + kw - pad_w_.lo) * kB,
                        drow + ow_lo * kB, wt_tap + kw * kB * kB, count,
                        stride);
                  }
                }
              }
            }
            float* trow = dsrc.data() +
                          (((icb * in_d_ + id) * in_h_ + ih) * in_w_) * kB;
            std::memcpy(trow, acc.data(),
                        static_cast<std::size_t>(in_w_) * kB *
                            sizeof(float));
          }
        }
      },
      grain);
}

void Conv3d::backward_data_plain_src(const Tensor& ddst, Tensor& dsrc,
                                     runtime::ThreadPool& pool) const {
  // Cold path: the first layer's input difference signal is only
  // needed when a Conv3d with IC < 16 sits mid-network, which the
  // CosmoFlow topology never does. Use the reference kernel on plain
  // layouts.
  (void)pool;
  const Tensor plain_w = plain_weights();
  const Tensor plain_ddst =
      tensor::from_blocked_activation(ddst, config_.out_channels);
  conv3d_backward_data_reference(plain_ddst, plain_w, config_.stride, pad_d_,
                                 pad_h_, pad_w_, dsrc);
}

}  // namespace cf::dnn
