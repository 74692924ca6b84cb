// Reduced-precision inference forwards (DESIGN.md §2.5).
//
// Every kernel here is a forward-only bf16 sibling of the fp32 engines
// in conv3d.cpp / dense.cpp / avgpool3d.cpp / flatten.cpp (the
// precision policy: fp32 is the bitwise reference, bf16 is
// tolerance-gated). The conv is the exception: bf16 runs the fp32
// engine's own kernels (Conv3d::forward_blocked / forward_plain_src,
// fused pool epilogue included), with the weight load and the output
// store swapped for their bf16 forms.
//
// Weights and activations are stored as bf16, widened on load
// (vpmovzxwd + vpslld via precision.hpp's bf16_load_16), accumulated in
// fp32 and narrowed with round-to-nearest-even on store. Biases are
// read from the layer's fp32 tensors — they are tiny and keeping them
// fp32 costs nothing while removing one rounding step.
//
// Loop structures and summation orders mirror the fp32 kernels exactly,
// so the serving determinism rule (a context's forward is a pure
// function of weights + input, independent of thread count) holds in
// every precision.
#include <algorithm>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

#include "dnn/activations.hpp"
#include "dnn/avgpool3d.hpp"
#include "dnn/conv3d.hpp"
#include "dnn/dense.hpp"
#include "dnn/flatten.hpp"
#include "dnn/precision.hpp"
#include "tensor/layout.hpp"

// Kernel strategy: on this class of core vdpbf16ps sustains roughly
// half the MAC rate of the two fp32 FMA ports, so a bf16 conv cannot
// win on the MAC engine — the win has to come from bytes moved and
// from port pressure. The conv paths widen the padded source to fp32
// once at staging time (the broadcast operand wants plain floats) and
// keep the weights bf16, widened on load inside the kernel (vpmovzxwd
// + vpslld — half the cache lines of an fp32 copy, which is what keeps
// a two-block weight slab L1-resident across a row sweep). Dense
// keeps a vdpbf16ps tile (pack_weights_bf16) where available: the fc
// layers are weight-bandwidth-bound, so halving the streamed bytes is
// the whole story and the dp issue rate is irrelevant. Everything
// falls back to scalar conversion without __AVX512F__, with identical
// summation order.
#if defined(__AVX512F__) && defined(__AVX512BF16__)
#define CF_BF16_DP 1
#else
#define CF_BF16_DP 0
#endif

namespace cf::dnn {

using tensor::kChannelBlock;

namespace {

constexpr std::int64_t kB = kChannelBlock;  // 16

#if CF_BF16_DP
/// Broadcast two adjacent bf16 source values as one 32-bit lane pair
/// (low half = *p, the vdpbf16ps b.lo operand).
inline __m512i bcast_pair(const bf16_t* p) noexcept {
  std::uint32_t u;
  std::memcpy(&u, p, sizeof(u));
  return _mm512_set1_epi32(static_cast<int>(u));
}
#endif

/// Fused-epilogue write: identical float ops to conv3d.cpp's
/// store_row, applied to the fp32 accumulator row before any
/// narrowing.
inline void eltwise_row(float* __restrict row, std::int64_t n,
                        float slope) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float v = row[i];
    row[i] = v > 0.0f ? v : slope * v;
  }
}

// --- padded staging (bf16 -> fp32) ------------------------------------

/// Widening siblings of conv3d.cpp's copy_padded_* helpers: the bf16
/// activation rows are widened to fp32 as they are staged into the
/// zero-padded workspace, so every kernel tap below reads plain
/// floats and the widening cost is paid once per element instead of
/// once per tap.
void copy_padded_blocked_w(const bf16_t* src, float* padded,
                           std::int64_t cb, std::int64_t d, std::int64_t h,
                           std::int64_t w, const PadSpec& pd,
                           const PadSpec& ph, const PadSpec& pw,
                           std::int64_t hp, std::int64_t wp,
                           runtime::ThreadPool& pool, std::size_t grain) {
  pool.parallel_for(
      static_cast<std::size_t>(cb * d),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t job = begin; job < end; ++job) {
          const std::int64_t c = static_cast<std::int64_t>(job) / d;
          const std::int64_t dd = static_cast<std::int64_t>(job) % d;
          for (std::int64_t hh = 0; hh < h; ++hh) {
            const bf16_t* s = src + (((c * d + dd) * h + hh) * w) * kB;
            float* t = padded +
                       (((c * (d + pd.total()) + dd + pd.lo) * hp + hh +
                         ph.lo) *
                            wp +
                        pw.lo) *
                           kB;
            f32_from_bf16(s, t, static_cast<std::size_t>(w) * kB);
          }
        }
      },
      grain);
}

void copy_padded_plain_w(const bf16_t* src, float* padded, std::int64_t c,
                         std::int64_t d, std::int64_t h, std::int64_t w,
                         const PadSpec& pd, const PadSpec& ph,
                         const PadSpec& pw, std::int64_t hp, std::int64_t wp,
                         runtime::ThreadPool& pool, std::size_t grain) {
  pool.parallel_for(
      static_cast<std::size_t>(c * d),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t job = begin; job < end; ++job) {
          const std::int64_t cc = static_cast<std::int64_t>(job) / d;
          const std::int64_t dd = static_cast<std::int64_t>(job) % d;
          for (std::int64_t hh = 0; hh < h; ++hh) {
            const bf16_t* s = src + ((cc * d + dd) * h + hh) * w;
            float* t = padded +
                       ((cc * (d + pd.total()) + dd + pd.lo) * hp + hh +
                        ph.lo) *
                           wp +
                       pw.lo;
            f32_from_bf16(s, t, static_cast<std::size_t>(w));
          }
        }
      },
      grain);
}

}  // namespace

// --- Conv3d -----------------------------------------------------------

void Conv3d::forward_bf16(const bf16_t* src, bf16_t* dst,
                          std::span<const bf16_t> params,
                          LayerExecState& exec,
                          runtime::ThreadPool& pool) const {
  const runtime::ScopedTimer timer(exec.timers.fwd);
  if (params.size() !=
      static_cast<std::size_t>(weights_.size() + bias_.size())) {
    throw std::logic_error("Conv3d::forward_bf16: bad param segment size");
  }
  if (exec.workspace.size() < forward_workspace_floats()) {
    throw std::logic_error("Conv3d::forward_bf16: workspace smaller than "
                           "forward_workspace_floats()");
  }
  // Staged as fp32, exactly like the fp32 forward: the bf16 source
  // rows are widened once here so the kernels below broadcast plain
  // floats ("widen once, not per tap" — header comment). The shared
  // re-zero contract matches stage_padded_src.
  float* padded = exec.workspace.data();
  if (exec.workspace_shared) {
    std::memset(padded, 0, padded_floats() * sizeof(float));
  }
  const std::int64_t ic = config_.in_channels;
  if (plain_input_) {
    copy_padded_plain_w(src, padded, ic, in_d_, in_h_, in_w_, pad_d_,
                        pad_h_, pad_w_, ph_, pw_, pool,
                        exec.intraop_grain);
  } else {
    copy_padded_blocked_w(src, padded, ic / kB, in_d_, in_h_, in_w_,
                          pad_d_, pad_h_, pad_w_, ph_, pw_, pool,
                          exec.intraop_grain);
  }

  // Both conv forwards are the fp32 engine's own kernels with bf16
  // weight loads and output stores (Conv3d::forward_plain_src /
  // forward_blocked); the segment is weights then bias.
  const bf16_t* wbase = params.data();
  if (plain_input_) {
    forward_plain_src(padded, wbase, dst, nullptr, pool, exec.intraop_grain);
  } else {
    forward_blocked(padded, wbase, dst, nullptr, pool, exec.intraop_grain);
  }
}

// --- Dense ------------------------------------------------------------

void Dense::forward_bf16(const bf16_t* src, bf16_t* dst,
                         std::span<const bf16_t> params,
                         LayerExecState& exec,
                         runtime::ThreadPool& pool) const {
  const runtime::ScopedTimer timer(exec.timers.fwd);
  if (params.size() != static_cast<std::size_t>(in_ * out_ + out_)) {
    throw std::logic_error("Dense::forward_bf16: bad param segment size");
  }
  const bf16_t* wbase = params.data();  // {I, O}, weights then bias
  // Same fixed 16-chunk deterministic reduction as the fp32 forward.
  constexpr std::size_t kChunks = 16;
  constexpr std::int64_t kSerialWorkLimit = 4096;
  const std::size_t chunks =
      std::min<std::size_t>(kChunks, static_cast<std::size_t>(in_));
  const std::size_t chunk_size =
      (static_cast<std::size_t>(in_) + chunks - 1) / chunks;
#if CF_BF16_DP
  // When the weights were pair-interleaved ({I/2, O, 2} — see
  // Dense::pack_weights_bf16, same condition) each vdpbf16ps retires
  // two input taps per 16 outputs. in_ % 32 == 0 keeps every chunk
  // boundary even, so chunk sums match the tap grouping exactly.
  const bool packed = (in_ % 32 == 0) && (out_ % kB == 0);
#endif
  std::vector<std::vector<float>> partial(
      chunks, std::vector<float>(static_cast<std::size_t>(out_), 0.0f));
  const std::size_t grain = std::max<std::size_t>(
      in_ * out_ <= kSerialWorkLimit ? chunks : 1, exec.intraop_grain);
  pool.parallel_for(
      chunks,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t chunk = begin; chunk < end; ++chunk) {
          float* acc = partial[chunk].data();
          const std::size_t lo = chunk * chunk_size;
          const std::size_t hi =
              std::min(static_cast<std::size_t>(in_), lo + chunk_size);
#if CF_BF16_DP
          if (packed) {
            for (std::size_t i = lo; i < hi; i += 2) {
              const __m512bh pv =
                  reinterpret_cast<__m512bh>(bcast_pair(src + i));
              const bf16_t* wrow =
                  wbase + (i / 2) * static_cast<std::size_t>(out_) * 2;
              for (std::int64_t o = 0; o < out_; o += kB) {
                _mm512_storeu_ps(
                    acc + o,
                    _mm512_dpbf16_ps(_mm512_loadu_ps(acc + o),
                                     reinterpret_cast<__m512bh>(
                                         _mm512_loadu_si512(wrow + o * 2)),
                                     pv));
              }
            }
            continue;
          }
#endif
          for (std::size_t i = lo; i < hi; ++i) {
            const float sv = bf16_to_float(src[i]);
            const bf16_t* wrow = wbase + i * static_cast<std::size_t>(out_);
            std::int64_t o = 0;
#if defined(__AVX512F__)
            for (; o + kB <= out_; o += kB) {
              _mm512_storeu_ps(
                  acc + o,
                  _mm512_fmadd_ps(bf16_load_16(wrow + o),
                                  _mm512_set1_ps(sv),
                                  _mm512_loadu_ps(acc + o)));
            }
#endif
            for (; o < out_; ++o) acc[o] += bf16_to_float(wrow[o]) * sv;
          }
        }
      },
      grain);
  std::vector<float> out(static_cast<std::size_t>(out_));
  std::memcpy(out.data(), bias_.data(),
              static_cast<std::size_t>(out_) * sizeof(float));
  for (const auto& acc : partial) {
    for (std::int64_t o = 0; o < out_; ++o) {
      out[static_cast<std::size_t>(o)] += acc[static_cast<std::size_t>(o)];
    }
  }
  if (fused_) eltwise_row(out.data(), out_, slope_);
  bf16_from_f32(out.data(), dst, static_cast<std::size_t>(out_));
}

void Dense::pack_weights_bf16(std::span<bf16_t> segment) const {
#if CF_BF16_DP
  const std::size_t wn = static_cast<std::size_t>(in_ * out_);
  if (segment.size() != wn + static_cast<std::size_t>(out_)) {
    throw std::logic_error("Dense::pack_weights_bf16: bad segment size");
  }
  // Condition mirrors forward_bf16's `packed` check: in_ % 32 keeps
  // chunk boundaries even, out_ % 16 keeps rows whole. Layers that
  // fail it (e.g. a narrow head) keep the plain {I, O} image for the
  // widen path.
  if (in_ % 32 != 0 || out_ % kB != 0) return;
  std::vector<bf16_t> plain(segment.begin(), segment.begin() + wn);
  bf16_t* dst = segment.data();
  const std::size_t o_count = static_cast<std::size_t>(out_);
  // {I, O} → {I/2, O, 2}: the pair (w[2p][o], w[2p+1][o]) lands in one
  // 32-bit lane for vdpbf16ps against a broadcast source pair.
  for (std::size_t p = 0; p < static_cast<std::size_t>(in_) / 2; ++p) {
    for (std::size_t o = 0; o < o_count; ++o) {
      dst[(p * o_count + o) * 2 + 0] = plain[(2 * p + 0) * o_count + o];
      dst[(p * o_count + o) * 2 + 1] = plain[(2 * p + 1) * o_count + o];
    }
  }
#else
  static_cast<void>(segment);  // widen/scalar tiers read the plain image
#endif
}

// --- AvgPool3d --------------------------------------------------------

void AvgPool3d::forward_bf16(const bf16_t* src, bf16_t* dst,
                             std::span<const bf16_t> params,
                             LayerExecState& exec,
                             runtime::ThreadPool& pool) const {
  static_cast<void>(params);  // parameterless
  const runtime::ScopedTimer timer(exec.timers.fwd);
  const std::int64_t k = config_.kernel;
  const std::int64_t s = config_.stride;
  const float inv = 1.0f / static_cast<float>(k * k * k);
  pool.parallel_for(
      static_cast<std::size_t>(cb_ * out_d_),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t job = begin; job < end; ++job) {
          const std::int64_t cb = static_cast<std::int64_t>(job) / out_d_;
          const std::int64_t od = static_cast<std::int64_t>(job) % out_d_;
          for (std::int64_t oh = 0; oh < out_h_; ++oh) {
            bf16_t* drow =
                dst + (((cb * out_d_ + od) * out_h_ + oh) * out_w_) * kB;
            for (std::int64_t ow = 0; ow < out_w_; ++ow) {
#if defined(__AVX512F__)
              __m512 acc = _mm512_setzero_ps();
              for (std::int64_t kd = 0; kd < k; ++kd) {
                for (std::int64_t kh = 0; kh < k; ++kh) {
                  const bf16_t* srow =
                      src +
                      (((cb * in_d_ + od * s + kd) * in_h_ + oh * s + kh) *
                           in_w_ +
                       ow * s) *
                          kB;
                  for (std::int64_t kw = 0; kw < k; ++kw) {
                    acc = _mm512_add_ps(acc, bf16_load_16(srow + kw * kB));
                  }
                }
              }
              bf16_store_16(drow + ow * kB,
                            _mm512_mul_ps(acc, _mm512_set1_ps(inv)));
#else
              float acc[kB] = {};
              for (std::int64_t kd = 0; kd < k; ++kd) {
                for (std::int64_t kh = 0; kh < k; ++kh) {
                  const bf16_t* srow =
                      src +
                      (((cb * in_d_ + od * s + kd) * in_h_ + oh * s + kh) *
                           in_w_ +
                       ow * s) *
                          kB;
                  for (std::int64_t kw = 0; kw < k; ++kw) {
                    const bf16_t* v = srow + kw * kB;
                    for (int c = 0; c < kB; ++c) {
                      acc[c] += bf16_to_float(v[c]);
                    }
                  }
                }
              }
              bf16_t* d = drow + ow * kB;
              for (int c = 0; c < kB; ++c) {
                d[c] = float_to_bf16(acc[c] * inv);
              }
#endif
            }
          }
        }
      },
      exec.intraop_grain);
}

// --- Flatten ----------------------------------------------------------

void Flatten::forward_bf16(const bf16_t* src, bf16_t* dst,
                           std::span<const bf16_t> params,
                           LayerExecState& exec,
                           runtime::ThreadPool& pool) const {
  static_cast<void>(params);  // parameterless
  const runtime::ScopedTimer timer(exec.timers.fwd);
  const std::int64_t spatial = d_ * h_ * w_;
  const std::size_t grain = std::max<std::size_t>(
      channels_ * spatial <= 4096 ? static_cast<std::size_t>(channels_) : 1,
      exec.intraop_grain);
  pool.parallel_for(
      static_cast<std::size_t>(channels_),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t chi = begin; chi < end; ++chi) {
          const std::int64_t ch = static_cast<std::int64_t>(chi);
          const std::int64_t block = ch / kChannelBlock;
          const std::int64_t lane = ch % kChannelBlock;
          const bf16_t* s = src + block * spatial * kChannelBlock + lane;
          bf16_t* d = dst + ch * spatial;
          for (std::int64_t v = 0; v < spatial; ++v) {
            d[v] = s[v * kChannelBlock];
          }
        }
      },
      grain);
}

// --- LeakyRelu --------------------------------------------------------

void LeakyRelu::forward_bf16(const bf16_t* src, bf16_t* dst,
                             std::span<const bf16_t> params,
                             LayerExecState& exec,
                             runtime::ThreadPool& pool) const {
  static_cast<void>(params);  // parameterless
  const runtime::ScopedTimer timer(exec.timers.fwd);
  const std::size_t n =
      static_cast<std::size_t>(output_shape().numel());
  const float slope = slope_;
  pool.parallel_for(
      n,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        std::size_t i = begin;
#if defined(__AVX512F__)
        const __m512 sv = _mm512_set1_ps(slope);
        const __m512 zero = _mm512_setzero_ps();
        for (; i + kB <= end; i += kB) {
          const __m512 v = bf16_load_16(src + i);
          const __mmask16 pos =
              _mm512_cmp_ps_mask(v, zero, _CMP_GT_OQ);
          bf16_store_16(dst + i,
                        _mm512_mask_blend_ps(pos, _mm512_mul_ps(sv, v), v));
        }
#endif
        for (; i < end; ++i) {
          const float v = bf16_to_float(src[i]);
          dst[i] = float_to_bf16(v > 0.0f ? v : slope * v);
        }
      },
      /*grain=*/4096);
}

}  // namespace cf::dnn
