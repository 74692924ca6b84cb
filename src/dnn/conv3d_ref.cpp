// Reference direct 3D convolution on plain layouts. Slow but obviously
// correct; the blocked engine is validated against these kernels in
// tests/conv3d_test.cpp.
#include <stdexcept>

#include "dnn/conv3d.hpp"
#include "tensor/shape.hpp"

namespace cf::dnn {

PadSpec resolve_pad(Padding mode, std::int64_t in, std::int64_t kernel,
                    std::int64_t stride) {
  if (mode == Padding::kValid) return {0, 0};
  const std::int64_t total = tensor::same_pad_total(in, kernel, stride);
  PadSpec pad;
  pad.lo = total / 2;
  pad.hi = total - pad.lo;
  return pad;
}

namespace {

struct Geometry {
  std::int64_t ic, id, ih, iw;
  std::int64_t oc, od, oh, ow;
  std::int64_t kd, kh, kw;

  // Flat offsets into the plain {IC, D, H, W}, {OC, OD, OH, OW} and
  // {OC, IC, KD, KH, KW} tensors (Tensor::at without its per-call
  // checks, which dominated the reference's run time).
  std::size_t in(std::int64_t c, std::int64_t z, std::int64_t y,
                 std::int64_t x) const {
    return static_cast<std::size_t>(((c * id + z) * ih + y) * iw + x);
  }
  std::size_t out(std::int64_t c, std::int64_t z, std::int64_t y,
                  std::int64_t x) const {
    return static_cast<std::size_t>(((c * od + z) * oh + y) * ow + x);
  }
  std::size_t w(std::int64_t o, std::int64_t c, std::int64_t z,
                std::int64_t y, std::int64_t x) const {
    return static_cast<std::size_t>((((o * ic + c) * kd + z) * kh + y) * kw +
                                    x);
  }
};

Geometry check_geometry(const tensor::Tensor& src,
                        const tensor::Tensor& weights, std::int64_t stride,
                        const PadSpec& pd, const PadSpec& ph,
                        const PadSpec& pw) {
  if (src.shape().rank() != 4 || weights.shape().rank() != 5) {
    throw std::invalid_argument("conv3d reference: bad ranks");
  }
  Geometry g{};
  g.ic = src.shape()[0];
  g.id = src.shape()[1];
  g.ih = src.shape()[2];
  g.iw = src.shape()[3];
  g.oc = weights.shape()[0];
  if (weights.shape()[1] != g.ic) {
    throw std::invalid_argument("conv3d reference: channel mismatch");
  }
  g.kd = weights.shape()[2];
  g.kh = weights.shape()[3];
  g.kw = weights.shape()[4];
  g.od = tensor::conv_out_dim(g.id, g.kd, stride, pd.total());
  g.oh = tensor::conv_out_dim(g.ih, g.kh, stride, ph.total());
  g.ow = tensor::conv_out_dim(g.iw, g.kw, stride, pw.total());
  return g;
}

}  // namespace

void conv3d_forward_reference(const tensor::Tensor& src,
                              const tensor::Tensor& weights,
                              const tensor::Tensor& bias, std::int64_t stride,
                              const PadSpec& pd, const PadSpec& ph,
                              const PadSpec& pw, tensor::Tensor& dst) {
  const Geometry g = check_geometry(src, weights, stride, pd, ph, pw);
  if (dst.shape() != tensor::Shape{g.oc, g.od, g.oh, g.ow}) {
    throw std::invalid_argument("conv3d reference: bad dst shape");
  }
  if (bias.shape() != tensor::Shape{g.oc}) {
    throw std::invalid_argument("conv3d reference: bad bias shape");
  }

  for (std::int64_t oc = 0; oc < g.oc; ++oc) {
    for (std::int64_t od = 0; od < g.od; ++od) {
      for (std::int64_t oh = 0; oh < g.oh; ++oh) {
        for (std::int64_t ow = 0; ow < g.ow; ++ow) {
          float acc = bias[static_cast<std::size_t>(oc)];
          for (std::int64_t ic = 0; ic < g.ic; ++ic) {
            for (std::int64_t kd = 0; kd < g.kd; ++kd) {
              const std::int64_t id = od * stride - pd.lo + kd;
              if (id < 0 || id >= g.id) continue;
              for (std::int64_t kh = 0; kh < g.kh; ++kh) {
                const std::int64_t ih = oh * stride - ph.lo + kh;
                if (ih < 0 || ih >= g.ih) continue;
                for (std::int64_t kw = 0; kw < g.kw; ++kw) {
                  const std::int64_t iw = ow * stride - pw.lo + kw;
                  if (iw < 0 || iw >= g.iw) continue;
                  acc += src[g.in(ic, id, ih, iw)] *
                         weights[g.w(oc, ic, kd, kh, kw)];
                }
              }
            }
          }
          dst[g.out(oc, od, oh, ow)] = acc;
        }
      }
    }
  }
}

void conv3d_backward_data_reference(const tensor::Tensor& ddst,
                                    const tensor::Tensor& weights,
                                    std::int64_t stride, const PadSpec& pd,
                                    const PadSpec& ph, const PadSpec& pw,
                                    tensor::Tensor& dsrc) {
  const Geometry g = check_geometry(dsrc, weights, stride, pd, ph, pw);
  if (ddst.shape() != tensor::Shape{g.oc, g.od, g.oh, g.ow}) {
    throw std::invalid_argument("conv3d reference bwd-data: bad ddst shape");
  }
  dsrc.zero();
  for (std::int64_t oc = 0; oc < g.oc; ++oc) {
    for (std::int64_t od = 0; od < g.od; ++od) {
      for (std::int64_t oh = 0; oh < g.oh; ++oh) {
        for (std::int64_t ow = 0; ow < g.ow; ++ow) {
          const float diff = ddst[g.out(oc, od, oh, ow)];
          for (std::int64_t ic = 0; ic < g.ic; ++ic) {
            for (std::int64_t kd = 0; kd < g.kd; ++kd) {
              const std::int64_t id = od * stride - pd.lo + kd;
              if (id < 0 || id >= g.id) continue;
              for (std::int64_t kh = 0; kh < g.kh; ++kh) {
                const std::int64_t ih = oh * stride - ph.lo + kh;
                if (ih < 0 || ih >= g.ih) continue;
                for (std::int64_t kw = 0; kw < g.kw; ++kw) {
                  const std::int64_t iw = ow * stride - pw.lo + kw;
                  if (iw < 0 || iw >= g.iw) continue;
                  dsrc[g.in(ic, id, ih, iw)] +=
                      diff * weights[g.w(oc, ic, kd, kh, kw)];
                }
              }
            }
          }
        }
      }
    }
  }
}

void conv3d_backward_weights_reference(
    const tensor::Tensor& src, const tensor::Tensor& ddst,
    std::int64_t stride, const PadSpec& pd, const PadSpec& ph,
    const PadSpec& pw, tensor::Tensor& dweights, tensor::Tensor& dbias) {
  const Geometry g = check_geometry(src, dweights, stride, pd, ph, pw);
  if (ddst.shape() != tensor::Shape{g.oc, g.od, g.oh, g.ow}) {
    throw std::invalid_argument(
        "conv3d reference bwd-weights: bad ddst shape");
  }
  if (dbias.shape() != tensor::Shape{g.oc}) {
    throw std::invalid_argument("conv3d reference bwd-weights: bad dbias");
  }
  for (std::int64_t oc = 0; oc < g.oc; ++oc) {
    double bias_acc = 0.0;
    for (std::int64_t od = 0; od < g.od; ++od) {
      for (std::int64_t oh = 0; oh < g.oh; ++oh) {
        for (std::int64_t ow = 0; ow < g.ow; ++ow) {
          bias_acc += ddst[g.out(oc, od, oh, ow)];
        }
      }
    }
    dbias[static_cast<std::size_t>(oc)] += static_cast<float>(bias_acc);
  }
  for (std::int64_t oc = 0; oc < g.oc; ++oc) {
    for (std::int64_t ic = 0; ic < g.ic; ++ic) {
      for (std::int64_t kd = 0; kd < g.kd; ++kd) {
        for (std::int64_t kh = 0; kh < g.kh; ++kh) {
          for (std::int64_t kw = 0; kw < g.kw; ++kw) {
            double acc = 0.0;
            for (std::int64_t od = 0; od < g.od; ++od) {
              const std::int64_t id = od * stride - pd.lo + kd;
              if (id < 0 || id >= g.id) continue;
              for (std::int64_t oh = 0; oh < g.oh; ++oh) {
                const std::int64_t ih = oh * stride - ph.lo + kh;
                if (ih < 0 || ih >= g.ih) continue;
                for (std::int64_t ow = 0; ow < g.ow; ++ow) {
                  const std::int64_t iw = ow * stride - pw.lo + kw;
                  if (iw < 0 || iw >= g.iw) continue;
                  acc += static_cast<double>(src[g.in(ic, id, ih, iw)]) *
                         ddst[g.out(oc, od, oh, ow)];
                }
              }
            }
            dweights[g.w(oc, ic, kd, kh, kw)] += static_cast<float>(acc);
          }
        }
      }
    }
  }
}

}  // namespace cf::dnn
