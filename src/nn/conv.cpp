#include <algorithm>
#include <cmath>
#include <cstddef>
#include <sstream>
#include <vector>

#include "resipe/common/error.hpp"
#include "resipe/nn/layers.hpp"

namespace resipe::nn {

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t pad,
               Rng& rng)
    : cin_(in_channels),
      cout_(out_channels),
      k_(kernel),
      stride_(stride),
      pad_(pad),
      w_({out_channels, in_channels, kernel, kernel}),
      b_({1, out_channels}),
      gw_({out_channels, in_channels, kernel, kernel}),
      gb_({1, out_channels}) {
  RESIPE_REQUIRE(in_channels > 0 && out_channels > 0 && kernel > 0 &&
                     stride > 0,
                 "invalid conv parameters");
  const double fan_in =
      static_cast<double>(in_channels) * static_cast<double>(kernel * kernel);
  w_.fill_normal(rng, std::sqrt(2.0 / fan_in));
}

std::size_t Conv2d::out_size(std::size_t in) const {
  RESIPE_REQUIRE(in + 2 * pad_ >= k_, "conv input smaller than kernel");
  return (in + 2 * pad_ - k_) / stride_ + 1;
}

namespace {

/// The kernel offsets kk in [lo, hi) whose input index
/// o*stride + kk - pad lands inside [0, in), and the input index `first`
/// of offset lo.  Signed arithmetic: pad may exceed both k and in.
struct TapRange {
  std::size_t lo = 0;
  std::size_t hi = 0;
  std::size_t first = 0;
};

TapRange tap_range(std::size_t o, std::size_t stride, std::size_t pad,
                   std::size_t k, std::size_t in) {
  const auto base = static_cast<std::ptrdiff_t>(o * stride) -
                    static_cast<std::ptrdiff_t>(pad);
  const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(0, -base);
  const std::ptrdiff_t hi = std::min<std::ptrdiff_t>(
      static_cast<std::ptrdiff_t>(k), static_cast<std::ptrdiff_t>(in) - base);
  if (hi <= lo) return {};
  return {static_cast<std::size_t>(lo), static_cast<std::size_t>(hi),
          static_cast<std::size_t>(base + lo)};
}

}  // namespace

Tensor Conv2d::forward(const Tensor& x, bool train) {
  RESIPE_REQUIRE(x.rank() == 4 && x.dim(1) == cin_,
                 "conv input shape " << x.shape_str());
  if (train) cached_x_ = x;
  const std::size_t n = x.dim(0);
  const std::size_t h = x.dim(2);
  const std::size_t w = x.dim(3);
  const std::size_t oh = out_size(h);
  const std::size_t ow = out_size(w);
  Tensor y({n, cout_, oh, ow});

  // Weights transposed to [ic][kr][kc][oc] so the innermost loop runs
  // over output channels and vectorizes.  Each output still sees the
  // term sequence bias, then ascending (ic, kr, kc) with out-of-image
  // taps skipped, so the result is bit-identical to a per-output loop.
  const std::size_t kk = k_ * k_;
  const double* wp = w_.data().data();
  std::vector<double> wt(cin_ * kk * cout_);
  for (std::size_t oc = 0; oc < cout_; ++oc)
    for (std::size_t t = 0; t < cin_ * kk; ++t)
      wt[t * cout_ + oc] = wp[oc * cin_ * kk + t];

  const double* bp = b_.data().data();
  const double* xp = x.data().data();
  double* yp = y.data().data();
  const std::size_t plane = oh * ow;
  std::vector<double> acc_buf(cout_);
  double* acc = acc_buf.data();
  for (std::size_t img = 0; img < n; ++img) {
    const double* ximg = xp + img * cin_ * h * w;
    double* yimg = yp + img * cout_ * plane;
    for (std::size_t r = 0; r < oh; ++r) {
      const TapRange rows = tap_range(r, stride_, pad_, k_, h);
      for (std::size_t c = 0; c < ow; ++c) {
        const TapRange cols = tap_range(c, stride_, pad_, k_, w);
        std::copy(bp, bp + cout_, acc);
        for (std::size_t ic = 0; ic < cin_; ++ic) {
          const double* xwin =
              ximg + (ic * h + rows.first) * w + cols.first;
          const double* wwin = wt.data() + ic * kk * cout_;
          for (std::size_t kr = rows.lo; kr < rows.hi; ++kr) {
            const double* xrow = xwin + (kr - rows.lo) * w;
            const double* wrow = wwin + kr * k_ * cout_;
            for (std::size_t kc = cols.lo; kc < cols.hi; ++kc) {
              const double xv = xrow[kc - cols.lo];
              const double* wk = wrow + kc * cout_;
              for (std::size_t oc = 0; oc < cout_; ++oc)
                acc[oc] += xv * wk[oc];
            }
          }
        }
        for (std::size_t oc = 0; oc < cout_; ++oc)
          yimg[oc * plane + r * ow + c] = acc[oc];
      }
    }
  }
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  RESIPE_REQUIRE(cached_x_.size() > 0, "backward before forward(train)");
  const std::size_t n = cached_x_.dim(0);
  const std::size_t h = cached_x_.dim(2);
  const std::size_t w = cached_x_.dim(3);
  RESIPE_REQUIRE(grad_out.rank() == 4 && grad_out.dim(0) == n &&
                     grad_out.dim(1) == cout_ &&
                     grad_out.dim(2) == out_size(h) &&
                     grad_out.dim(3) == out_size(w),
                 "conv grad shape mismatch " << grad_out.shape_str());
  const std::size_t oh = grad_out.dim(2);
  const std::size_t ow = grad_out.dim(3);

  Tensor gx({n, cin_, h, w});
  const double* go = grad_out.data().data();
  const double* xp = cached_x_.data().data();
  const double* wp = w_.data().data();
  double* gwp = gw_.data().data();
  double* gbp = gb_.data().data();
  double* gxp = gx.data().data();
  const std::size_t kk = k_ * k_;
  for (std::size_t img = 0; img < n; ++img) {
    for (std::size_t oc = 0; oc < cout_; ++oc) {
      const double* gplane = go + (img * cout_ + oc) * oh * ow;
      for (std::size_t r = 0; r < oh; ++r) {
        const TapRange rows = tap_range(r, stride_, pad_, k_, h);
        for (std::size_t c = 0; c < ow; ++c) {
          const double g = gplane[r * ow + c];
          if (g == 0.0) continue;
          gbp[oc] += g;
          const TapRange cols = tap_range(c, stride_, pad_, k_, w);
          for (std::size_t ic = 0; ic < cin_; ++ic) {
            const std::size_t xwin =
                ((img * cin_ + ic) * h + rows.first) * w + cols.first;
            const std::size_t wwin = (oc * cin_ + ic) * kk;
            for (std::size_t kr = rows.lo; kr < rows.hi; ++kr) {
              const std::size_t xrow = xwin + (kr - rows.lo) * w;
              const std::size_t wrow = wwin + kr * k_;
              for (std::size_t kc = cols.lo; kc < cols.hi; ++kc) {
                const std::size_t xi = xrow + (kc - cols.lo);
                gwp[wrow + kc] += xp[xi] * g;
                gxp[xi] += wp[wrow + kc] * g;
              }
            }
          }
        }
      }
    }
  }
  return gx;
}

std::vector<Param> Conv2d::params() {
  return {Param{&w_, &gw_}, Param{&b_, &gb_}};
}

std::string Conv2d::describe() const {
  std::ostringstream os;
  os << "Conv2d(" << cin_ << " -> " << cout_ << ", k=" << k_
     << ", s=" << stride_ << ", p=" << pad_ << ")";
  return os.str();
}

}  // namespace resipe::nn
