#include <algorithm>
#include <cmath>
#include <sstream>

#include "resipe/common/error.hpp"
#include "resipe/nn/layers.hpp"

namespace resipe::nn {

Dense::Dense(std::size_t in_features, std::size_t out_features, Rng& rng)
    : in_(in_features),
      out_(out_features),
      w_({in_features, out_features}),
      b_({1, out_features}),
      gw_({in_features, out_features}),
      gb_({1, out_features}) {
  RESIPE_REQUIRE(in_features > 0 && out_features > 0, "empty dense layer");
  // He initialization — the nets use ReLU activations.
  w_.fill_normal(rng, std::sqrt(2.0 / static_cast<double>(in_features)));
}

Tensor Dense::forward(const Tensor& x, bool train) {
  RESIPE_REQUIRE(x.rank() == 2 && x.dim(1) == in_,
                 "dense input shape " << x.shape_str() << ", expected [N, "
                                      << in_ << "]");
  if (train) cached_x_ = x;
  const std::size_t n = x.dim(0);
  Tensor y({n, out_});
  const double* xp = x.data().data();
  const double* wp = w_.data().data();
  const double* bp = b_.data().data();
  double* yp = y.data().data();
  for (std::size_t i = 0; i < n; ++i) {
    double* yi = yp + i * out_;
    std::copy(bp, bp + out_, yi);
    for (std::size_t k = 0; k < in_; ++k) {
      const double xv = xp[i * in_ + k];
      if (xv == 0.0) continue;
      const double* wk = wp + k * out_;
      for (std::size_t j = 0; j < out_; ++j) yi[j] += xv * wk[j];
    }
  }
  return y;
}

Tensor Dense::backward(const Tensor& grad_out) {
  RESIPE_REQUIRE(cached_x_.size() > 0, "backward before forward(train)");
  RESIPE_REQUIRE(grad_out.rank() == 2 && grad_out.dim(1) == out_,
                 "dense grad shape mismatch " << grad_out.shape_str());
  const std::size_t n = grad_out.dim(0);
  RESIPE_REQUIRE(cached_x_.dim(0) == n, "batch size changed between passes");

  // dW = x^T g ; db = sum_i g ; dx = g W^T
  const double* go = grad_out.data().data();
  const double* xp = cached_x_.data().data();
  const double* wp = w_.data().data();
  double* gwp = gw_.data().data();
  double* gbp = gb_.data().data();
  for (std::size_t i = 0; i < n; ++i) {
    const double* xi = xp + i * in_;
    for (std::size_t j = 0; j < out_; ++j) {
      const double g = go[i * out_ + j];
      if (g == 0.0) continue;
      gbp[j] += g;
      for (std::size_t k = 0; k < in_; ++k) gwp[k * out_ + j] += xi[k] * g;
    }
  }
  Tensor gx({n, in_});
  double* gxp = gx.data().data();
  for (std::size_t i = 0; i < n; ++i) {
    double* gxi = gxp + i * in_;
    for (std::size_t j = 0; j < out_; ++j) {
      const double g = go[i * out_ + j];
      if (g == 0.0) continue;
      for (std::size_t k = 0; k < in_; ++k) gxi[k] += g * wp[k * out_ + j];
    }
  }
  return gx;
}

std::vector<Param> Dense::params() {
  return {Param{&w_, &gw_}, Param{&b_, &gb_}};
}

std::string Dense::describe() const {
  std::ostringstream os;
  os << "Dense(" << in_ << " -> " << out_ << ")";
  return os.str();
}

}  // namespace resipe::nn
