#include <limits>
#include <sstream>

#include "resipe/common/error.hpp"
#include "resipe/nn/layers.hpp"

namespace resipe::nn {

MaxPool2d::MaxPool2d(std::size_t k) : k_(k) {
  RESIPE_REQUIRE(k >= 1, "pool window must be >= 1");
}

namespace {

/// Validates a rank-4 pooling input whose spatial dims window `k`
/// divides.
void check_pool_input(const Tensor& x, std::size_t k) {
  RESIPE_REQUIRE(x.rank() == 4, "pool input must be rank 4, got "
                                    << x.shape_str());
  RESIPE_REQUIRE(x.dim(2) % k == 0 && x.dim(3) % k == 0,
                 "pool window " << k << " must divide " << x.dim(2) << "x"
                                << x.dim(3));
}

/// Validates that `grad_out` has the pooled shape of `in_shape`.
void check_pool_grad(const Tensor& grad_out,
                     const std::vector<std::size_t>& in_shape,
                     std::size_t k) {
  RESIPE_REQUIRE(grad_out.rank() == 4 && grad_out.dim(0) == in_shape[0] &&
                     grad_out.dim(1) == in_shape[1] &&
                     grad_out.dim(2) == in_shape[2] / k &&
                     grad_out.dim(3) == in_shape[3] / k,
                 "pool grad shape mismatch " << grad_out.shape_str());
}

}  // namespace

Tensor MaxPool2d::forward(const Tensor& x, bool train) {
  check_pool_input(x, k_);
  const std::size_t n = x.dim(0);
  const std::size_t ch = x.dim(1);
  const std::size_t h = x.dim(2);
  const std::size_t w = x.dim(3);
  const std::size_t oh = h / k_;
  const std::size_t ow = w / k_;
  Tensor y({n, ch, oh, ow});
  if (train) {
    cached_x_ = x;
    argmax_.assign(y.size(), 0);
  }
  const double* xp = x.data().data();
  double* yp = y.data().data();
  std::size_t out_flat = 0;
  for (std::size_t plane = 0; plane < n * ch; ++plane) {
    const std::size_t plane_base = plane * h * w;
    for (std::size_t r = 0; r < oh; ++r) {
      for (std::size_t col = 0; col < ow; ++col, ++out_flat) {
        double best = -std::numeric_limits<double>::infinity();
        std::size_t best_idx = 0;
        for (std::size_t kr = 0; kr < k_; ++kr) {
          const std::size_t row = plane_base + (r * k_ + kr) * w + col * k_;
          for (std::size_t kc = 0; kc < k_; ++kc) {
            const double v = xp[row + kc];
            if (v > best) {
              best = v;
              best_idx = row + kc;
            }
          }
        }
        yp[out_flat] = best;
        if (train) argmax_[out_flat] = best_idx;
      }
    }
  }
  return y;
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  RESIPE_REQUIRE(cached_x_.size() > 0, "backward before forward(train)");
  check_pool_grad(grad_out, cached_x_.shape(), k_);
  Tensor gx(cached_x_.shape());
  for (std::size_t i = 0; i < grad_out.size(); ++i)
    gx[argmax_[i]] += grad_out[i];
  return gx;
}

std::string MaxPool2d::describe() const {
  std::ostringstream os;
  os << "MaxPool2d(" << k_ << ")";
  return os.str();
}

AvgPool2d::AvgPool2d(std::size_t k) : k_(k) {
  RESIPE_REQUIRE(k >= 1, "pool window must be >= 1");
}

Tensor AvgPool2d::forward(const Tensor& x, bool train) {
  check_pool_input(x, k_);
  if (train) in_shape_ = x.shape();
  const std::size_t n = x.dim(0);
  const std::size_t ch = x.dim(1);
  const std::size_t h = x.dim(2);
  const std::size_t w = x.dim(3);
  const std::size_t oh = h / k_;
  const std::size_t ow = w / k_;
  const double inv = 1.0 / static_cast<double>(k_ * k_);
  Tensor y({n, ch, oh, ow});
  const double* xp = x.data().data();
  double* yp = y.data().data();
  std::size_t out_flat = 0;
  for (std::size_t plane = 0; plane < n * ch; ++plane) {
    const std::size_t plane_base = plane * h * w;
    for (std::size_t r = 0; r < oh; ++r) {
      for (std::size_t col = 0; col < ow; ++col, ++out_flat) {
        double acc = 0.0;
        for (std::size_t kr = 0; kr < k_; ++kr) {
          const std::size_t row = plane_base + (r * k_ + kr) * w + col * k_;
          for (std::size_t kc = 0; kc < k_; ++kc) acc += xp[row + kc];
        }
        yp[out_flat] = acc * inv;
      }
    }
  }
  return y;
}

Tensor AvgPool2d::backward(const Tensor& grad_out) {
  RESIPE_REQUIRE(!in_shape_.empty(), "backward before forward(train)");
  check_pool_grad(grad_out, in_shape_, k_);
  Tensor gx(in_shape_);
  const std::size_t h = in_shape_[2];
  const std::size_t w = in_shape_[3];
  const std::size_t oh = grad_out.dim(2);
  const std::size_t ow = grad_out.dim(3);
  const double inv = 1.0 / static_cast<double>(k_ * k_);
  const double* go = grad_out.data().data();
  double* gxp = gx.data().data();
  std::size_t out_flat = 0;
  for (std::size_t plane = 0; plane < in_shape_[0] * in_shape_[1]; ++plane) {
    const std::size_t plane_base = plane * h * w;
    for (std::size_t r = 0; r < oh; ++r) {
      for (std::size_t col = 0; col < ow; ++col, ++out_flat) {
        const double g = go[out_flat] * inv;
        for (std::size_t kr = 0; kr < k_; ++kr) {
          const std::size_t row = plane_base + (r * k_ + kr) * w + col * k_;
          for (std::size_t kc = 0; kc < k_; ++kc) gxp[row + kc] += g;
        }
      }
    }
  }
  return gx;
}

std::string AvgPool2d::describe() const {
  std::ostringstream os;
  os << "AvgPool2d(" << k_ << ")";
  return os.str();
}

}  // namespace resipe::nn
