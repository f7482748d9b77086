// Dense N-dimensional tensor used by the neural-network substrate.
//
// Row-major `double` storage; ranks used in practice are 2 ([N, D] for
// dense layers) and 4 ([N, C, H, W] for convolutional layers).  `at()`
// checks rank and bounds on every call, which suits tests and cold
// code.  The layer kernels do not use it: lowering a network runs the
// software forward on its calibration batch, and that forward used to
// outweigh crossbar programming and calibration together.  They
// validate shapes once at entry and then loop over `data()` with raw
// strides (see docs/performance.md, "Software reference layers").
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "resipe/common/rng.hpp"

namespace resipe::nn {

/// Row-major dense tensor of doubles.
class Tensor {
 public:
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(std::vector<std::size_t> shape);

  /// Tensor with explicit data (size must match the shape product).
  Tensor(std::vector<std::size_t> shape, std::vector<double> data);

  const std::vector<std::size_t>& shape() const { return shape_; }
  std::size_t rank() const { return shape_.size(); }
  std::size_t size() const { return data_.size(); }
  std::size_t dim(std::size_t i) const;

  std::span<double> data() { return data_; }
  std::span<const double> data() const { return data_; }

  double& operator[](std::size_t flat) { return data_[flat]; }
  double operator[](std::size_t flat) const { return data_[flat]; }

  /// 2-D access: (row, col) on a rank-2 tensor.
  double& at(std::size_t i, std::size_t j);
  double at(std::size_t i, std::size_t j) const;

  /// 4-D access: (n, c, h, w) on a rank-4 tensor.
  double& at(std::size_t n, std::size_t c, std::size_t h, std::size_t w);
  double at(std::size_t n, std::size_t c, std::size_t h, std::size_t w) const;

  /// Returns a copy with a new shape of identical total size.
  Tensor reshaped(std::vector<std::size_t> shape) const;

  /// Fills with a constant.
  void fill(double v);

  /// Fills i.i.d. N(0, stddev).
  void fill_normal(Rng& rng, double stddev);

  /// Largest absolute element (0 for an empty tensor).
  double abs_max() const;

  /// Index of the maximum element in row `i` of a rank-2 tensor —
  /// the classifier's argmax.
  std::size_t argmax_row(std::size_t i) const;

  /// Human-readable shape like "[32, 1, 28, 28]".
  std::string shape_str() const;

  /// True when shapes are identical.
  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

 private:
  std::vector<std::size_t> shape_;
  std::vector<double> data_;
};

/// Elementwise a += b (shapes must match).
void add_inplace(Tensor& a, const Tensor& b);

/// Elementwise a *= s.
void scale_inplace(Tensor& a, double s);

}  // namespace resipe::nn
