#include "resipe/nn/layers.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "resipe/common/error.hpp"

namespace resipe::nn {
namespace {

// ---------------------------------------------------------------------
// Reference oracles: the per-element loops the layers ran before their
// kernels moved onto raw strided pointers.  Every access goes through
// the bounds-checked Tensor::at, and every output accumulates its terms
// in the original order, so the layers must match them bit for bit.
// ---------------------------------------------------------------------

struct Grads {
  Tensor gx, gw, gb;
};

Tensor reference_conv_forward(const Conv2d& conv, const Tensor& x) {
  const std::size_t n = x.dim(0), cin = conv.in_channels();
  const std::size_t cout = conv.out_channels(), k = conv.kernel();
  const std::size_t stride = conv.stride(), pad = conv.pad();
  const std::size_t h = x.dim(2), w = x.dim(3);
  const std::size_t oh = conv.out_size(h), ow = conv.out_size(w);
  Tensor y({n, cout, oh, ow});
  for (std::size_t img = 0; img < n; ++img) {
    for (std::size_t oc = 0; oc < cout; ++oc) {
      const double bias = conv.bias().at(0, oc);
      for (std::size_t r = 0; r < oh; ++r) {
        for (std::size_t c = 0; c < ow; ++c) {
          double acc = bias;
          for (std::size_t ic = 0; ic < cin; ++ic) {
            for (std::size_t kr = 0; kr < k; ++kr) {
              const std::ptrdiff_t ir =
                  static_cast<std::ptrdiff_t>(r * stride + kr) -
                  static_cast<std::ptrdiff_t>(pad);
              if (ir < 0 || ir >= static_cast<std::ptrdiff_t>(h)) continue;
              for (std::size_t kc = 0; kc < k; ++kc) {
                const std::ptrdiff_t icol =
                    static_cast<std::ptrdiff_t>(c * stride + kc) -
                    static_cast<std::ptrdiff_t>(pad);
                if (icol < 0 || icol >= static_cast<std::ptrdiff_t>(w))
                  continue;
                acc += x.at(img, ic, static_cast<std::size_t>(ir),
                            static_cast<std::size_t>(icol)) *
                       conv.weights().at(oc, ic, kr, kc);
              }
            }
          }
          y.at(img, oc, r, c) = acc;
        }
      }
    }
  }
  return y;
}

Grads reference_conv_backward(const Conv2d& conv, const Tensor& x,
                              const Tensor& grad_out) {
  const std::size_t n = x.dim(0), cin = conv.in_channels();
  const std::size_t cout = conv.out_channels(), k = conv.kernel();
  const std::size_t stride = conv.stride(), pad = conv.pad();
  const std::size_t h = x.dim(2), w = x.dim(3);
  const std::size_t oh = grad_out.dim(2), ow = grad_out.dim(3);
  Grads g{Tensor({n, cin, h, w}), Tensor({cout, cin, k, k}),
          Tensor({1, cout})};
  for (std::size_t img = 0; img < n; ++img) {
    for (std::size_t oc = 0; oc < cout; ++oc) {
      for (std::size_t r = 0; r < oh; ++r) {
        for (std::size_t c = 0; c < ow; ++c) {
          const double gv = grad_out.at(img, oc, r, c);
          if (gv == 0.0) continue;
          g.gb.at(0, oc) += gv;
          for (std::size_t ic = 0; ic < cin; ++ic) {
            for (std::size_t kr = 0; kr < k; ++kr) {
              const std::ptrdiff_t ir =
                  static_cast<std::ptrdiff_t>(r * stride + kr) -
                  static_cast<std::ptrdiff_t>(pad);
              if (ir < 0 || ir >= static_cast<std::ptrdiff_t>(h)) continue;
              for (std::size_t kc = 0; kc < k; ++kc) {
                const std::ptrdiff_t icol =
                    static_cast<std::ptrdiff_t>(c * stride + kc) -
                    static_cast<std::ptrdiff_t>(pad);
                if (icol < 0 || icol >= static_cast<std::ptrdiff_t>(w))
                  continue;
                const auto uir = static_cast<std::size_t>(ir);
                const auto uic = static_cast<std::size_t>(icol);
                g.gw.at(oc, ic, kr, kc) += x.at(img, ic, uir, uic) * gv;
                g.gx.at(img, ic, uir, uic) +=
                    conv.weights().at(oc, ic, kr, kc) * gv;
              }
            }
          }
        }
      }
    }
  }
  return g;
}

Tensor reference_dense_forward(const Dense& d, const Tensor& x) {
  const std::size_t n = x.dim(0), in = d.in_features();
  const std::size_t out = d.out_features();
  Tensor y({n, out});
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < out; ++j) y.at(i, j) = d.bias().at(0, j);
    for (std::size_t k = 0; k < in; ++k) {
      const double xv = x.at(i, k);
      if (xv == 0.0) continue;
      for (std::size_t j = 0; j < out; ++j)
        y.at(i, j) += xv * d.weights().at(k, j);
    }
  }
  return y;
}

Grads reference_dense_backward(const Dense& d, const Tensor& x,
                               const Tensor& grad_out) {
  const std::size_t n = x.dim(0), in = d.in_features();
  const std::size_t out = d.out_features();
  Grads g{Tensor({n, in}), Tensor({in, out}), Tensor({1, out})};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < out; ++j) {
      const double gv = grad_out.at(i, j);
      if (gv == 0.0) continue;
      g.gb.at(0, j) += gv;
      for (std::size_t k = 0; k < in; ++k) g.gw.at(k, j) += x.at(i, k) * gv;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < out; ++j) {
      const double gv = grad_out.at(i, j);
      if (gv == 0.0) continue;
      for (std::size_t k = 0; k < in; ++k)
        g.gx.at(i, k) += gv * d.weights().at(k, j);
    }
  }
  return g;
}

/// Max-pool forward plus the flat input index each output came from.
struct PoolRef {
  Tensor y;
  std::vector<std::size_t> argmax;
};

PoolRef reference_maxpool_forward(std::size_t k, const Tensor& x) {
  const std::size_t n = x.dim(0), ch = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::size_t oh = h / k, ow = w / k;
  PoolRef ref{Tensor({n, ch, oh, ow}), {}};
  ref.argmax.assign(ref.y.size(), 0);
  std::size_t out_flat = 0;
  for (std::size_t img = 0; img < n; ++img) {
    for (std::size_t c = 0; c < ch; ++c) {
      for (std::size_t r = 0; r < oh; ++r) {
        for (std::size_t col = 0; col < ow; ++col, ++out_flat) {
          double best = -std::numeric_limits<double>::infinity();
          std::size_t best_idx = 0;
          for (std::size_t kr = 0; kr < k; ++kr) {
            for (std::size_t kc = 0; kc < k; ++kc) {
              const std::size_t ir = r * k + kr;
              const std::size_t ic = col * k + kc;
              const double v = x.at(img, c, ir, ic);
              if (v > best) {
                best = v;
                best_idx = ((img * ch + c) * h + ir) * w + ic;
              }
            }
          }
          ref.y.at(img, c, r, col) = best;
          ref.argmax[out_flat] = best_idx;
        }
      }
    }
  }
  return ref;
}

Tensor reference_maxpool_backward(const PoolRef& ref, const Tensor& x,
                                  const Tensor& grad_out) {
  Tensor gx(x.shape());
  for (std::size_t i = 0; i < grad_out.size(); ++i)
    gx[ref.argmax[i]] += grad_out[i];
  return gx;
}

Tensor reference_avgpool_forward(std::size_t k, const Tensor& x) {
  const std::size_t n = x.dim(0), ch = x.dim(1);
  const std::size_t oh = x.dim(2) / k, ow = x.dim(3) / k;
  const double inv = 1.0 / static_cast<double>(k * k);
  Tensor y({n, ch, oh, ow});
  for (std::size_t img = 0; img < n; ++img) {
    for (std::size_t c = 0; c < ch; ++c) {
      for (std::size_t r = 0; r < oh; ++r) {
        for (std::size_t col = 0; col < ow; ++col) {
          double acc = 0.0;
          for (std::size_t kr = 0; kr < k; ++kr)
            for (std::size_t kc = 0; kc < k; ++kc)
              acc += x.at(img, c, r * k + kr, col * k + kc);
          y.at(img, c, r, col) = acc * inv;
        }
      }
    }
  }
  return y;
}

Tensor reference_avgpool_backward(std::size_t k, const Tensor& x,
                                  const Tensor& grad_out) {
  Tensor gx(x.shape());
  const double inv = 1.0 / static_cast<double>(k * k);
  for (std::size_t img = 0; img < x.dim(0); ++img) {
    for (std::size_t c = 0; c < x.dim(1); ++c) {
      for (std::size_t r = 0; r < grad_out.dim(2); ++r) {
        for (std::size_t col = 0; col < grad_out.dim(3); ++col) {
          const double g = grad_out.at(img, c, r, col) * inv;
          for (std::size_t kr = 0; kr < k; ++kr)
            for (std::size_t kc = 0; kc < k; ++kc)
              gx.at(img, c, r * k + kr, col * k + kc) += g;
        }
      }
    }
  }
  return gx;
}

/// Fails on the first element whose bit pattern differs (so -0.0 vs
/// +0.0 and NaN payloads count).
void expect_bitwise(const Tensor& got, const Tensor& want,
                    const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(got[i]) !=
        std::bit_cast<std::uint64_t>(want[i])) {
      ADD_FAILURE() << what << ": element " << i << " is " << got[i]
                    << ", reference " << want[i];
      return;
    }
  }
}

/// Normal draws with exact zeros, negative zeros and negatives mixed
/// in at fixed strides.
void fill_mixed(Tensor& t, Rng& rng) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (i % 5 == 1) {
      t[i] = 0.0;
    } else if (i % 7 == 3) {
      t[i] = -0.0;
    } else {
      t[i] = rng.normal(0.0, 1.0);
    }
  }
}

TEST(Dense, ForwardMatchesHandComputation) {
  Rng rng(1);
  Dense d(2, 3, rng);
  d.weights() = Tensor({2, 3}, {1, 2, 3, 4, 5, 6});
  d.bias() = Tensor({1, 3}, {0.1, 0.2, 0.3});
  const Tensor x({1, 2}, {1.0, 0.5});
  const Tensor y = d.forward(x, false);
  // y = [1*1 + 0.5*4, 1*2 + 0.5*5, 1*3 + 0.5*6] + b
  EXPECT_NEAR(y.at(0, 0), 3.1, 1e-12);
  EXPECT_NEAR(y.at(0, 1), 4.7, 1e-12);
  EXPECT_NEAR(y.at(0, 2), 6.3, 1e-12);
}

TEST(Dense, RejectsWrongInputWidth) {
  Rng rng(1);
  Dense d(4, 2, rng);
  EXPECT_THROW(d.forward(Tensor({1, 3}), false), Error);
}

TEST(Dense, BackwardRequiresTrainingForward) {
  Rng rng(1);
  Dense d(2, 2, rng);
  d.forward(Tensor({1, 2}), false);
  EXPECT_THROW(d.backward(Tensor({1, 2})), Error);
}

TEST(Dense, DescribeAndParams) {
  Rng rng(1);
  Dense d(3, 5, rng);
  EXPECT_EQ(d.describe(), "Dense(3 -> 5)");
  EXPECT_TRUE(d.is_matrix_layer());
  const auto params = d.params();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].value->size(), 15u);
  EXPECT_EQ(params[1].value->size(), 5u);
}

TEST(Conv2d, IdentityKernelPassesThrough) {
  Rng rng(1);
  Conv2d conv(1, 1, 1, 1, 0, rng);  // 1x1 kernel
  conv.weights().fill(1.0);
  conv.bias().fill(0.0);
  Tensor x({1, 1, 3, 3});
  for (std::size_t i = 0; i < 9; ++i) x[i] = static_cast<double>(i);
  const Tensor y = conv.forward(x, false);
  for (std::size_t i = 0; i < 9; ++i) EXPECT_DOUBLE_EQ(y[i], x[i]);
}

TEST(Conv2d, SumKernelMatchesHandComputation) {
  Rng rng(1);
  Conv2d conv(1, 1, 3, 1, 0, rng);
  conv.weights().fill(1.0);  // 3x3 box filter
  conv.bias().fill(0.5);
  Tensor x({1, 1, 3, 3});
  x.fill(2.0);
  const Tensor y = conv.forward(x, false);
  ASSERT_EQ(y.dim(2), 1u);
  EXPECT_DOUBLE_EQ(y.at(0, 0, 0, 0), 18.0 + 0.5);
}

TEST(Conv2d, PaddingKeepsSpatialSize) {
  Rng rng(1);
  Conv2d conv(1, 2, 3, 1, 1, rng);
  const Tensor x({2, 1, 8, 8});
  const Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.dim(0), 2u);
  EXPECT_EQ(y.dim(1), 2u);
  EXPECT_EQ(y.dim(2), 8u);
  EXPECT_EQ(y.dim(3), 8u);
}

TEST(Conv2d, StrideReducesOutput) {
  Rng rng(1);
  Conv2d conv(1, 1, 3, 2, 0, rng);
  EXPECT_EQ(conv.out_size(7), 3u);
  EXPECT_THROW(conv.out_size(1), Error);
}

TEST(MaxPool2d, SelectsWindowMaxima) {
  MaxPool2d pool(2);
  Tensor x({1, 1, 2, 4}, {1, 5, 2, 0,
                          3, 4, 9, 1});
  const Tensor y = pool.forward(x, false);
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y.at(0, 0, 0, 0), 5.0);
  EXPECT_DOUBLE_EQ(y.at(0, 0, 0, 1), 9.0);
}

TEST(MaxPool2d, BackwardRoutesToArgmax) {
  MaxPool2d pool(2);
  Tensor x({1, 1, 2, 2}, {1, 5, 3, 4});
  pool.forward(x, true);
  Tensor g({1, 1, 1, 1}, {2.0});
  const Tensor gx = pool.backward(g);
  EXPECT_DOUBLE_EQ(gx[0], 0.0);
  EXPECT_DOUBLE_EQ(gx[1], 2.0);  // the max at index 1
  EXPECT_DOUBLE_EQ(gx[2], 0.0);
  EXPECT_DOUBLE_EQ(gx[3], 0.0);
}

TEST(MaxPool2d, RejectsNonDivisibleWindows) {
  MaxPool2d pool(2);
  EXPECT_THROW(pool.forward(Tensor({1, 1, 3, 4}), false), Error);
}

TEST(AvgPool2d, AveragesWindows) {
  AvgPool2d pool(2);
  Tensor x({1, 1, 2, 2}, {1, 2, 3, 6});
  const Tensor y = pool.forward(x, false);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
}

TEST(AvgPool2d, BackwardSpreadsUniformly) {
  AvgPool2d pool(2);
  Tensor x({1, 1, 2, 2});
  pool.forward(x, true);
  const Tensor gx = pool.backward(Tensor({1, 1, 1, 1}, {4.0}));
  for (std::size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(gx[i], 1.0);
}

TEST(ReLU, ClampsNegatives) {
  ReLU relu;
  Tensor x({1, 4}, {-1.0, 0.0, 2.0, -3.0});
  const Tensor y = relu.forward(x, false);
  EXPECT_DOUBLE_EQ(y[0], 0.0);
  EXPECT_DOUBLE_EQ(y[2], 2.0);
}

TEST(ReLU, GradientMasksNegatives) {
  ReLU relu;
  Tensor x({1, 3}, {-1.0, 1.0, 0.0});
  relu.forward(x, true);
  const Tensor gx = relu.backward(Tensor({1, 3}, {5.0, 5.0, 5.0}));
  EXPECT_DOUBLE_EQ(gx[0], 0.0);
  EXPECT_DOUBLE_EQ(gx[1], 5.0);
  EXPECT_DOUBLE_EQ(gx[2], 0.0);  // x == 0 has zero subgradient here
}

TEST(Flatten, CollapsesAndRestores) {
  Flatten flat;
  Tensor x({2, 3, 4, 5});
  const Tensor y = flat.forward(x, true);
  EXPECT_EQ(y.dim(0), 2u);
  EXPECT_EQ(y.dim(1), 60u);
  const Tensor gx = flat.backward(Tensor({2, 60}));
  EXPECT_EQ(gx.shape(), x.shape());
}

// ---------------------------------------------------------------------
// Bitwise agreement with the reference oracles.
// ---------------------------------------------------------------------

TEST(Conv2d, ForwardBackwardMatchReferenceBitwise) {
  // Every channel width appears as both cin and cout; 16/17 leave lane
  // tails at any vector width.  pad >= k and pad > h reach the tap
  // range's signed-bound edge.
  const std::size_t channels[][2] = {{1, 1}, {3, 6}, {6, 16}, {16, 17},
                                     {17, 3}};
  const std::size_t spatial[][2] = {{7, 5}, {2, 3}};
  std::size_t cases = 0;
  for (const std::size_t k : {1, 3, 5}) {
    for (const std::size_t stride : {1, 2, 3}) {
      for (const std::size_t pad : {std::size_t{0}, std::size_t{1},
                                    std::size_t{2}, k, k + 1}) {
        for (const auto& ch : channels) {
          for (const auto& hw : spatial) {
            if (hw[0] + 2 * pad < k || hw[1] + 2 * pad < k) continue;
            Rng rng(1000 + cases);
            Conv2d conv(ch[0], ch[1], k, stride, pad, rng);
            fill_mixed(conv.weights(), rng);
            fill_mixed(conv.bias(), rng);
            Tensor x({2, ch[0], hw[0], hw[1]});
            fill_mixed(x, rng);
            const std::string what =
                "k=" + std::to_string(k) + " s=" + std::to_string(stride) +
                " p=" + std::to_string(pad) + " " + std::to_string(ch[0]) +
                "->" + std::to_string(ch[1]) + " " + x.shape_str();

            const Tensor y = conv.forward(x, /*train=*/true);
            expect_bitwise(y, reference_conv_forward(conv, x), what + " y");

            Tensor g(y.shape());
            fill_mixed(g, rng);
            const Tensor gx = conv.backward(g);
            const Grads ref = reference_conv_backward(conv, x, g);
            expect_bitwise(gx, ref.gx, what + " gx");
            expect_bitwise(*conv.params()[0].grad, ref.gw, what + " gw");
            expect_bitwise(*conv.params()[1].grad, ref.gb, what + " gb");
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_GT(cases, 400u);
}

TEST(Dense, ForwardBackwardMatchReferenceBitwise) {
  const std::size_t widths[] = {1, 3, 6, 16, 17};
  for (const std::size_t in : widths) {
    for (const std::size_t out : widths) {
      Rng rng(in * 100 + out);
      Dense d(in, out, rng);
      fill_mixed(d.weights(), rng);
      fill_mixed(d.bias(), rng);
      Tensor x({4, in});
      fill_mixed(x, rng);
      for (std::size_t k = 0; k < in; ++k) x.at(1, k) = 0.0;   // all zero
      for (std::size_t k = 0; k < in; ++k) x.at(2, k) = -0.0;  // all -0.0
      const std::string what =
          "Dense(" + std::to_string(in) + "->" + std::to_string(out) + ")";

      const Tensor y = d.forward(x, /*train=*/true);
      expect_bitwise(y, reference_dense_forward(d, x), what + " y");

      Tensor g(y.shape());
      fill_mixed(g, rng);
      const Tensor gx = d.backward(g);
      const Grads ref = reference_dense_backward(d, x, g);
      expect_bitwise(gx, ref.gx, what + " gx");
      expect_bitwise(*d.params()[0].grad, ref.gw, what + " gw");
      expect_bitwise(*d.params()[1].grad, ref.gb, what + " gb");
    }
  }
}

TEST(MaxPool2d, ForwardBackwardMatchReferenceBitwiseWithTies) {
  // Values drawn from a small set so windows tie often, including +0.0
  // against -0.0 (equal, so the first one seen must win), -inf and NaN.
  const double pool_values[] = {-1.0, 0.0, -0.0, 1.0, 2.0,
                                -std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN()};
  for (const std::size_t k : {1, 2, 3}) {
    for (const std::size_t ch : {1, 3, 17}) {
      Rng rng(k * 10 + ch);
      Tensor x({2, ch, 2 * k, 3 * k});
      for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = pool_values[rng.uniform_int(0, 6)];
      const std::string what =
          "MaxPool2d(" + std::to_string(k) + ") " + x.shape_str();
      MaxPool2d pool(k);
      const Tensor y = pool.forward(x, /*train=*/true);
      const PoolRef ref = reference_maxpool_forward(k, x);
      expect_bitwise(y, ref.y, what + " y");

      // Distinct gradients, so routing to a different tied index shows.
      Tensor g(y.shape());
      for (std::size_t i = 0; i < g.size(); ++i)
        g[i] = 1.0 + static_cast<double>(i);
      expect_bitwise(pool.backward(g), reference_maxpool_backward(ref, x, g),
                     what + " gx");
    }
  }
}

TEST(AvgPool2d, ForwardBackwardMatchReferenceBitwise) {
  for (const std::size_t k : {1, 2, 3}) {
    for (const std::size_t ch : {1, 3, 17}) {
      Rng rng(k * 10 + ch);
      Tensor x({2, ch, 3 * k, 2 * k});
      fill_mixed(x, rng);
      const std::string what =
          "AvgPool2d(" + std::to_string(k) + ") " + x.shape_str();
      AvgPool2d pool(k);
      const Tensor y = pool.forward(x, /*train=*/true);
      expect_bitwise(y, reference_avgpool_forward(k, x), what + " y");
      Tensor g(y.shape());
      fill_mixed(g, rng);
      expect_bitwise(pool.backward(g), reference_avgpool_backward(k, x, g),
                     what + " gx");
    }
  }
}

// ---------------------------------------------------------------------
// Shapes are validated once at entry; the loops themselves are
// unchecked, so a bad shape must throw before them.
// ---------------------------------------------------------------------

TEST(Dense, RejectsWrongRankAndMismatchedGrad) {
  Rng rng(1);
  Dense d(4, 3, rng);
  EXPECT_THROW(d.forward(Tensor({2, 4, 1, 1}), false), Error);
  EXPECT_THROW(d.forward(Tensor({8}), false), Error);
  d.forward(Tensor({2, 4}), /*train=*/true);
  EXPECT_THROW(d.backward(Tensor({2, 4})), Error);        // width
  EXPECT_THROW(d.backward(Tensor({3, 3})), Error);        // batch
  EXPECT_THROW(d.backward(Tensor({2, 3, 1, 1})), Error);  // rank
  EXPECT_NO_THROW(d.backward(Tensor({2, 3})));
}

TEST(Conv2d, RejectsWrongRankAndMismatchedGrad) {
  Rng rng(1);
  Conv2d conv(2, 3, 3, 1, 1, rng);
  EXPECT_THROW(conv.forward(Tensor({2, 2 * 5 * 5}), false), Error);
  EXPECT_THROW(conv.forward(Tensor({1, 1, 5, 5}), false), Error);  // cin
  conv.forward(Tensor({1, 2, 5, 5}), /*train=*/true);
  EXPECT_THROW(conv.backward(Tensor({1, 3 * 5 * 5})), Error);   // rank
  EXPECT_THROW(conv.backward(Tensor({2, 3, 5, 5})), Error);     // batch
  EXPECT_THROW(conv.backward(Tensor({1, 2, 5, 5})), Error);     // cout
  EXPECT_THROW(conv.backward(Tensor({1, 3, 4, 5})), Error);     // height
  EXPECT_THROW(conv.backward(Tensor({1, 3, 5, 6})), Error);     // width
  EXPECT_NO_THROW(conv.backward(Tensor({1, 3, 5, 5})));
}

TEST(MaxPool2d, RejectsWrongRankAndMismatchedGrad) {
  MaxPool2d pool(2);
  EXPECT_THROW(pool.forward(Tensor({4, 4}), false), Error);
  EXPECT_THROW(pool.forward(Tensor({1, 4, 4}), false), Error);
  pool.forward(Tensor({1, 1, 2, 4}), /*train=*/true);
  // Same element count as the [1, 1, 1, 2] output, wrong shape.
  EXPECT_THROW(pool.backward(Tensor({1, 1, 2, 1})), Error);
  EXPECT_THROW(pool.backward(Tensor({1, 2})), Error);
  EXPECT_THROW(pool.backward(Tensor({1, 1, 1, 3})), Error);
  EXPECT_NO_THROW(pool.backward(Tensor({1, 1, 1, 2})));
}

TEST(AvgPool2d, RejectsWrongRankAndMismatchedGrad) {
  AvgPool2d pool(2);
  EXPECT_THROW(pool.forward(Tensor({4, 4}), false), Error);
  EXPECT_THROW(pool.forward(Tensor({1, 1, 3, 4}), false), Error);
  pool.forward(Tensor({1, 1, 4, 4}), /*train=*/true);
  // A smaller grad_out is never read out of bounds, so only an explicit
  // shape check catches it.
  EXPECT_THROW(pool.backward(Tensor({1, 1, 1, 1})), Error);
  EXPECT_THROW(pool.backward(Tensor({1, 1, 3, 2})), Error);
  EXPECT_THROW(pool.backward(Tensor({1, 4})), Error);
  EXPECT_THROW(pool.backward(Tensor({2, 1, 2, 2})), Error);
  EXPECT_NO_THROW(pool.backward(Tensor({1, 1, 2, 2})));
}

}  // namespace
}  // namespace resipe::nn
