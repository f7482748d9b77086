#include "resipe/resipe/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <optional>

#include "resipe/common/error.hpp"
#include "resipe/common/parallel.hpp"
#include "resipe/common/simd.hpp"
#include "resipe/eval/fidelity.hpp"
#include "resipe/nn/zoo.hpp"

namespace resipe::resipe_core {
namespace {

TEST(EngineConfig, IdealPresetIsNoiseless) {
  const EngineConfig cfg = EngineConfig::ideal();
  EXPECT_EQ(cfg.circuit.model, circuits::TransferModel::kLinear);
  EXPECT_FALSE(cfg.quantize_spikes);
  EXPECT_DOUBLE_EQ(cfg.device.variation_sigma, 0.0);
  EXPECT_DOUBLE_EQ(cfg.device.transistor_r_on, 0.0);
}

TEST(ProgrammedMatrix, IdealConfigReproducesTheMatmul) {
  const auto score = eval::mvm_fidelity(EngineConfig::ideal());
  EXPECT_LT(score.rmse, 1e-3);
  EXPECT_LT(score.worst, 5e-3);
}

TEST(ProgrammedMatrix, PaperConfigStaysWithinFewPercent) {
  const auto score = eval::mvm_fidelity(EngineConfig{});
  // Device quantization (32 levels) + write verify + clocked spikes.
  EXPECT_LT(score.rmse, 0.05);
}

TEST(ProgrammedMatrix, VariationDegradesFidelityMonotonically) {
  EngineConfig low;
  low.device.variation_sigma = 0.02;
  EngineConfig high;
  high.device.variation_sigma = 0.20;
  const auto s_low = eval::mvm_fidelity(low);
  const auto s_high = eval::mvm_fidelity(high);
  EXPECT_GT(s_high.rmse, s_low.rmse);
}

TEST(ProgrammedMatrix, TileCountMatchesBlocking) {
  EngineConfig cfg;
  cfg.tile_rows = 32;
  cfg.tile_cols = 32;
  Rng rng(1);
  // 70 x 20 logical, differential -> 40 physical columns.
  const std::vector<double> w(70 * 20, 0.1);
  const std::vector<double> b(20, 0.0);
  const ProgrammedMatrix pm(cfg, w, b, 70, 20, rng);
  // ceil(70/32) = 3 row blocks x ceil(40/32) = 2 column blocks.
  EXPECT_EQ(pm.tile_count(), 6u);
  EXPECT_EQ(pm.mvms_per_forward(), 3u);
  EXPECT_EQ(pm.in_features(), 70u);
  EXPECT_EQ(pm.out_features(), 20u);
}

TEST(ProgrammedMatrix, BiasIsApplied) {
  EngineConfig cfg = EngineConfig::ideal();
  Rng rng(1);
  const std::vector<double> w(4, 0.0);  // zero weights
  const std::vector<double> b{1.5, -2.5};
  const ProgrammedMatrix pm(cfg, w, b, 2, 2, rng);
  std::vector<double> y(2, 0.0);
  pm.forward(std::vector<double>{0.7, 0.3}, y);
  EXPECT_NEAR(y[0], 1.5, 1e-6);
  EXPECT_NEAR(y[1], -2.5, 1e-6);
}

TEST(ProgrammedMatrix, InputScaleNormalizesActivations) {
  EngineConfig cfg = EngineConfig::ideal();
  Rng rng(1);
  const std::vector<double> w{1.0};
  const std::vector<double> b{0.0};
  ProgrammedMatrix pm(cfg, w, b, 1, 1, rng);
  pm.set_input_scale(10.0);  // inputs up to 10
  std::vector<double> y(1, 0.0);
  pm.forward(std::vector<double>{5.0}, y);
  EXPECT_NEAR(y[0], 5.0, 0.05);
  // Inputs beyond the scale clamp — the hardware range is hard.
  pm.forward(std::vector<double>{25.0}, y);
  EXPECT_NEAR(y[0], 10.0, 0.1);
}

TEST(ProgrammedMatrix, RejectsBadShapes) {
  EngineConfig cfg;
  Rng rng(1);
  const std::vector<double> w(6, 0.1);
  const std::vector<double> b(3, 0.0);
  EXPECT_THROW(ProgrammedMatrix(cfg, w, b, 3, 3, rng), Error);
  const ProgrammedMatrix pm(cfg, w, b, 2, 3, rng);
  std::vector<double> y(2, 0.0);
  EXPECT_THROW(pm.forward(std::vector<double>{1.0, 2.0}, y), Error);
  EXPECT_THROW(ProgrammedMatrix(cfg, w, b, 2, 2, rng), Error);
}

TEST(ProgrammedMatrix, AlphaSetterValidates) {
  EngineConfig cfg;
  Rng rng(1);
  const std::vector<double> w(4, 0.1);
  const std::vector<double> b(2, 0.0);
  ProgrammedMatrix pm(cfg, w, b, 2, 2, rng);
  EXPECT_THROW(pm.set_time_scale(0.0), Error);
  EXPECT_THROW(pm.set_time_scale(1.5), Error);
  EXPECT_THROW(pm.set_input_scale(-1.0), Error);
  EXPECT_NO_THROW(pm.set_time_scale(0.5));
}

TEST(ProgrammedMatrix, WireIrDropIsTinyAtPaperGeometry) {
  EngineConfig plain;
  EngineConfig wired;
  wired.model_wire_ir_drop = true;
  const auto s_plain = eval::mvm_fidelity(plain);
  const auto s_wired = eval::mvm_fidelity(wired);
  // 2.5 ohm per segment against >= 50 k cells barely registers.
  EXPECT_NEAR(s_wired.rmse, s_plain.rmse, 0.01);
}

TEST(ProgrammedMatrix, RetentionDriftAddsGainError) {
  EngineConfig fresh;
  EngineConfig aged;
  aged.device.drift_nu = 0.02;
  aged.retention_time = 365.0 * 24 * 3600;
  const auto s_fresh = eval::mvm_fidelity(fresh);
  const auto s_aged = eval::mvm_fidelity(aged);
  EXPECT_GT(s_aged.rmse, s_fresh.rmse);
}

TEST(ProgrammedMatrix, ComparatorMismatchDegradesFidelity) {
  EngineConfig clean;
  EngineConfig offset;
  offset.circuit.comparator_offset_sigma = 10e-3;  // 10 mV sigma
  const auto s_clean = eval::mvm_fidelity(clean);
  const auto s_offset = eval::mvm_fidelity(offset);
  EXPECT_GT(s_offset.rmse, s_clean.rmse);
}

TEST(ProgrammedMatrix, StuckAtFaultsDegradeFidelity) {
  EngineConfig clean;
  EngineConfig faulty;
  faulty.device.stuck_lrs_rate = 0.02;
  faulty.device.stuck_hrs_rate = 0.02;
  const auto s_clean = eval::mvm_fidelity(clean);
  const auto s_faulty = eval::mvm_fidelity(faulty);
  EXPECT_GT(s_faulty.rmse, s_clean.rmse);
}

class MlpThroughHardware : public ::testing::Test {
 protected:
  MlpThroughHardware() : rng_(5) {
    model_.emplace<nn::Flatten>();
    model_.emplace<nn::Dense>(16, 12, rng_);
    model_.emplace<nn::ReLU>();
    model_.emplace<nn::Dense>(12, 4, rng_);
    calib_ = nn::Tensor({8, 1, 4, 4});
    for (std::size_t i = 0; i < calib_.size(); ++i) {
      calib_[i] = rng_.uniform(0.0, 1.0);
    }
  }

  Rng rng_;
  nn::Sequential model_{"tiny-mlp"};
  nn::Tensor calib_;
};

TEST_F(MlpThroughHardware, IdealEngineMatchesSoftware) {
  const ResipeNetwork hw(model_, EngineConfig::ideal(), calib_);
  const nn::Tensor ref = model_.forward(calib_, false);
  const nn::Tensor out = hw.forward(calib_);
  ASSERT_TRUE(ref.same_shape(out));
  const double scale = std::max(ref.abs_max(), 1e-9);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(out[i], ref[i], 0.01 * scale) << "logit " << i;
  }
}

TEST_F(MlpThroughHardware, ExactEngineStaysClose) {
  const ResipeNetwork hw(model_, EngineConfig{}, calib_);
  const nn::Tensor ref = model_.forward(calib_, false);
  const nn::Tensor out = hw.forward(calib_);
  const double scale = std::max(ref.abs_max(), 1e-9);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(out[i], ref[i], 0.12 * scale) << "logit " << i;
  }
}

TEST_F(MlpThroughHardware, TileAccounting) {
  const ResipeNetwork hw(model_, EngineConfig{}, calib_);
  EXPECT_EQ(hw.programmed_layers(), 2u);
  // 16x12 diff -> 24 phys cols -> 1 block; 12x4 -> 8 cols -> 1 block.
  EXPECT_EQ(hw.tile_count(), 2u);
  EXPECT_EQ(hw.mvms_per_image(), 2u);
}

// A conv step runs its tiles once per output position.  CNN-1 at the
// default 32x32 tiles: conv 1->6 (1 tile x 28*28) + conv 6->16
// (5 tiles x 10*10) + dense 104 + 24 + 3 tiles = 1415 per image.
TEST(ResipeNetworkConv, MvmsPerImageCountsEveryConvPosition) {
  Rng rng(17);
  nn::Sequential model = nn::build_benchmark(nn::BenchmarkNet::kCnn1, rng);
  nn::Tensor calib({2, 1, 28, 28});
  for (std::size_t i = 0; i < calib.size(); ++i)
    calib[i] = rng.uniform(0.0, 1.0);
  const ResipeNetwork net(model, EngineConfig{}, calib);
  EXPECT_EQ(net.tile_count(), 137u);
  EXPECT_EQ(net.mvms_per_image(), 1415u);
}

TEST(ResipeNetworkConv, IdealEngineMatchesSoftwareConv) {
  Rng rng(6);
  nn::Sequential model("tiny-cnn");
  model.emplace<nn::Conv2d>(1, 3, 3, 1, 1, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::MaxPool2d>(2);
  model.emplace<nn::Flatten>();
  model.emplace<nn::Dense>(3 * 3 * 3, 4, rng);

  nn::Tensor calib({4, 1, 6, 6});
  for (std::size_t i = 0; i < calib.size(); ++i)
    calib[i] = rng.uniform(0.0, 1.0);

  const ResipeNetwork hw(model, EngineConfig::ideal(), calib);
  const nn::Tensor ref = model.forward(calib, false);
  const nn::Tensor out = hw.forward(calib);
  ASSERT_TRUE(ref.same_shape(out));
  const double scale = std::max(ref.abs_max(), 1e-9);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(out[i], ref[i], 0.02 * scale) << "logit " << i;
  }
}

// --- one forward path: input validation and step-loop identities ------

constexpr double kNonFinite[] = {std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity()};

bool bit_identical(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool bit_identical(const nn::Tensor& a, const nn::Tensor& b) {
  return a.same_shape(b) && bit_identical(a.data(), b.data());
}

struct ThreadGuard {
  ~ThreadGuard() { set_default_threads(0); }
};

ProgrammedMatrix small_matrix(bool events) {
  EngineConfig cfg;
  cfg.events.enabled = events;
  Rng rng(12);
  std::vector<double> w(6 * 4);
  for (double& v : w) v = rng.uniform(-0.5, 0.5);
  const std::vector<double> b(4, 0.0);
  return ProgrammedMatrix(cfg, w, b, 6, 4, rng);
}

// NaN would pass std::clamp into the codec and read as "no spike", and
// +-inf would clamp to full scale: both are rejected at entry.
TEST(ProgrammedMatrix, ForwardRejectsNonFiniteInput) {
  for (const bool events : {false, true}) {
    const ProgrammedMatrix pm = small_matrix(events);
    for (const double bad : kNonFinite) {
      std::vector<double> x(6, 0.5);
      x[3] = bad;
      std::vector<double> y(4, 0.0);
      EXPECT_THROW(pm.forward(x, y), Error) << bad << " events " << events;
    }
  }
}

TEST(ProgrammedMatrix, ForwardBatchRejectsNonFiniteInput) {
  for (const bool events : {false, true}) {
    const ProgrammedMatrix pm = small_matrix(events);
    ProgrammedMatrix::BatchWorkspace ws;
    for (const double bad : kNonFinite) {
      std::vector<double> x(3 * 6, 0.5);
      x[2 * 6 + 1] = bad;  // only the last vector is bad
      std::vector<double> y(3 * 4, 0.0);
      EXPECT_THROW(pm.forward_batch(x, 3, y, ws), Error)
          << bad << " events " << events;
    }
  }
}

TEST(ProgrammedMatrix, ForwardProbedRejectsNonFiniteInput) {
  const ProgrammedMatrix pm = small_matrix(false);
  for (const double bad : kNonFinite) {
    std::vector<double> x(6, 0.5);
    x[0] = bad;
    std::vector<double> y(4, 0.0);
    ProgrammedMatrix::ProbeStats stats;
    EXPECT_THROW(pm.forward_probed(x, y, stats), Error) << bad;
  }
}

TEST(ProgrammedMatrix, CalibrationRejectsNonFiniteInput) {
  ProgrammedMatrix pm = small_matrix(false);
  for (const double bad : kNonFinite) {
    std::vector<double> x(2 * 6, 0.5);
    x[6 + 5] = bad;
    std::vector<double> y(4, 0.0);
    EXPECT_THROW(pm.forward_analytic(std::span<const double>(x).last(6), y),
                 Error)
        << bad;
    EXPECT_THROW(pm.calibrate_alpha(x, 2), Error) << bad;
  }
}

// The rejection must surface on the calling thread when it is thrown
// inside a parallel_for worker (conv steps) or a chunked worker (dense
// steps), at any thread count.
TEST(ResipeNetwork, ForwardRejectsNonFiniteInputAtAnyThreadCount) {
  ThreadGuard restore;
  Rng rng(6);
  nn::Sequential model("nonfinite-cnn");
  model.emplace<nn::Conv2d>(1, 3, 3, 1, 1, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::Flatten>();
  model.emplace<nn::Dense>(3 * 6 * 6, 4, rng);
  nn::Tensor calib({4, 1, 6, 6});
  for (std::size_t i = 0; i < calib.size(); ++i)
    calib[i] = rng.uniform(0.0, 1.0);
  const ResipeNetwork hw(model, EngineConfig{}, calib);
  for (const std::size_t threads : {1, 2, 8}) {
    set_default_threads(threads);
    for (const double bad : kNonFinite) {
      nn::Tensor batch = calib;
      batch[3 * 36 + 17] = bad;  // one pixel of the last image
      EXPECT_THROW(hw.forward(batch), Error)
          << bad << " threads " << threads;
    }
  }
}

/// Records the step indices forward_observed reports.
class StepRecorder : public LayerObserver {
 public:
  std::vector<std::size_t> indices;
  void on_step(std::size_t index, nn::Layer&, const ProgrammedMatrix*, bool,
               const nn::Tensor&, const nn::Tensor&) override {
    indices.push_back(index);
  }
};

// forward, forward_observed and forward_hybrid share one step loop: the
// observer changes nothing, an empty or all-false mask is the analog
// forward, and an all-true mask is the software model.
void expect_step_loop_identities(nn::BenchmarkNet which) {
  ThreadGuard restore;
  Rng rng(17);
  nn::Sequential model = nn::build_benchmark(which, rng);
  nn::Tensor calib({4, 1, 28, 28});
  for (std::size_t i = 0; i < calib.size(); ++i)
    calib[i] = rng.uniform(0.0, 1.0);
  const ResipeNetwork net(model, EngineConfig{}, calib);
  nn::Tensor batch({3, 1, 28, 28});
  for (std::size_t i = 0; i < batch.size(); ++i)
    batch[i] = (i % 3 == 0) ? rng.uniform(0.0, 1.0) : 0.0;

  const std::size_t steps = net.step_count();
  std::vector<std::size_t> in_order(steps);
  std::iota(in_order.begin(), in_order.end(), std::size_t{0});
  set_default_threads(1);
  const nn::Tensor analog = net.forward(batch);
  const nn::Tensor digital = net.model().forward(batch, false);
  for (const std::size_t threads : {1, 2, 8}) {
    set_default_threads(threads);
    StepRecorder rec;
    EXPECT_TRUE(bit_identical(net.forward_observed(batch, rec), analog))
        << "threads " << threads;
    EXPECT_EQ(rec.indices, in_order) << "threads " << threads;
    EXPECT_TRUE(bit_identical(net.forward_hybrid(batch, {}), analog))
        << "threads " << threads;
    EXPECT_TRUE(bit_identical(
        net.forward_hybrid(batch, std::vector<bool>(steps, false)), analog))
        << "threads " << threads;
    EXPECT_TRUE(bit_identical(
        net.forward_hybrid(batch, std::vector<bool>(steps, true)), digital))
        << "threads " << threads;
  }
}

TEST(ResipeNetworkStepLoop, ZooMlpEntryPointsAgree) {
  expect_step_loop_identities(nn::BenchmarkNet::kMlp1);
}

TEST(ResipeNetworkStepLoop, ZooCnnEntryPointsAgree) {
  expect_step_loop_identities(nn::BenchmarkNet::kCnn1);
}

// --- conv hot path: bit-identity with the per-patch route --------------

/// gather_conv_patch through a checked Tensor::at per tap.
std::vector<double> patch_by_at(const nn::Tensor& x, std::size_t img,
                                std::size_t cin, std::size_t k,
                                std::size_t stride, std::size_t pad,
                                std::size_t r, std::size_t c) {
  std::vector<double> patch;
  for (std::size_t ic = 0; ic < cin; ++ic) {
    for (std::size_t kr = 0; kr < k; ++kr) {
      for (std::size_t kc = 0; kc < k; ++kc) {
        const std::size_t ir = r * stride + kr;
        const std::size_t icol = c * stride + kc;
        const bool inside = ir >= pad && ir - pad < x.dim(2) && icol >= pad &&
                            icol - pad < x.dim(3);
        patch.push_back(inside ? x.at(img, ic, ir - pad, icol - pad) : 0.0);
      }
    }
  }
  return patch;
}

TEST(GatherConvPatch, MatchesCheckedTensorAt) {
  Rng rng(21);
  nn::Tensor x({2, 3, 7, 6});
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = rng.uniform(-1.0, 1.0);
  x[5] = -0.0;  // signed zeros must survive the gather
  for (const std::size_t stride : {1, 2}) {
    for (const std::size_t pad : {0, 1}) {
      for (const std::size_t cin : {2, 3}) {
        constexpr std::size_t k = 3;
        const std::size_t oh = (7 + 2 * pad - k) / stride + 1;
        const std::size_t ow = (6 + 2 * pad - k) / stride + 1;
        std::vector<double> patch(cin * k * k, 99.0);
        for (std::size_t img = 0; img < 2; ++img) {
          for (std::size_t r = 0; r < oh; ++r) {
            for (std::size_t c = 0; c < ow; ++c) {
              gather_conv_patch(x, img, cin, k, stride, pad, r, c, patch);
              EXPECT_TRUE(bit_identical(
                  patch, patch_by_at(x, img, cin, k, stride, pad, r, c)))
                  << "stride " << stride << " pad " << pad << " cin " << cin
                  << " img " << img << " at " << r << "," << c;
            }
          }
        }
      }
    }
  }
  std::vector<double> short_patch(3 * 9 - 1);
  EXPECT_THROW(gather_conv_patch(x, 0, 3, 3, 1, 0, 0, 0, short_patch), Error);
  std::vector<double> patch(4 * 9);
  EXPECT_THROW(gather_conv_patch(x, 0, 4, 3, 1, 0, 0, 0, patch), Error);
  EXPECT_THROW(gather_conv_patch(x, 2, 1, 3, 1, 0, 0, 0,
                                 std::span<double>(patch).first(9)),
               Error);
}

/// A conv step on the per-patch route: each output position's patch
/// gathered from the activations, encoded inside forward_batch one
/// output row per call, and scattered through Tensor::at.
nn::Tensor per_patch_conv(const ProgrammedMatrix& pm, const nn::Conv2d& conv,
                          const nn::Tensor& x) {
  const std::size_t n = x.dim(0);
  const std::size_t oh = conv.out_size(x.dim(2));
  const std::size_t ow = conv.out_size(x.dim(3));
  const std::size_t in = pm.in_features();
  const std::size_t cout = conv.out_channels();
  nn::Tensor y({n, cout, oh, ow});
  ProgrammedMatrix::BatchWorkspace ws;
  std::vector<double> patches(ow * in);
  std::vector<double> out_row(ow * cout);
  for (std::size_t img = 0; img < n; ++img) {
    for (std::size_t r = 0; r < oh; ++r) {
      for (std::size_t c = 0; c < ow; ++c) {
        gather_conv_patch(x, img, conv.in_channels(), conv.kernel(),
                          conv.stride(), conv.pad(), r, c,
                          std::span<double>(patches.data() + c * in, in));
      }
      pm.forward_batch(patches, ow, out_row, ws);
      for (std::size_t c = 0; c < ow; ++c) {
        for (std::size_t oc = 0; oc < cout; ++oc) {
          y.at(img, oc, r, c) = out_row[c * cout + oc];
        }
      }
    }
  }
  return y;
}

/// Records each step's programmed matrix (null for functional steps).
class MatrixRecorder : public LayerObserver {
 public:
  std::vector<const ProgrammedMatrix*> matrices;
  void on_step(std::size_t, nn::Layer&, const ProgrammedMatrix* matrix, bool,
               const nn::Tensor&, const nn::Tensor&) override {
    matrices.push_back(matrix);
  }
};

/// ResipeNetwork::forward rebuilt on the per-patch route, serially:
/// functional steps through their layer, dense steps as one
/// forward_batch, conv steps through per_patch_conv.
nn::Tensor per_patch_forward(const ResipeNetwork& net,
                             const nn::Tensor& batch) {
  MatrixRecorder rec;
  net.forward_observed(batch, rec);
  nn::Tensor h = batch;
  for (std::size_t i = 0; i < net.step_count(); ++i) {
    nn::Layer& layer = net.model().layer(i);
    const ProgrammedMatrix* pm = rec.matrices[i];
    if (pm == nullptr) {
      h = layer.forward(h, /*train=*/false);
    } else if (const auto* conv = dynamic_cast<const nn::Conv2d*>(&layer)) {
      h = per_patch_conv(*pm, *conv, h);
    } else {
      nn::Tensor y({h.dim(0), pm->out_features()});
      ProgrammedMatrix::BatchWorkspace ws;
      pm->forward_batch(h.data(), h.dim(0), y.data(), ws);
      h = std::move(y);
    }
  }
  return h;
}

/// Uniform activations with every third entry a silent zero.
nn::Tensor sparse_batch(std::vector<std::size_t> shape, Rng& rng) {
  nn::Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = (i % 3 == 0) ? 0.0 : rng.uniform(0.0, 1.0);
  }
  return t;
}

void expect_matches_per_patch_route(const ResipeNetwork& net,
                                    const nn::Tensor& batch) {
  ThreadGuard restore;
  set_default_threads(1);
  const nn::Tensor ref = per_patch_forward(net, batch);
  for (const std::size_t threads : {1, 2, 8}) {
    set_default_threads(threads);
    EXPECT_TRUE(bit_identical(net.forward(batch), ref))
        << "threads " << threads;
  }
}

void expect_zoo_conv_identity(nn::BenchmarkNet which, std::size_t side,
                              std::size_t channels) {
  Rng rng(31);
  nn::Sequential model = nn::build_benchmark(which, rng);
  const nn::Tensor calib = sparse_batch({4, channels, side, side}, rng);
  const ResipeNetwork net(model, EngineConfig{}, calib);
  expect_matches_per_patch_route(net,
                                 sparse_batch({3, channels, side, side}, rng));
}

TEST(ConvHotPath, Cnn1MatchesPerPatchRouteAtAnyThreadCount) {
  expect_zoo_conv_identity(nn::BenchmarkNet::kCnn1, 28, 1);
}

TEST(ConvHotPath, Cnn2MatchesPerPatchRouteAtAnyThreadCount) {
  expect_zoo_conv_identity(nn::BenchmarkNet::kCnn2, 32, 3);
}

/// A stride-2 pad-0 conv on a 10x10 input (the last row and column are
/// never read) into a 3x3 pad-1 conv, on 8x4 tiles: three row blocks
/// of several column blocks each, so every wordline stage is shared.
nn::Sequential small_conv_net(Rng& rng) {
  nn::Sequential model("stride2-cnn");
  model.emplace<nn::Conv2d>(2, 5, 3, 2, 0, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::Conv2d>(5, 3, 3, 1, 1, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::Flatten>();
  model.emplace<nn::Dense>(3 * 4 * 4, 4, rng);
  return model;
}

EngineConfig small_tiles(EngineConfig cfg) {
  cfg.tile_rows = 8;
  cfg.tile_cols = 4;
  return cfg;
}

void expect_small_conv_identity(const EngineConfig& cfg) {
  Rng rng(41);
  nn::Sequential model = small_conv_net(rng);
  const nn::Tensor calib = sparse_batch({4, 2, 10, 10}, rng);
  const ResipeNetwork net(model, cfg, calib);
  if (cfg.reliability.enabled) {
    ASSERT_GT(net.reliability_stats().columns_remapped, 0u);
  }
  expect_matches_per_patch_route(net, sparse_batch({3, 2, 10, 10}, rng));
}

TEST(ConvHotPath, StrideTwoPadZeroMatchesPerPatchRoute) {
  expect_small_conv_identity(small_tiles(EngineConfig{}));
}

TEST(ConvHotPath, EventDrivenMatchesPerPatchRoute) {
  EngineConfig cfg = small_tiles(EngineConfig{});
  cfg.events.enabled = true;
  expect_small_conv_identity(cfg);
}

TEST(ConvHotPath, RemappedColumnsMatchPerPatchRoute) {
  EngineConfig cfg = small_tiles(EngineConfig{});
  cfg.reliability.enabled = true;
  cfg.reliability.faults.stuck_lrs_rate = 0.05;
  cfg.reliability.faults.stuck_hrs_rate = 0.05;
  cfg.reliability.fault_seed = 2;
  expect_small_conv_identity(cfg);
}

TEST(ConvHotPath, ComparatorOffsetsMatchPerPatchRoute) {
  EngineConfig cfg = small_tiles(EngineConfig{});
  cfg.circuit.comparator_offset_sigma = 1e-3;
  expect_small_conv_identity(cfg);
}

TEST(ConvHotPath, LinearModelMatchesPerPatchRoute) {
  expect_small_conv_identity(small_tiles(EngineConfig::ideal()));
}

TEST(ConvHotPath, ScalarKernelsMatchPerPatchRoute) {
  const simd::ForceScalarGuard scalar;
  expect_small_conv_identity(small_tiles(EngineConfig{}));
  expect_zoo_conv_identity(nn::BenchmarkNet::kCnn1, 28, 1);
}

// --- the lane-wise column recovery against the scalar readout ----------

/// ProgrammedMatrix::forward rebuilt from public parts, one column at a
/// time: the constructor's programming loop (same cell model, same rng
/// order), the codec, FastMvm::mvm_times per tile, then the scalar
/// readout `ramp_voltage(t) * g_total / k` per column, row blocks added
/// in order, and the decode.  Valid for configs without faults,
/// comparator offsets, drift or wire resistance.
std::vector<double> scalar_readout_forward(const EngineConfig& cfg,
                                           std::span<const double> w,
                                           std::span<const double> bias,
                                           std::size_t in, std::size_t out,
                                           std::uint64_t seed,
                                           std::span<const double> x) {
  const crossbar::MappedWeights mapping =
      crossbar::map_weights(w, in, out, cfg.device, cfg.mapping);
  std::vector<double> scaled(in);
  for (std::size_t i = 0; i < in; ++i) scaled[i] = std::clamp(x[i], 0.0, 1.0);
  std::vector<double> t_in(in);
  const SpikeCodec codec(cfg.circuit, cfg.quantize_spikes);
  codec.encode_times(scaled, t_in);

  Rng rng(seed);
  std::vector<double> recovered(mapping.cols, 0.0);
  for (std::size_t row0 = 0; row0 < in; row0 += cfg.tile_rows) {
    const std::size_t rows = std::min(cfg.tile_rows, in - row0);
    for (std::size_t col0 = 0; col0 < mapping.cols; col0 += cfg.tile_cols) {
      const std::size_t cols = std::min(cfg.tile_cols, mapping.cols - col0);
      std::vector<double> g(rows * cols);
      device::ReramCell cell;
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
          cell.program(cfg.device,
                       mapping.g_targets[(row0 + r) * mapping.cols + col0 + c],
                       rng);
          g[r * cols + c] = cell.effective_g(cfg.device);
        }
      }
      const FastMvm tile(cfg.circuit, rows, cols, g);
      std::vector<double> t_out(cols);
      tile.mvm_times(std::span<const double>(t_in).subspan(row0, rows), t_out);
      for (std::size_t c = 0; c < cols; ++c) {
        double t = t_out[c];
        if (t == FastMvm::kNoSpike) t = cfg.circuit.slice_length;
        const double v_cog = cfg.circuit.ramp_voltage(t);
        if (tile.k(c) > 0.0) {
          recovered[col0 + c] += v_cog * tile.g_total(c) / tile.k(c);
        }
      }
    }
  }
  const double scale = mapping.weight_per_siemens / codec.v_full();
  std::vector<double> y(out);
  for (std::size_t j = 0; j < out; ++j) {
    const double diff =
        recovered[mapping.plus_col(j)] - recovered[mapping.minus_col(j)];
    y[j] = diff * scale + bias[j];
  }
  return y;
}

// 70 x 20 on the default 32 x 32 tiles: 3 row blocks of 2 tiles, so the
// shared wordline stage and the row-block partial sums are exercised.
TEST(ProgrammedMatrix, RecoveryMatchesScalarReadoutBitwise) {
  constexpr std::size_t kIn = 70, kOut = 20;
  constexpr std::uint64_t kSeed = 9;
  Rng data(4);
  std::vector<double> w(kIn * kOut);
  for (double& v : w) v = data.uniform(-0.5, 0.5);
  std::vector<double> b(kOut);
  for (double& v : b) v = data.uniform(-0.1, 0.1);
  std::vector<double> x(kIn);
  for (std::size_t i = 0; i < kIn; ++i) {
    x[i] = (i % 4 == 0) ? 0.0 : data.uniform(0.0, 1.2);  // some clamp
  }
  for (const bool scalar : {false, true}) {
    std::optional<simd::ForceScalarGuard> force;
    if (scalar) force.emplace();
    for (const EngineConfig& cfg : {EngineConfig{}, EngineConfig::ideal()}) {
      Rng rng(kSeed);
      const ProgrammedMatrix pm(cfg, w, b, kIn, kOut, rng);
      std::vector<double> y(kOut);
      pm.forward(x, y);
      EXPECT_TRUE(bit_identical(
          y, scalar_readout_forward(cfg, w, b, kIn, kOut, kSeed, x)))
          << "linear " << (cfg.circuit.model == circuits::TransferModel::kLinear)
          << " scalar " << scalar;
    }
  }
}

}  // namespace
}  // namespace resipe::resipe_core
