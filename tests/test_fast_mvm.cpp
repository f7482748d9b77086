#include "resipe/resipe/fast_mvm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <thread>
#include <utility>

#include "resipe/common/error.hpp"
#include "resipe/resipe/spike_code.hpp"
#include "resipe/resipe/tile.hpp"
#include "testing/approx.hpp"

namespace resipe::resipe_core {
namespace {

using circuits::CircuitParams;
using circuits::Spike;
using circuits::TransferModel;

device::ReramSpec clean_spec() {
  device::ReramSpec spec = device::ReramSpec::nn_mapping();
  spec.write_verify_tolerance = 0.0;
  spec.variation_sigma = 0.0;
  return spec;
}

TEST(FastMvm, MatchesHandComputedSingleColumn) {
  const CircuitParams p;
  // Two rows, G = 20 uS and 5 uS.
  FastMvm mvm(p, 2, 1, {20e-6, 5e-6});
  RESIPE_EXPECT_ULP(mvm.g_total(0), 25e-6, 1);
  const double tau_cog = p.c_cog / 25e-6;
  RESIPE_EXPECT_REL(mvm.k(0), 1.0 - std::exp(-p.comp_stage / tau_cog), 1e-12);

  const std::vector<double> t_in{30e-9, 60e-9};
  std::vector<double> t_out(1, 0.0);
  mvm.mvm_times(t_in, t_out);

  const double v1 = 1.0 - std::exp(-30e-9 / p.tau_gd());
  const double v2 = 1.0 - std::exp(-60e-9 / p.tau_gd());
  const double veq = (v1 * 20e-6 + v2 * 5e-6) / 25e-6;
  const double vout = veq * mvm.k(0);
  const double expect = -p.tau_gd() * std::log(1.0 - vout);
  RESIPE_EXPECT_REL(t_out[0], expect, 1e-12);
}

TEST(FastMvm, AgreesWithFaithfulTileModel) {
  const CircuitParams p;
  const device::ReramSpec spec = clean_spec();
  ResipeTile tile(p, 16, 8, spec);
  Rng rng(21);
  std::vector<double> g(16 * 8);
  for (double& v : g) v = rng.uniform(spec.g_min(), spec.g_max());
  tile.program(g, rng);

  const FastMvm fast(p, tile.crossbar());
  const SpikeCodec codec(p);

  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Spike> spikes(16);
    std::vector<double> t_in(16);
    for (std::size_t i = 0; i < 16; ++i) {
      spikes[i] = codec.encode(rng.uniform(0.0, 1.0));
      t_in[i] = spikes[i].arrival_time;
    }
    const auto tile_out = tile.execute(spikes);
    std::vector<double> fast_out(8, 0.0);
    fast.mvm_times(t_in, fast_out);
    for (std::size_t c = 0; c < 8; ++c) {
      if (tile_out[c].valid()) {
        RESIPE_EXPECT_REL(fast_out[c], tile_out[c].arrival_time, 1e-12)
            << "trial " << trial << " col " << c;
      } else {
        EXPECT_EQ(fast_out[c], FastMvm::kNoSpike);
      }
    }
  }
}

TEST(FastMvm, SilentInputContributesNothing) {
  const CircuitParams p;
  FastMvm mvm(p, 2, 1, {20e-6, 20e-6});
  std::vector<double> t_out_a(1), t_out_b(1);
  // One line silent vs one line at t=0: t=0 means V=0, identical to
  // silent electrically.
  mvm.mvm_times(std::vector<double>{50e-9, FastMvm::kNoSpike}, t_out_a);
  mvm.mvm_times(std::vector<double>{50e-9, 0.0}, t_out_b);
  // t = 0 and "silent" both decode to exactly 0 V, so the two MVMs run
  // on bit-identical wordline vectors.
  RESIPE_EXPECT_ULP(t_out_a[0], t_out_b[0], 0);
}

TEST(FastMvm, ZeroColumnFiresImmediately) {
  const CircuitParams p;
  FastMvm mvm(p, 2, 1, {0.0, 0.0});
  std::vector<double> t_out(1);
  mvm.mvm_times(std::vector<double>{50e-9, 50e-9}, t_out);
  EXPECT_DOUBLE_EQ(t_out[0], p.comparator_delay);
}

TEST(FastMvm, LinearModeMatchesEq6ForSmallConductance) {
  CircuitParams p = CircuitParams::linear_regime();
  p.model = TransferModel::kLinear;
  // Tiny conductance keeps the linear k = dt*G/Ccog small.
  const double g = 1e-6;
  FastMvm mvm(p, 1, 1, {g});
  const std::vector<double> t_in{50e-9};
  std::vector<double> t_out(1);
  mvm.mvm_times(t_in, t_out);
  RESIPE_EXPECT_REL(t_out[0], p.linear_gain() * 50e-9 * g, 1e-12);
}

TEST(FastMvm, SharedRampCancellationAtSaturation) {
  // Single input, heavy conductance: k -> 1, so the exact model returns
  // t_out == t_in — the Sec. III-D cancellation.
  const CircuitParams p;
  FastMvm mvm(p, 1, 1, {3.2e-3});
  for (double t : {10e-9, 40e-9, 80e-9}) {
    std::vector<double> t_out(1);
    mvm.mvm_times(std::vector<double>{t}, t_out);
    // k = 1 - exp(-32) leaves a ~1e-14 relative residue in v_out, so
    // the cancellation is approximate, not bit-exact.
    RESIPE_EXPECT_REL(t_out[0], t, 1e-9) << "t=" << t;
  }
}

TEST(FastMvm, OutputsBeyondSliceAreSilent) {
  // Force a crossing beyond the slice: a comparator offset above the
  // reachable ramp within the slice cannot fire.
  CircuitParams p = CircuitParams::linear_regime();  // tau = 1 us
  // ramp reaches 0.1 Vs at slice end; an output needing more is silent.
  FastMvm mvm(p, 1, 1, {3.2e-3});  // k ~ 1 -> Vout ~ Vin
  std::vector<double> t_out(1);
  // Input at full window -> Vin ~ 0.099 Vs -> crossing just inside.
  mvm.mvm_times(std::vector<double>{99e-9}, t_out);
  EXPECT_NE(t_out[0], FastMvm::kNoSpike);
  // With comparator offset pushing the threshold past slice reach:
  p.comparator_offset = 0.05;
  FastMvm mvm2(p, 1, 1, {3.2e-3});
  mvm2.mvm_times(std::vector<double>{99e-9}, t_out);
  EXPECT_EQ(t_out[0], FastMvm::kNoSpike);
}

TEST(FastMvm, RejectsSizeMismatch) {
  const CircuitParams p;
  FastMvm mvm(p, 2, 1, {1e-6, 1e-6});
  std::vector<double> t_out(1);
  EXPECT_THROW(mvm.mvm_times(std::vector<double>{1e-9}, t_out), Error);
  EXPECT_THROW(FastMvm(p, 2, 2, {1e-6}), Error);
}

TEST(FastMvm, MonotoneInInputTime) {
  const CircuitParams p;
  FastMvm mvm(p, 4, 1, {5e-6, 5e-6, 5e-6, 5e-6});
  double prev = -1.0;
  for (double t = 0.0; t <= 90e-9; t += 5e-9) {
    std::vector<double> t_out(1);
    mvm.mvm_times(std::vector<double>{t, 20e-9, 40e-9, 60e-9}, t_out);
    ASSERT_NE(t_out[0], FastMvm::kNoSpike);
    EXPECT_GE(t_out[0], prev);
    prev = t_out[0];
  }
}

// mvm_times_batch is wordline_stage + column_stage, and tiles of one
// row range can share one wordline stage: 13 rows (not a multiple of
// any vector width) across tiles of 5 and 11 columns, with silent,
// out-of-slice and boundary input times, on both kernel paths.
TEST(FastMvm, SharedWordlineStageMatchesBatch) {
  const CircuitParams p = CircuitParams::nn_calibrated();
  constexpr std::size_t kRows = 13, kN = 6;
  Rng rng(77);
  std::vector<FastMvm> tiles;
  for (const std::size_t cols : {5, 11}) {
    std::vector<double> g(kRows * cols);
    for (double& v : g) v = rng.uniform(1e-6, 40e-6);
    tiles.emplace_back(p, kRows, cols, g);
  }
  std::vector<double> offsets(11);
  for (double& o : offsets) o = rng.normal(0.0, 1e-3);
  tiles[1].set_column_offsets(offsets);

  std::vector<double> t_in(kN * kRows);
  for (double& t : t_in) t = rng.uniform(0.0, p.slice_length);
  t_in[1] = FastMvm::kNoSpike;
  t_in[kRows + 2] = 2.0 * p.slice_length;
  t_in[2 * kRows + 3] = p.slice_length;
  t_in[3 * kRows] = 0.0;

  for (const bool scalar : {false, true}) {
    std::optional<simd::ForceScalarGuard> force;
    if (scalar) force.emplace();
    FastMvm::BatchScratch shared;
    tiles[0].wordline_stage(t_in, kN, shared);
    const FastMvm::aligned_vector staged = shared.v_wl;
    for (const FastMvm& tile : tiles) {
      std::vector<double> split(kN * tile.cols());
      tile.column_stage(kN, split, shared);
      EXPECT_TRUE(shared.v_wl == staged) << "column stage moved the S1 result";

      std::vector<double> batch(kN * tile.cols());
      FastMvm::BatchScratch own;
      tile.mvm_times_batch(t_in, kN, batch, own);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(std::memcmp(&split[i], &batch[i], sizeof(double)), 0)
            << "cols " << tile.cols() << " entry " << i << " scalar "
            << scalar;
      }
    }
    std::vector<double> wrong(kN * 5);
    EXPECT_THROW(tiles[0].column_stage(kN - 1, wrong, shared), Error);
  }
}

// mvm_times runs on one thread-local scratch that every shape on the
// thread reuses.  Interleave tiles whose padded sizes shrink and grow
// between calls (1x1, 3x5, 63x65, with a silent and an out-of-slice
// input and comparator offsets); each result must bitwise equal the one
// a fresh thread, with a fresh scratch, computes for that shape.
TEST(FastMvm, ReusedScratchAcrossShapesIsBitExact) {
  const CircuitParams p = CircuitParams::nn_calibrated();
  Rng rng(91);
  struct Case {
    std::optional<FastMvm> mvm;
    std::vector<double> t_in;
    std::vector<double> fresh;
  };
  std::vector<Case> cases;
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 1}, {3, 5}, {63, 65}};
  for (const auto& [rows, cols] : shapes) {
    std::vector<double> g(rows * cols);
    for (double& v : g) v = rng.uniform(1e-6, 40e-6);
    Case c;
    c.mvm.emplace(p, rows, cols, g);
    std::vector<double> offsets(cols);
    for (double& o : offsets) o = rng.normal(0.0, 1e-3);
    c.mvm->set_column_offsets(offsets);
    c.t_in.resize(rows);
    for (double& t : c.t_in) t = rng.uniform(0.0, p.slice_length);
    if (rows > 1) {
      c.t_in[0] = FastMvm::kNoSpike;
      c.t_in[rows - 1] = 2.0 * p.slice_length;
    }
    c.fresh.resize(cols);
    cases.push_back(std::move(c));
  }

  for (const bool scalar : {false, true}) {
    std::optional<simd::ForceScalarGuard> force;
    if (scalar) force.emplace();
    for (Case& c : cases) {
      std::thread([&c] { c.mvm->mvm_times(c.t_in, c.fresh); }).join();
    }
    for (const std::size_t i : {2, 0, 1, 2, 1, 0, 0, 2}) {
      const Case& c = cases[i];
      std::vector<double> t_out(c.mvm->cols());
      c.mvm->mvm_times(c.t_in, t_out);
      EXPECT_EQ(std::memcmp(t_out.data(), c.fresh.data(),
                            t_out.size() * sizeof(double)),
                0)
          << "shape " << c.mvm->rows() << "x" << c.mvm->cols() << " scalar "
          << scalar;
    }
  }
}

}  // namespace
}  // namespace resipe::resipe_core
