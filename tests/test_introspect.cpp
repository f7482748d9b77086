#include "resipe/introspect/inspect.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "resipe/common/parallel.hpp"
#include "resipe/common/rng.hpp"
#include "resipe/nn/data.hpp"
#include "resipe/nn/zoo.hpp"
#include "resipe/resipe/network.hpp"

namespace resipe::introspect {
namespace {

// Small shared fixture: an untrained MLP-1 lowered onto the engine with
// a modest variation sigma.  Training adds nothing to what these tests
// check and would dominate their runtime.
struct Lowered {
  nn::Sequential model;
  nn::Dataset batch;
  resipe_core::EngineConfig config;

  explicit Lowered(bool enable_introspect) {
    Rng model_rng(0xC0FFEEull);
    model = nn::build_benchmark(nn::BenchmarkNet::kMlp1, model_rng);
    Rng data_rng(7);
    batch = nn::synthetic_digits(16, data_rng);
    config.device.variation_sigma = 0.1;
    config.introspect.enabled = enable_introspect;
    config.introspect.max_probe_vectors = 16;
    config.introspect.max_attribution_vectors = 16;
  }

  resipe_core::ResipeNetwork lower() {
    return resipe_core::ResipeNetwork(model, config, batch.images);
  }
};

std::vector<double> logits_of(const resipe_core::ResipeNetwork& net,
                              const nn::Tensor& x) {
  const nn::Tensor y = net.forward(x);
  return std::vector<double>(y.data().begin(), y.data().end());
}

// The introspect flag must not perturb the forward path: logits with
// the flag on are bit-identical to the flag-off logits, at any worker
// count.
TEST(Introspect, DisabledPathBitIdenticalAcrossThreads) {
  Lowered off(false);
  Lowered on(true);
  const auto net_off = off.lower();
  const auto net_on = on.lower();

  set_default_threads(1);
  const std::vector<double> reference = logits_of(net_off, off.batch.images);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    set_default_threads(threads);
    const std::vector<double> got_off = logits_of(net_off, off.batch.images);
    const std::vector<double> got_on = logits_of(net_on, off.batch.images);
    ASSERT_EQ(got_off.size(), reference.size());
    ASSERT_EQ(got_on.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(got_off[i], reference[i]) << "threads=" << threads;
      EXPECT_EQ(got_on[i], reference[i]) << "threads=" << threads;
    }
  }
  set_default_threads(1);
}

// The three attribution components are differences of adjacent
// effect-toggled arms, so they must reassemble the measured total.
TEST(Introspect, AttributionComponentsSumToTotal) {
  Lowered lo(true);
  const auto net = lo.lower();
  const InspectionReport report =
      inspect(net, lo.batch.images, lo.batch.labels);

  bool any = false;
  for (const LayerReport& lr : report.layers) {
    if (!lr.error.computed) continue;
    any = true;
    EXPECT_GT(lr.error.total, 0.0);
    EXPECT_GT(lr.error.vectors, 0u);
    const double sum =
        lr.error.quantization + lr.error.variation + lr.error.nonlinearity;
    EXPECT_NEAR(sum, lr.error.total,
                0.05 * lr.error.total + 1e-12)
        << "step " << lr.step;
  }
  EXPECT_TRUE(any);
}

TEST(Introspect, EnabledReportCarriesProbesEnergyAndAccuracy) {
  Lowered lo(true);
  const auto net = lo.lower();
  const InspectionReport report =
      inspect(net, lo.batch.images, lo.batch.labels);

  EXPECT_EQ(report.batch_size, 16u);
  EXPECT_GE(report.analog_accuracy, 0.0);
  EXPECT_GE(report.digital_accuracy, 0.0);
  EXPECT_GT(report.total_energy, 0.0);
  bool any_probe = false;
  for (const LayerReport& lr : report.layers) {
    if (!lr.is_matrix) continue;
    EXPECT_TRUE(lr.probed);
    EXPECT_GT(lr.probe.vectors, 0u);
    EXPECT_GT(lr.energy.total, 0.0);
    EXPECT_GE(lr.accuracy_if_digital, 0.0);
    any_probe = true;
  }
  EXPECT_TRUE(any_probe);
  // The JSON document and dashboard render without throwing and carry
  // the provenance stamp.
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"engine_config_hash\""), std::string::npos);
  EXPECT_NE(json.find("\"spike_health\""), std::string::npos);
  EXPECT_NE(report.render_ascii().find("provenance"), std::string::npos);
}

// With introspection off, inspect() runs nothing and returns only the
// provenance manifest plus the layer skeleton.
TEST(Introspect, DisabledInspectReturnsSkeletonOnly) {
  Lowered lo(false);
  const auto net = lo.lower();
  const InspectionReport report =
      inspect(net, lo.batch.images, lo.batch.labels);

  EXPECT_FALSE(report.provenance.engine_config_hash.empty());
  EXPECT_FALSE(report.layers.empty());
  for (const LayerReport& lr : report.layers) {
    EXPECT_FALSE(lr.name.empty());
    EXPECT_FALSE(lr.probed);
    EXPECT_FALSE(lr.error.computed);
  }
  EXPECT_LT(report.analog_accuracy, 0.0);
}

// Saturation taxonomy on hand-built inputs against a tiny matrix.
// With healthy comparators every column fires inside the slice (the
// codec reserves comp_stage of headroom), so silence is provoked the
// way it happens on real hardware: a comparator offset larger than the
// remaining ramp reach censors the column.
TEST(ProbeStats, OffsetBeyondRampReachCountsColumnsAsSilent) {
  resipe_core::EngineConfig cfg;
  cfg.circuit.comparator_offset = cfg.circuit.v_s;  // past the ramp top
  Rng rng(3);
  const std::vector<double> w{0.5, 0.3, -0.2, 0.4};  // 2x2
  const std::vector<double> b(2, 0.0);
  const resipe_core::ProgrammedMatrix pm(cfg, w, b, 2, 2, rng);

  resipe_core::ProgrammedMatrix::ProbeStats stats(
      cfg.introspect.spike_time_bins);
  std::vector<double> y(2, 0.0);
  pm.forward_probed(std::vector<double>{1.0, 0.5}, y, stats);

  EXPECT_EQ(stats.vectors, 1u);
  EXPECT_GT(stats.no_spike, 0u);
  EXPECT_EQ(stats.spikes, 0u);
  EXPECT_EQ(stats.inputs_clamped, 0u);
}

// Small inputs arrive early on the GD ramp and fire their columns in
// the first clock period: the pinned-at-start counter must see them.
TEST(ProbeStats, EarlyFiringColumnsCountAsPinnedAtStart) {
  resipe_core::EngineConfig cfg;
  Rng rng(3);
  const std::vector<double> w{0.5, 0.3, -0.2, 0.4};
  const std::vector<double> b(2, 0.0);
  const resipe_core::ProgrammedMatrix pm(cfg, w, b, 2, 2, rng);

  resipe_core::ProgrammedMatrix::ProbeStats stats(
      cfg.introspect.spike_time_bins);
  std::vector<double> y(2, 0.0);
  pm.forward_probed(std::vector<double>{0.02, 0.01}, y, stats);

  EXPECT_GT(stats.spikes, 0u);
  EXPECT_GT(stats.pinned_start, 0u);
  EXPECT_EQ(stats.no_spike, 0u);
}

TEST(ProbeStats, StrongInputFiresEveryColumnAndFillsTheHistogram) {
  resipe_core::EngineConfig cfg;
  Rng rng(3);
  const std::vector<double> w{0.9, 0.8, 0.7, 0.9};
  const std::vector<double> b(2, 0.0);
  const resipe_core::ProgrammedMatrix pm(cfg, w, b, 2, 2, rng);

  resipe_core::ProgrammedMatrix::ProbeStats stats(
      cfg.introspect.spike_time_bins);
  std::vector<double> y(2, 0.0);
  pm.forward_probed(std::vector<double>{1.0, 1.0}, y, stats);

  EXPECT_GT(stats.spikes, 0u);
  const std::uint64_t hist_mass = std::accumulate(
      stats.spike_time_hist.begin(), stats.spike_time_hist.end(),
      std::uint64_t{0});
  EXPECT_EQ(hist_mass, stats.spikes);
}

// forward_probed is forward with a probe sink.  Over plain, event-driven
// and fault-remapped matrices, y must match forward bitwise, and the
// counters must not depend on whether the events path is on.
TEST(ProbeStats, OverRangeInputCountsClampsAndMatchesForwardExactly) {
  resipe_core::EngineConfig plain;
  resipe_core::EngineConfig remapped;
  remapped.reliability.enabled = true;
  remapped.reliability.faults.stuck_lrs_rate = 0.05;
  remapped.reliability.faults.stuck_hrs_rate = 0.05;
  remapped.reliability.fault_seed = 2;  // moves data columns onto spares

  constexpr std::size_t kIn = 8, kOut = 4;
  Rng wrng(3);
  std::vector<double> w(kIn * kOut);
  for (double& v : w) v = wrng.uniform(-0.5, 0.5);
  const std::vector<double> b{0.1, -0.1, 0.0, 0.2};
  // Three entries outside [0, 1]; two rows silent.
  const std::vector<double> x{1.7, -0.4, 0.3, 0.0, 2.5, 0.6, 0.0, 0.9};

  for (const resipe_core::EngineConfig& base : {plain, remapped}) {
    std::vector<resipe_core::ProgrammedMatrix::ProbeStats> arms;
    std::vector<std::vector<double>> outputs;
    for (const bool events : {false, true}) {
      resipe_core::EngineConfig cfg = base;
      cfg.events.enabled = events;
      Rng rng(3);
      resipe_core::ProgrammedMatrix pm(cfg, w, b, kIn, kOut, rng);
      pm.set_input_scale(1.0);
      if (cfg.reliability.enabled) {
        ASSERT_GT(pm.reliability_stats().columns_remapped, 0u);
      }

      std::vector<double> y_plain(kOut, 0.0), y_probed(kOut, 0.0);
      pm.forward(x, y_plain);
      resipe_core::ProgrammedMatrix::ProbeStats stats(
          cfg.introspect.spike_time_bins);
      pm.forward_probed(x, y_probed, stats);

      EXPECT_EQ(stats.inputs_clamped, 3u);
      EXPECT_EQ(stats.vectors, 1u);
      for (std::size_t i = 0; i < kOut; ++i) {
        EXPECT_EQ(y_probed[i], y_plain[i]);  // bitwise, not approximately
      }
      arms.push_back(stats);
      outputs.push_back(y_probed);
    }
    const auto& dense = arms[0];
    const auto& event = arms[1];
    EXPECT_EQ(outputs[0], outputs[1]);
    EXPECT_EQ(dense.spike_time_hist, event.spike_time_hist);
    EXPECT_EQ(dense.spikes, event.spikes);
    EXPECT_EQ(dense.no_spike, event.no_spike);
    EXPECT_EQ(dense.pinned_start, event.pinned_start);
    EXPECT_EQ(dense.pinned_end, event.pinned_end);
    EXPECT_EQ(dense.inputs_clamped, event.inputs_clamped);
    EXPECT_EQ(dense.vectors, event.vectors);
  }
}

TEST(ProbeStats, MergeAccumulatesEveryCounter) {
  resipe_core::ProgrammedMatrix::ProbeStats a(4), c(4);
  a.spikes = 3;
  a.no_spike = 1;
  a.pinned_start = 2;
  a.vectors = 1;
  a.spike_time_hist = {1, 0, 2, 0};
  c.spikes = 2;
  c.inputs_clamped = 5;
  c.vectors = 2;
  c.spike_time_hist = {0, 1, 0, 1};
  a.merge(c);
  EXPECT_EQ(a.spikes, 5u);
  EXPECT_EQ(a.no_spike, 1u);
  EXPECT_EQ(a.pinned_start, 2u);
  EXPECT_EQ(a.inputs_clamped, 5u);
  EXPECT_EQ(a.vectors, 3u);
  EXPECT_EQ(a.spike_time_hist, (std::vector<std::uint64_t>{1, 1, 2, 1}));
}

// Provenance: equal configs hash equal; touching any knob changes the
// hash.  The report itself must be complete whether or not telemetry
// was compiled in (this suite also runs under -DRESIPE_TELEMETRY=OFF).
TEST(Provenance, ConfigHashIsStableAndKnobSensitive) {
  resipe_core::EngineConfig base;
  EXPECT_EQ(engine_config_hash(base), engine_config_hash(base));
  resipe_core::EngineConfig tweaked = base;
  tweaked.device.variation_sigma += 0.01;
  EXPECT_NE(engine_config_hash(base), engine_config_hash(tweaked));
  resipe_core::EngineConfig reseeded = base;
  reseeded.program_seed += 1;
  EXPECT_NE(engine_config_hash(base), engine_config_hash(reseeded));
}

TEST(Provenance, ManifestIsPopulatedRegardlessOfTelemetryBuild) {
  const resipe_core::EngineConfig cfg;
  const Provenance p = collect_provenance(cfg);
  EXPECT_FALSE(p.engine_config_hash.empty());
  EXPECT_FALSE(p.compiler.empty());
  EXPECT_FALSE(p.build_type.empty());
  EXPECT_FALSE(p.timestamp.empty());
  EXPECT_GE(p.threads, 1u);
#if defined(RESIPE_TELEMETRY_DISABLED)
  EXPECT_FALSE(p.telemetry_build);
#else
  EXPECT_TRUE(p.telemetry_build);
#endif
}

}  // namespace
}  // namespace resipe::introspect
