// Performance-observability layer: analytic work models (hand-counted),
// the work registry, roofline report internal consistency, folded-stack
// export, perf-counter graceful degradation and the accounting on/off
// bit-identity guarantee.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <vector>

#include "resipe/circuits/params.hpp"
#include "resipe/common/rng.hpp"
#include "resipe/device/reram.hpp"
#include "resipe/perf/perf_counters.hpp"
#include "resipe/perf/roofline.hpp"
#include "resipe/perf/work_model.hpp"
#include "resipe/resipe/fast_mvm.hpp"
#include "resipe/resipe/spike_code.hpp"
#include "resipe/resipe/tile.hpp"
#include "resipe/telemetry/telemetry.hpp"

namespace {

using namespace resipe;

// Busy-waits for `iters` volatile stores so timed regions are never
// empty (the optimizer cannot drop them).
volatile int spin_sink = 0;
void spin(int iters) {
  for (int i = 0; i < iters; ++i) spin_sink = i;
}

// Restores the global accounting/telemetry switches so tests cannot
// leak state into each other (the registry is process-wide).
struct PerfSwitchGuard {
  PerfSwitchGuard() {
    telemetry::set_enabled(true);
    perf::set_accounting_enabled(true);
    perf::WorkRegistry::instance().reset_values();
    telemetry::CallProfile::this_thread().reset();
  }
  ~PerfSwitchGuard() {
    perf::set_accounting_enabled(false);
    telemetry::set_enabled(false);
    perf::WorkRegistry::instance().reset_values();
    telemetry::CallProfile::this_thread().reset();
  }
};

// --- analytic model hand counts ----------------------------------------

TEST(WorkModel, FastMvmHandCount3x2) {
  // One sample (mvm_times is the n = 1 batch).
  // 4 flops/row * 3 + 2 flops/cell * 6 + 10 flops/col * 2 = 44 exactly.
  const perf::WorkCost c = perf::fast_mvm_batch_cost(3, 2, 1);
  EXPECT_EQ(c.flops, 44.0);
  // 8 * (2*3 + 3*2 + 3*2 + 3*2 + 3*2) = 8 * 30 = 240.
  EXPECT_EQ(c.bytes, 240.0);
}

TEST(WorkModel, FastMvmBatchFlopsAreExactlyNTimesSingle) {
  const perf::WorkCost single = perf::fast_mvm_batch_cost(5, 3, 1);
  const perf::WorkCost batch = perf::fast_mvm_batch_cost(5, 3, 7);
  EXPECT_EQ(batch.flops, 7.0 * single.flops);
  // 8 * (2*7*5 + 5*3 + 7*5*3 + 3*3 + 3*7*3) = 8 * (70+15+105+9+63).
  EXPECT_EQ(batch.bytes, 8.0 * 262.0);
  // Batch amortizes the matrix stream: fewer bytes than n singles.
  EXPECT_LT(batch.bytes, 7.0 * single.bytes);
}

TEST(WorkModel, TileHandCount2x2) {
  // 6*2 + 4*4 + 12*2 = 52; bytes 8 * (2*2 + 2*4 + 2*2) = 128.
  const perf::WorkCost c = perf::tile_execute_cost(2, 2);
  EXPECT_EQ(c.flops, 52.0);
  EXPECT_EQ(c.bytes, 128.0);
}

TEST(WorkModel, IrDropHandCount2x3) {
  // 9 flops/cell * 6 + 2 flops/col * 3 = 60;
  // bytes 8 * (2 + 6 + 2*3) = 112.
  const perf::WorkCost c = perf::ir_drop_solve_cost(2, 3);
  EXPECT_EQ(c.flops, 60.0);
  EXPECT_EQ(c.bytes, 112.0);
}

TEST(WorkModel, CodecCostsAreConstants) {
  EXPECT_GT(perf::spike_encode_cost().flops, 0.0);
  EXPECT_GT(perf::spike_encode_cost().bytes, 0.0);
  EXPECT_GT(perf::spike_decode_cost().flops, 0.0);
}

// --- registry accumulation from the real kernels -----------------------

TEST(WorkRegistry, FastMvmBooksExactAnalyticWork) {
#if defined(RESIPE_TELEMETRY_DISABLED)
  GTEST_SKIP() << "kernel annotations compile away with telemetry off";
#else
  PerfSwitchGuard guard;
  const circuits::CircuitParams params =
      circuits::CircuitParams::paper_defaults();
  const device::ReramSpec spec = device::ReramSpec::nn_mapping();
  Rng rng(11);
  std::vector<double> g(3 * 2);
  for (double& v : g) v = rng.uniform(spec.g_min(), spec.g_max());
  const resipe_core::FastMvm mvm(params, 3, 2, g);

  const resipe_core::SpikeCodec codec(params);
  std::vector<double> t_in(3);
  for (double& t : t_in) t = codec.encode(rng.uniform(0.0, 1.0)).arrival_time;
  std::vector<double> t_out(2);
  constexpr std::uint64_t kCalls = 5;
  for (std::uint64_t i = 0; i < kCalls; ++i) mvm.mvm_times(t_in, t_out);

  bool found = false;
  for (const auto& k : perf::WorkRegistry::instance().snapshot()) {
    if (k.name != "resipe_core.fast_mvm.mvm_times") continue;
    found = true;
    EXPECT_EQ(k.calls, kCalls);
    // Analytic counts accumulate exactly (no float drift at this size).
    EXPECT_EQ(k.flops, static_cast<double>(kCalls) * 44.0);
    EXPECT_EQ(k.bytes, static_cast<double>(kCalls) * 240.0);
    EXPECT_GT(k.timed_ns, 0u);
  }
  EXPECT_TRUE(found);
#endif
}

TEST(WorkRegistry, DisabledAccountingBooksNothing) {
  PerfSwitchGuard guard;
  perf::set_accounting_enabled(false);
  perf::WorkRegistry::instance().reset_values();
  const circuits::CircuitParams params =
      circuits::CircuitParams::paper_defaults();
  Rng rng(12);
  std::vector<double> g(4 * 2, 1e-6);
  const resipe_core::FastMvm mvm(params, 4, 2, g);
  std::vector<double> t_in(4, 1e-9);
  std::vector<double> t_out(2);
  mvm.mvm_times(t_in, t_out);
  for (const auto& k : perf::WorkRegistry::instance().snapshot()) {
    EXPECT_EQ(k.calls, 0u) << k.name;
    EXPECT_EQ(k.flops, 0.0) << k.name;
  }
}

TEST(WorkRegistry, AccountingOnOffIsBitIdentical) {
  PerfSwitchGuard guard;
  const circuits::CircuitParams params =
      circuits::CircuitParams::paper_defaults();
  const device::ReramSpec spec = device::ReramSpec::nn_mapping();
  Rng rng(13);
  std::vector<double> g(16 * 8);
  for (double& v : g) v = rng.uniform(spec.g_min(), spec.g_max());
  const resipe_core::FastMvm mvm(params, 16, 8, g);
  const resipe_core::SpikeCodec codec(params);
  std::vector<double> t_in(16);
  for (double& t : t_in) {
    t = codec.encode(rng.uniform(0.0, 1.0)).arrival_time;
  }
  std::vector<double> off(8), on(8);
  perf::set_accounting_enabled(false);
  mvm.mvm_times(t_in, off);
  perf::set_accounting_enabled(true);
  mvm.mvm_times(t_in, on);
  EXPECT_EQ(0, std::memcmp(off.data(), on.data(), 8 * sizeof(double)));
}

// --- roofline report ---------------------------------------------------

TEST(Roofline, RatesAreInternallyConsistent) {
#if defined(RESIPE_TELEMETRY_DISABLED)
  GTEST_SKIP() << "kernel annotations compile away with telemetry off";
#else
  PerfSwitchGuard guard;
  const circuits::CircuitParams params =
      circuits::CircuitParams::paper_defaults();
  const device::ReramSpec spec = device::ReramSpec::nn_mapping();
  Rng rng(14);
  std::vector<double> g(32 * 16);
  for (double& v : g) v = rng.uniform(spec.g_min(), spec.g_max());
  const resipe_core::FastMvm mvm(params, 32, 16, g);
  const resipe_core::SpikeCodec codec(params);
  std::vector<double> t_in(32);
  for (double& t : t_in) {
    t = codec.encode(rng.uniform(0.0, 1.0)).arrival_time;
  }
  std::vector<double> t_out(16);
  for (int i = 0; i < 50; ++i) mvm.mvm_times(t_in, t_out);

  perf::MachineProfile machine;
  machine.peak_gflops = 10.0;
  machine.peak_gbs = 20.0;
  const perf::RooflineReport report =
      perf::build_roofline_report(machine);
  ASSERT_FALSE(report.kernels.empty());
  for (const auto& k : report.kernels) {
    if (!k.timed) continue;
    // Acceptance contract: GFLOP/s == intensity * GB/s within 1%
    // (holds to rounding by construction).
    EXPECT_NEAR(k.gflops, k.intensity * k.gbs, 0.01 * k.gflops) << k.name;
    EXPECT_GT(k.seconds, 0.0);
    EXPECT_LE(k.attainable_gflops, machine.peak_gflops);
  }
#endif
}

TEST(Roofline, ClassifiesAgainstRidgePoint) {
  perf::WorkRegistry::instance().reset_values();
  perf::MachineProfile machine;
  machine.peak_gflops = 8.0;  // ridge = 2 FLOP/byte
  machine.peak_gbs = 4.0;
  EXPECT_DOUBLE_EQ(machine.ridge(), 2.0);

  auto& mem = perf::WorkRegistry::instance().kernel("t.mem_bound");
  mem.add_work({100.0, 1000.0});  // intensity 0.1 < ridge
  mem.add_time(1000);
  auto& comp = perf::WorkRegistry::instance().kernel("t.compute_bound");
  comp.add_work({1000.0, 100.0});  // intensity 10 > ridge
  comp.add_time(1000);

  const perf::RooflineReport report =
      perf::build_roofline_report(machine);
  bool saw_mem = false, saw_comp = false;
  for (const auto& k : report.kernels) {
    if (k.name == "t.mem_bound") {
      saw_mem = true;
      EXPECT_TRUE(k.memory_bound);
      // Ceiling at intensity 0.1: 0.1 * 4 = 0.4 GFLOP/s.
      EXPECT_DOUBLE_EQ(k.attainable_gflops, 0.4);
    }
    if (k.name == "t.compute_bound") {
      saw_comp = true;
      EXPECT_FALSE(k.memory_bound);
      EXPECT_DOUBLE_EQ(k.attainable_gflops, 8.0);
    }
  }
  EXPECT_TRUE(saw_mem);
  EXPECT_TRUE(saw_comp);
  const std::string ascii = report.render_ascii();
  EXPECT_NE(ascii.find("t.mem_bound"), std::string::npos);
  EXPECT_NE(ascii.find("memory"), std::string::npos);
  EXPECT_NE(ascii.find("compute"), std::string::npos);

  std::ostringstream os;
  report.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"bound\":\"memory\""), std::string::npos);
  EXPECT_NE(json.find("\"bound\":\"compute\""), std::string::npos);
  perf::WorkRegistry::instance().reset_values();
}

TEST(Roofline, MachineCalibrationProducesPositiveCeilings) {
  // Tiny budget: this is a smoke test of the calibration loops, not a
  // bandwidth measurement.
  const perf::MachineProfile p = perf::calibrate_machine(2.0, 1 << 14);
  EXPECT_GT(p.peak_gflops, 0.0);
  EXPECT_GT(p.peak_gbs, 0.0);
  EXPECT_GT(p.ridge(), 0.0);
  EXPECT_FALSE(p.fingerprint.empty());
  EXPECT_EQ(p.fingerprint_hash.size(), 16u);
  EXPECT_EQ(p.fingerprint, perf::machine_fingerprint());
}

// --- folded stacks and annotated tree ----------------------------------

TEST(FoldedStacks, EmitsSemicolonPathsWithSelfTime) {
  PerfSwitchGuard guard;
  {
    telemetry::ScopedTimer outer("outer");
    spin(1000);
    {
      telemetry::ScopedTimer inner("inner");
      spin(1000);
    }
  }
  const std::string folded =
      perf::folded_stacks(telemetry::CallProfile::this_thread());
  // One line per node with self time: "outer N" and "outer;inner M".
  EXPECT_NE(folded.find("outer;inner "), std::string::npos);
  std::istringstream is(folded);
  std::string stack;
  std::uint64_t value = 0;
  std::size_t lines = 0;
  while (is >> stack >> value) {
    ++lines;
    EXPECT_GE(value, 1u) << stack;
  }
  EXPECT_GE(lines, 2u);
}

TEST(AnnotatedProfile, AppendsRatesToKnownRegions) {
  PerfSwitchGuard guard;
  auto& kernel = perf::WorkRegistry::instance().kernel("region.hot");
  {
    telemetry::ScopedTimer t("region.hot");
    kernel.add_work({1000.0, 500.0});
    spin(1000);
  }
  const std::string tree = perf::render_annotated_profile(
      telemetry::CallProfile::this_thread());
  EXPECT_NE(tree.find("region.hot"), std::string::npos);
  EXPECT_NE(tree.find("GFLOP/s"), std::string::npos);
  EXPECT_NE(tree.find("FLOP/B"), std::string::npos);
}

// --- perf counters -----------------------------------------------------

TEST(PerfCounters, DegradesGracefullyAndKeepsWallClock) {
  perf::PerfCounterGroup counters;
  counters.start();
  spin(100000);
  counters.stop();
  const perf::PerfCounts counts = counters.read();
  EXPECT_GT(counts.wall_ns, 0.0);
  if (!counts.available) {
    // Containers without perf_event access must say why.
    EXPECT_FALSE(counts.detail.empty());
    EXPECT_EQ(counts.ipc(), 0.0);
  } else {
    EXPECT_GT(counts.cycles, 0.0);
    EXPECT_GT(counts.instructions, 0.0);
  }
}

// --- trace counter tracks ----------------------------------------------

TEST(TraceCounters, EmitsCounterEventsWithValues) {
  auto& session = telemetry::TraceSession::instance();
  session.start();
  session.counter("perf.test_track", 42.5);
  session.counter("perf.test_track", 43.5);
  session.stop();
  std::ostringstream os;
  session.write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"value\":42.5}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"value\":43.5}"), std::string::npos);
  telemetry::set_enabled(false);
}

}  // namespace
