// Introspection overhead and report figures.
//
// The contract in docs/observability.md: a network built with
// `EngineConfig::introspect.enabled == false` (the default) takes the
// exact legacy forward path — bit-identical logits and <2% wall-time
// overhead versus a config that never heard of the introspect knob.
// This bench measures both halves of that claim, then times a full
// inspect() pass and records its headline figures so the perf
// trajectory covers the probes themselves.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <vector>

#include "bench_report.hpp"
#include "resipe/common/parallel.hpp"
#include "resipe/introspect/inspect.hpp"
#include "resipe/nn/train.hpp"
#include "resipe/nn/zoo.hpp"
#include "resipe/resipe/network.hpp"

namespace {

double seconds_of(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace resipe;
  bench::BenchReport report("inspection", argc, argv);

  std::puts("=== Introspection: disabled-path overhead + probe cost ===\n");

  nn::TrainedBenchmarkConfig tc;
  tc.train_samples = 512;
  tc.test_samples = 96;
  tc.epochs = 2;
  nn::TrainedBenchmark tb = nn::train_benchmark(tc);
  const nn::Dataset& test = tb.test;
  const nn::Tensor& calib = tb.calib;
  std::printf("trained %s: test acc %.3f\n\n", tb.model.name().c_str(),
              tb.fit.test_accuracy);

  resipe_core::EngineConfig cfg_off;
  cfg_off.device.variation_sigma = 0.1;
  resipe_core::EngineConfig cfg_on = cfg_off;
  cfg_on.introspect.enabled = true;

  const resipe_core::ResipeNetwork net_off(tb.model, cfg_off, calib);
  const resipe_core::ResipeNetwork net_on(tb.model, cfg_on, calib);

  // Half 1: bit-identity.  Same seeds, same programming — the
  // introspect knob must not perturb a single bit of the logits.
  const nn::Tensor logits_off = net_off.forward(test.images);
  const nn::Tensor logits_on = net_on.forward(test.images);
  double max_diff = 0.0;
  const auto a = logits_off.data();
  const auto b = logits_on.data();
  for (std::size_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(a[i] - b[i]));
  }
  std::printf("bit-identity: max |logit diff| = %.17g\n", max_diff);
  report.add("max_logit_diff_flag_on_vs_off", max_diff);

  // Half 2: overhead.  Both networks run the identical forward path.
  // One forward is about a millisecond, so a sum over a few runs is
  // mostly timer and scheduler noise: take the minimum of many
  // repeats per side instead, alternating the order across repeats so
  // cache warmth cannot systematically favour either side.  The timing
  // runs on one thread — the flag's cost is per forward, and worker
  // wake-ups on a sub-millisecond forward would swamp it.
  const int reps = 101;
  set_default_threads(1);
  double t_off = HUGE_VAL, t_on = HUGE_VAL;
  const auto time_off = [&] {
    t_off = std::min(t_off,
                     seconds_of([&] { (void)net_off.forward(test.images); }));
  };
  const auto time_on = [&] {
    t_on = std::min(t_on,
                    seconds_of([&] { (void)net_on.forward(test.images); }));
  };
  for (int r = 0; r < reps; ++r) {
    if (r % 2 == 0) {
      time_off();
      time_on();
    } else {
      time_on();
      time_off();
    }
  }
  set_default_threads(0);
  const double overhead = t_on / t_off - 1.0;
  std::printf("forward, min of %d: flag off %.6f s, flag on %.6f s "
              "(overhead %+.2f%%)\n",
              reps, t_off, t_on, overhead * 100.0);
  report.add("forward_s_flag_off", t_off);
  report.add("forward_s_flag_on", t_on);
  report.add("disabled_overhead_frac", overhead);

  // Probe cost and headline figures of a full inspection pass.
  introspect::InspectionReport insp;
  const double t_inspect = seconds_of(
      [&] { insp = introspect::inspect(net_on, test.images, test.labels); });
  std::printf("inspect(): %.3f s over %zu images\n", t_inspect,
              insp.batch_size);
  report.add("inspect_s", t_inspect);
  report.add("inspect_cost_vs_forward", t_inspect / t_off);
  report.add("analog_accuracy", insp.analog_accuracy);
  report.add("digital_accuracy", insp.digital_accuracy);
  report.add("logits_rmse", insp.logits_rmse);
  report.add("batch_energy_j", insp.total_energy);
  for (const auto& lr : insp.layers) {
    if (!lr.error.computed) continue;
    const std::string step = std::to_string(lr.step);
    report.add("err_total_step" + step, lr.error.total);
    report.add("err_quant_step" + step, lr.error.quantization);
    report.add("err_var_step" + step, lr.error.variation);
    report.add("err_nonlin_step" + step, lr.error.nonlinearity);
  }
  std::printf("\n%s", insp.render_ascii().c_str());
  return report.emit();
}
