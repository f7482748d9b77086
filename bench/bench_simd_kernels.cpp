// Scalar-vs-SIMD kernel comparison bench.
//
// Times the FastMvm batch kernel, the spike-codec batch kernels and
// the column recovery's exp (simd::exp_libm) twice over identical
// inputs — once on the vector path, once under simd::ForceScalarGuard,
// where exp_libm is the plain libm loop — and reports achieved GFLOP/s
// for both plus the speedup ratio.  The *_gflops figures feed the bench_diff
// regression gate (per-ISA baselines: the report is stamped with
// simd_isa, so a scalar build starts its own history); the *_speedup
// ratios are directionless context.
//
// On a scalar build both passes run the same code, the speedups sit at
// ~1.0 and the bench degenerates to a plain kernel-throughput tracker.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_report.hpp"
#include "resipe/circuits/params.hpp"
#include "resipe/common/rng.hpp"
#include "resipe/common/simd.hpp"
#include "resipe/device/reram.hpp"
#include "resipe/resipe/fast_mvm.hpp"
#include "resipe/resipe/spike_code.hpp"

namespace {

using namespace resipe;

/// Runs `body` repeatedly until ~`budget_s` of wall time is spent
/// (after one untimed warmup call) and returns seconds per call.
template <typename Body>
double time_per_call(double budget_s, Body&& body) {
  using clock = std::chrono::steady_clock;
  body();  // warmup: scratch growth, page faults, branch history
  std::size_t calls = 0;
  const auto start = clock::now();
  double elapsed = 0.0;
  do {
    body();
    ++calls;
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
  } while (elapsed < budget_s);
  return elapsed / static_cast<double>(calls);
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReport report("simd_kernels", argc, argv);

  const circuits::CircuitParams params;
  const device::ReramSpec spec = device::ReramSpec::nn_mapping();
  constexpr std::size_t kRows = 128;
  constexpr std::size_t kCols = 128;
  constexpr std::size_t kBatch = 32;
  constexpr double kBudget = 0.25;  // seconds per timed variant
  // The exp row's call is ~10 us, so a fifth of the budget still times
  // thousands of calls and keeps the bench's wall time near its history.
  constexpr double kExpBudget = kBudget / 5;

  Rng rng(0x51D);
  std::vector<double> g(kRows * kCols);
  for (double& v : g) v = rng.uniform(spec.g_min(), spec.g_max());
  const resipe_core::FastMvm mvm(params, kRows, kCols, std::move(g));
  const resipe_core::SpikeCodec codec(params);

  std::vector<double> x(kBatch * kRows);
  for (double& v : x) v = rng.uniform(0.0, 1.0);
  std::vector<double> t_in(x.size());
  codec.encode_times(x, t_in);
  std::vector<double> t_out(kBatch * kCols);
  resipe_core::FastMvm::BatchScratch scratch;

  // 2 flops per MAC; the transcendental wordline/recovery work is
  // per-row/per-column and amortizes out at this shape, matching the
  // convention of perf/work_model.
  const double mvm_flops = 2.0 * kBatch * kRows * kCols;
  const double codec_flops = 4.0 * x.size();

  // Recovery exponents -t / tau over the slice, as ProgrammedMatrix::
  // recover stages them; 20 flops per value on the table path.
  std::vector<double> exponents(kBatch * kCols);
  for (double& v : exponents) {
    v = -rng.uniform(0.0, params.slice_length) / params.tau_gd();
  }
  std::vector<double> exps(exponents.size());
  const double exp_flops = 20.0 * static_cast<double>(exponents.size());

  const auto mvm_call = [&] {
    mvm.mvm_times_batch(t_in, kBatch, t_out, scratch);
  };
  const auto encode_call = [&] { codec.encode_times(x, t_in); };
  const auto decode_call = [&] { codec.decode_values(t_in, x); };
  const auto exp_call = [&] {
    simd::exp_libm(exponents.data(), exps.data(), exps.size());
  };

  struct Row {
    const char* key;
    double flops;
    double simd_s;
    double scalar_s;
  };
  Row rows[] = {
      {"fast_mvm_batch", mvm_flops, time_per_call(kBudget, mvm_call), 0.0},
      {"codec_encode", codec_flops, time_per_call(kBudget, encode_call),
       0.0},
      {"codec_decode", codec_flops, time_per_call(kBudget, decode_call),
       0.0},
      {"exp_libm", exp_flops, time_per_call(kExpBudget, exp_call), 0.0},
  };
  {
    simd::ForceScalarGuard guard;
    rows[0].scalar_s = time_per_call(kBudget, mvm_call);
    rows[1].scalar_s = time_per_call(kBudget, encode_call);
    rows[2].scalar_s = time_per_call(kBudget, decode_call);
    rows[3].scalar_s = time_per_call(kExpBudget, exp_call);  // libm loop
  }

  std::printf("simd kernel comparison (isa %s, march %s; exp_libm %s, "
              "its scalar column is the libm loop)\n",
              simd::active_isa(), simd::march_flags(),
              simd::detail::exp_libm_vectorized() ? "vectorized"
                                                  : "libm loop");
  std::printf("%-16s %12s %12s %8s\n", "kernel", "simd GFLOP/s",
              "scalar GF/s", "speedup");
  for (const Row& row : rows) {
    const double simd_gflops = row.flops / row.simd_s * 1e-9;
    const double scalar_gflops = row.flops / row.scalar_s * 1e-9;
    const double speedup = row.scalar_s / row.simd_s;
    std::printf("%-16s %12.3f %12.3f %7.2fx\n", row.key, simd_gflops,
                scalar_gflops, speedup);
    report.add(std::string(row.key) + "_simd_gflops", simd_gflops);
    report.add(std::string(row.key) + "_scalar_gflops", scalar_gflops);
    report.add(std::string(row.key) + "_speedup", speedup);
  }
  return report.emit();
}
