// The verification harness verified: generator determinism, contract
// registry behaviour, the shrinker's minimality loop, repro round-trip,
// and replay of the committed corpus (tests/corpus/*.json).  Runs under
// `ctest -L verify` and in the telemetry-off build, where the off-flag
// and thread-determinism contracts double as bit-identity checks.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <fstream>
#include <sstream>
#include <tuple>
#include <vector>

#include "resipe/common/error.hpp"
#include "resipe/common/parallel.hpp"
#include "resipe/nn/model.hpp"
#include "resipe/resipe/network.hpp"
#include "resipe/verify/contracts.hpp"
#include "resipe/verify/fuzzer.hpp"
#include "resipe/verify/generators.hpp"
#include "resipe/verify/ode_oracle.hpp"
#include "resipe/verify/serialize.hpp"
#include "resipe/verify/shrink.hpp"
#include "testing/approx.hpp"

#ifndef RESIPE_CORPUS_DIR
#error "RESIPE_CORPUS_DIR must point at the committed corpus"
#endif

namespace resipe::verify {
namespace {

CaseSpec case_for_seed(std::uint64_t seed) {
  return generate_case(CaseDescriptor{kSchemaVersion, seed});
}

// Disarms the deliberate bug even when an assertion bails out early.
struct BugGuard {
  explicit BugGuard(InjectedBug bug) { set_injected_bug(bug); }
  ~BugGuard() { set_injected_bug(InjectedBug::kNone); }
};

TEST(Generators, SameSeedSameCase) {
  for (std::uint64_t seed : {1ull, 17ull, 983ull}) {
    ReproRecord a{case_for_seed(seed), "all", ""};
    ReproRecord b{case_for_seed(seed), "all", ""};
    EXPECT_EQ(repro_to_json(a), repro_to_json(b)) << "seed " << seed;
  }
}

TEST(Generators, EveryCaseSatisfiesValidate) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const CaseSpec spec = case_for_seed(seed);
    EXPECT_NO_THROW(spec.config.validate()) << spec.summary();
  }
}

TEST(Generators, CoversBothModelsAndAllMappings) {
  int linear = 0, exact = 0;
  int mappings[3] = {0, 0, 0};
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const CaseSpec spec = case_for_seed(seed);
    (spec.config.circuit.model == circuits::TransferModel::kLinear ? linear
                                                                   : exact)++;
    ++mappings[static_cast<int>(spec.config.mapping)];
  }
  EXPECT_GT(linear, 0);
  EXPECT_GT(exact, 0);
  for (int m : mappings) EXPECT_GT(m, 0);
}

TEST(Contracts, RegistryHasStableUniqueNames) {
  const auto& registry = contract_registry();
  ASSERT_FALSE(registry.empty());
  for (std::size_t i = 0; i < registry.size(); ++i) {
    EXPECT_FALSE(registry[i].description.empty()) << registry[i].name;
    for (std::size_t j = i + 1; j < registry.size(); ++j) {
      EXPECT_NE(registry[i].name, registry[j].name);
    }
  }
  EXPECT_NE(find_contract("fast_vs_tile"), nullptr);
  EXPECT_EQ(find_contract("no_such_contract"), nullptr);
}

TEST(Contracts, AllHoldOnGeneratedCases) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const CaseSpec spec = case_for_seed(seed);
    for (const auto& contract : contract_registry()) {
      const ContractResult r = contract.check(spec);
      EXPECT_FALSE(r.violated())
          << contract.name << " on " << spec.summary() << ": " << r.detail;
    }
  }
}

TEST(Contracts, ThreadAndOffFlagDeterminismNeverSkip) {
  // These two are the bit-identity anchors the telemetry-off build
  // relies on; they must actually run, not skip.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const CaseSpec spec = case_for_seed(seed);
    for (const char* name : {"threads_identical", "off_flags_identical"}) {
      const Contract* contract = find_contract(name);
      ASSERT_NE(contract, nullptr);
      const ContractResult r = contract->check(spec);
      EXPECT_TRUE(r.pass) << name << " on " << spec.summary() << ": "
                          << r.detail;
      EXPECT_FALSE(r.skipped) << name << " on " << spec.summary();
    }
  }
}

TEST(InjectedBug, RowDropIsCaughtAndShrunkToTiny) {
  const Contract* contract = find_contract("fast_vs_tile");
  ASSERT_NE(contract, nullptr);
  const BugGuard guard(InjectedBug::kFastMvmRowDrop);

  // The bug zeroes the last crossbar row inside FastMvm only, so the
  // differential contract must flag it within a handful of seeds.
  CaseSpec failing;
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 50 && !found; ++seed) {
    failing = case_for_seed(seed);
    found = contract->check(failing).violated();
  }
  ASSERT_TRUE(found) << "row-drop bug survived 50 fuzz cases";

  const ShrinkResult shrunk = shrink_case(failing, *contract);
  EXPECT_LE(shrunk.spec.rows, 4u) << shrunk.spec.summary();
  EXPECT_LE(shrunk.spec.cols, 4u) << shrunk.spec.summary();
  EXPECT_TRUE(contract->check(shrunk.spec).violated());

  // The minimal reproducer must pass once the bug is gone.
  set_injected_bug(InjectedBug::kNone);
  EXPECT_FALSE(contract->check(shrunk.spec).violated());
}

TEST(InjectedBug, ExpLibmUlpIsCaughtOnEveryCase) {
  const Contract* contract = find_contract("exp_libm_identity");
  ASSERT_NE(contract, nullptr);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const CaseSpec spec = case_for_seed(seed);
    EXPECT_FALSE(contract->check(spec).violated()) << spec.summary();
    const BugGuard guard(InjectedBug::kExpLibmUlp);
    const ContractResult r = contract->check(spec);
    EXPECT_TRUE(r.violated()) << "1-ulp exp error survived "
                              << spec.summary();
    EXPECT_NE(r.detail.find("std::exp"), std::string::npos) << r.detail;
  }
}

TEST(Shrinker, RejectsPassingCase) {
  const Contract* contract = find_contract("fast_vs_tile");
  ASSERT_NE(contract, nullptr);
  EXPECT_THROW(shrink_case(case_for_seed(1), *contract), Error);
}

TEST(Serialize, ReproRoundTripsBitExact) {
  for (std::uint64_t seed : {1ull, 5ull, 33ull}) {
    ReproRecord record{case_for_seed(seed), "fast_vs_tile", "detail text"};
    const std::string json = repro_to_json(record);
    const ReproRecord parsed = repro_from_json(json);
    EXPECT_EQ(repro_to_json(parsed), json) << "seed " << seed;
    EXPECT_EQ(parsed.contract, record.contract);
    EXPECT_EQ(parsed.spec.summary(), record.spec.summary());
  }
}

TEST(Serialize, SnippetEmbedsReplayableRecord) {
  const ReproRecord record{case_for_seed(7), "perm_columns", ""};
  const std::string snippet = repro_snippet(record);
  EXPECT_NE(snippet.find("perm_columns"), std::string::npos);
  EXPECT_NE(snippet.find("repro_from_json"), std::string::npos);
}

TEST(Serialize, RejectsUnknownKeys) {
  EXPECT_THROW(repro_from_json("{\"schema_version\": 1, \"bogus\": 2}"),
               Error);
}

TEST(Serialize, ReproBytesArePinned) {
  const ReproRecord record{case_for_seed(7), "fast_vs_tile",
                           "col 3: got 1.5 want 1.25"};
  EXPECT_EQ(repro_to_json(record), R"json({
  "schema_version": 3,
  "seed": "7",
  "contract": "fast_vs_tile",
  "detail": "col 3: got 1.5 want 1.25",
  "rows": 12,
  "cols": 8,
  "inputs": 7,
  "layers": [11],
  "classes": 2,
  "batch": 2,
  "tile_rows": 4,
  "tile_cols": 16,
  "mapping": "differential_pair",
  "quantize_spikes": true,
  "calibration_headroom": 0.50001562687658518,
  "input_scale_margin": 1.4467663784458162,
  "program_seed": "10977003866165182763",
  "model_wire_ir_drop": true,
  "wire_r_wordline": 2.5,
  "wire_r_bitline": 2.5,
  "retention_time": 0,
  "circuit_v_s": 1,
  "circuit_r_gd": 825010.15725106641,
  "circuit_c_gd": 1e-13,
  "circuit_c_cog": 1e-13,
  "circuit_slice_length": 1.0000000000000001e-07,
  "circuit_comp_stage": 2.0000000000000001e-09,
  "circuit_spike_width": 1.0000000000000001e-09,
  "circuit_clock_period": 1.0000000000000001e-09,
  "circuit_comparator_offset": 0,
  "circuit_comparator_delay": 0,
  "circuit_comparator_offset_sigma": 0,
  "circuit_model": "linear",
  "device_r_lrs": 10000,
  "device_r_hrs": 1000000,
  "device_levels": 32,
  "device_write_verify_tolerance": 0.01,
  "device_variation_sigma": 0,
  "device_read_noise_sigma": 0.0055201100397560968,
  "device_stuck_lrs_rate": 0,
  "device_stuck_hrs_rate": 0,
  "device_drift_nu": 0,
  "device_drift_t0": 1,
  "device_transistor_r_on": 637.66405949918749,
  "rel_enabled": false,
  "rel_stuck_lrs_rate": 0.0070338114032803328,
  "rel_stuck_hrs_rate": 0.019691776683743115,
  "rel_cluster_fraction": 0.5,
  "rel_cluster_size": 4,
  "rel_read_disturb_rate": 0,
  "rel_expected_mvms": 0,
  "rel_endurance_cycles": 0,
  "rel_wear_cycles": 0,
  "rel_mapper_rail_tolerance": 0.25,
  "rel_mapper_reads_per_cell": 3,
  "rel_mapper_miss_rate": 0,
  "rel_mapper_false_alarm_rate": 0,
  "rel_mit_enabled": true,
  "rel_mit_spare_cols": 4,
  "rel_mit_remap_columns": true,
  "rel_mit_compensate_pairs": true,
  "rel_mit_write_verify_retries": 5,
  "rel_mit_degrade_threshold": 0.10000000000000001,
  "rel_fault_seed": "11842684166857534732",
  "insp_enabled": false,
  "insp_max_probe_vectors": 2,
  "insp_max_attribution_vectors": 128,
  "insp_attribute_error": true,
  "insp_accuracy_attribution": true,
  "insp_energy_ledger": true,
  "insp_spike_time_bins": 9,
  "insp_activity_threshold": 0,
  "serve_queue_capacity": 41,
  "serve_batch_max": 1,
  "serve_batch_window": 0.00056476347490837014,
  "serve_default_deadline": 0.10438731370498232,
  "serve_retry_max": 0,
  "serve_backoff_base": 4.2939682370610331e-05,
  "serve_backoff_multiplier": 2.9981274463361478,
  "serve_backoff_max": 0.004027193322428505,
  "serve_backoff_jitter": 0.80600611340770312,
  "serve_canary_period": 0.0015169559341498583,
  "serve_canary_images": 5,
  "serve_max_canary_mismatch": 0.34100525826679762,
  "serve_logit_rmse_limit": 0.99812012228188052,
  "serve_quarantine_after": 2,
  "serve_readmit_after": 4,
  "serve_seed": "8719388779251943004",
  "events_enabled": true
}
)json");
}

TEST(Serialize, EveryControlByteAndInfinityRoundTrip) {
  std::string text;
  for (int c = 1; c < 0x20; ++c) text += static_cast<char>(c);
  text += "\"\\";
  ReproRecord record{case_for_seed(5), text, "detail: " + text};
  record.spec.serve.health.logit_rmse_limit =
      std::numeric_limits<double>::infinity();
  ASSERT_NO_THROW(record.spec.serve.validate());
  const std::string json = repro_to_json(record);
  for (const char c : json) {
    EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20)
        << "raw control byte " << int{c} << " in the record";
  }
  const ReproRecord parsed = repro_from_json(json);
  EXPECT_EQ(parsed.contract, record.contract);
  EXPECT_EQ(parsed.detail, record.detail);
  EXPECT_EQ(parsed.spec.serve.health.logit_rmse_limit,
            record.spec.serve.health.logit_rmse_limit);
  EXPECT_EQ(repro_to_json(parsed), json);
}

TEST(Serialize, RejectsUnknownEscape) {
  EXPECT_THROW(repro_from_json("{\"contract\": \"a\\qb\"}"), Error);
}

TEST(Corpus, EveryCommittedCaseReplaysClean) {
  const std::filesystem::path dir(RESIPE_CORPUS_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::size_t records = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    ++records;
    std::ifstream in(entry.path());
    std::ostringstream buf;
    buf << in.rdbuf();
    const ReproRecord record = repro_from_json(buf.str());
    for (const auto& contract : contract_registry()) {
      if (record.contract != "all" && record.contract != contract.name) {
        continue;
      }
      const ContractResult r = contract.check(record.spec);
      EXPECT_FALSE(r.violated()) << entry.path().filename() << " "
                                 << contract.name << ": " << r.detail;
    }
  }
  EXPECT_GE(records, 10u) << "corpus went missing";
}

TEST(Fuzzer, ReportAggregatesAndBenchLineIsStable) {
  FuzzOptions options;
  options.cases = 20;
  const FuzzReport report = run_fuzz(options);
  EXPECT_EQ(report.cases_run, 20u);
  EXPECT_EQ(report.violations(), 0u);
  EXPECT_GT(report.checks(), 0u);
  EXPECT_TRUE(report.bench_json().starts_with(
      "BENCH_JSON {\"bench\":\"verify_fuzz\""));
}

TEST(Fuzzer, ContractFilterRestrictsChecks) {
  FuzzOptions options;
  options.cases = 5;
  options.contract_filter = "codec_roundtrip";
  const FuzzReport report = run_fuzz(options);
  EXPECT_EQ(report.contracts.size(), 1u);
  EXPECT_THROW(
      [] {
        FuzzOptions bad;
        bad.contract_filter = "no_such_contract";
        run_fuzz(bad);
      }(),
      Error);
}

// --- the adaptive integrator the ODE contracts trust ------------------

TEST(AdaptiveOde, ExponentialDecay) {
  const double tau = 2.0;
  const auto r = integrate_adaptive(
      [tau](double, double v) { return -v / tau; }, 1.0, 0.0, 3.0 * tau);
  RESIPE_EXPECT_REL(r.value, std::exp(-3.0), 1e-8);
  EXPECT_GT(r.steps, 0u);
  // One step across the whole interval is far off; step control must
  // reject it and still land on the same answer.
  AdaptiveOdeOptions opt;
  opt.initial_step = 3.0 * tau;
  const auto big = integrate_adaptive(
      [tau](double, double v) { return -v / tau; }, 1.0, 0.0, 3.0 * tau, opt);
  EXPECT_GT(big.rejected, 0u);
  RESIPE_EXPECT_REL(big.value, std::exp(-3.0), 1e-8);
}

TEST(AdaptiveOde, RcChargeOnNanosecondScale) {
  // The GD ramp's shape: v_s (1 - exp(-t / tau)), tau = 10 ns.
  const double v_s = 0.8, tau = 10e-9;
  const auto r = integrate_adaptive(
      [=](double, double v) { return (v_s - v) / tau; }, 0.0, 0.0, 50e-9);
  RESIPE_EXPECT_REL(r.value, v_s * (1.0 - std::exp(-5.0)), 1e-8);
}

TEST(AdaptiveOde, TimeDependentDrive) {
  // dv/dt = t - v, v(0) = 1  =>  v(t) = t - 1 + 2 exp(-t).
  const auto r = integrate_adaptive(
      [](double t, double v) { return t - v; }, 1.0, 0.0, 4.0);
  RESIPE_EXPECT_REL(r.value, 3.0 + 2.0 * std::exp(-4.0), 1e-8);
  // A fifth-order pair needs about 66 steps here; a stage evaluated at
  // the wrong time drops the order and needs about five times as many.
  EXPECT_LT(r.steps, 150u);
  // A zero-length interval returns v0 without taking a step.
  const auto still = integrate_adaptive(
      [](double t, double v) { return t - v; }, 0.25, 1.0, 1.0);
  EXPECT_EQ(still.value, 0.25);
  EXPECT_EQ(still.steps, 0u);
}

TEST(AdaptiveOde, InvertedIntervalThrows) {
  EXPECT_THROW(
      integrate_adaptive([](double, double v) { return -v; }, 1.0, 1.0, 0.0),
      Error);
}

TEST(AdaptiveOde, ExhaustedStepBudgetThrows) {
  AdaptiveOdeOptions opt;
  opt.initial_step = 1e-6;
  opt.max_steps = 3;
  EXPECT_THROW(integrate_adaptive([](double, double v) { return -v; }, 1.0,
                                  0.0, 1.0, opt),
               Error);
  // The same integration within budget succeeds.
  opt.max_steps = 200000;
  const auto r = integrate_adaptive([](double, double v) { return -v; }, 1.0,
                                    0.0, 1.0, opt);
  RESIPE_EXPECT_REL(r.value, std::exp(-1.0), 1e-8);
}

// --- satellite 2: EngineConfig::validate at engine entry points --------

using resipe_core::EngineConfig;
using resipe_core::ProgrammedMatrix;

TEST(EngineConfigValidate, RejectsBadEngineKnobs) {
  EngineConfig cfg;
  cfg.tile_rows = 0;
  EXPECT_THROW(cfg.validate(), Error);

  cfg = EngineConfig{};
  cfg.tile_cols = 5;  // differential pairs need an even width
  EXPECT_THROW(cfg.validate(), Error);
  cfg.mapping = crossbar::SignedMapping::kOffsetColumn;
  EXPECT_NO_THROW(cfg.validate());

  cfg = EngineConfig{};
  cfg.calibration_headroom = 0.0;
  EXPECT_THROW(cfg.validate(), Error);
  cfg.calibration_headroom = 1.5;
  EXPECT_THROW(cfg.validate(), Error);

  cfg = EngineConfig{};
  cfg.input_scale_margin = -1.0;
  EXPECT_THROW(cfg.validate(), Error);

  cfg = EngineConfig{};
  cfg.retention_time = -1.0;
  EXPECT_THROW(cfg.validate(), Error);

  cfg = EngineConfig{};
  cfg.introspect.spike_time_bins = 0;
  EXPECT_THROW(cfg.validate(), Error);
}

TEST(EngineConfigValidate, SubConfigViolationsPropagate) {
  EngineConfig cfg;
  cfg.circuit.v_s = 0.0;
  EXPECT_THROW(cfg.validate(), Error);

  cfg = EngineConfig{};
  cfg.device.levels = 0;
  EXPECT_THROW(cfg.validate(), Error);
}

TEST(EngineConfigValidate, GuardsProgrammedMatrixConstruction) {
  EngineConfig cfg;
  cfg.calibration_headroom = 2.0;
  Rng rng(1);
  const std::vector<double> w(4, 0.1);
  const std::vector<double> b(2, 0.0);
  EXPECT_THROW(ProgrammedMatrix(cfg, w, b, 2, 2, rng), Error);
}

// --- satellite 3: reliability x introspect x ir-drop, both thread counts

class FlagCrossProduct
    : public ::testing::TestWithParam<std::tuple<bool, bool, bool>> {};

TEST_P(FlagCrossProduct, LogitsBitIdenticalAcrossThreadCounts) {
  const auto [reliability, introspect, ir_drop] = GetParam();
  Rng rng(404);
  nn::Sequential model("flags_mlp");
  model.emplace<nn::Dense>(6, 10, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::Dense>(10, 4, rng);

  EngineConfig cfg;
  cfg.tile_rows = 8;
  cfg.tile_cols = 8;
  cfg.reliability.enabled = reliability;
  cfg.reliability.faults.stuck_lrs_rate = reliability ? 0.01 : 0.0;
  cfg.introspect.enabled = introspect;
  cfg.model_wire_ir_drop = ir_drop;

  nn::Tensor calibration({8, 6});
  for (double& v : calibration.data()) v = rng.uniform(0.0, 1.0);
  nn::Tensor batch({3, 6});
  for (double& v : batch.data()) v = rng.uniform(0.0, 1.0);

  const resipe_core::ResipeNetwork net(model, cfg, calibration);
  std::vector<nn::Tensor> logits;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_default_threads(threads);
    logits.push_back(net.forward(batch));
  }
  set_default_threads(0);

  ASSERT_EQ(logits[0].data().size(), logits[1].data().size());
  EXPECT_EQ(std::memcmp(logits[0].data().data(), logits[1].data().data(),
                        logits[0].data().size() * sizeof(double)),
            0)
      << "rel=" << reliability << " insp=" << introspect
      << " ir=" << ir_drop;
}

INSTANTIATE_TEST_SUITE_P(AllCombos, FlagCrossProduct,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool(),
                                            ::testing::Bool()));

}  // namespace
}  // namespace resipe::verify
