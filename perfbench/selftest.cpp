// Self-tests of the benchmark's own checks: each must be able to fail.
//   1. a perturbed or non-finite logit fails the digest check;
//   2. a dropped step fails the attribution check;
//   3. the same seed reproduces every digest and simulated statistic
//      (and matches the recorded digests when the table has the seed);
//   4. a different seed changes the inputs.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <string>

#include "bench.hpp"
#include "layers.hpp"
#include "resipe/common/rng.hpp"
#include "resipe/common/simd.hpp"
#include "resipe/nn/data.hpp"
#include "resipe/nn/zoo.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace rc = resipe::resipe_core;
namespace nn = resipe::nn;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok    " : "FAIL  ") << what << std::endl;
  if (!ok) ++failures;
}

std::uint64_t digest_of(const nn::Tensor& t) {
  Digest d;
  d.add(t.data());
  return d.value();
}

/// A lowered CNN-1 and a small batch for the check-level tests.
struct SmallNet {
  nn::Sequential model;
  nn::Tensor batch;
  std::unique_ptr<rc::ResipeNetwork> net;

  SmallNet() {
    resipe::Rng model_rng(11);
    model = nn::build_benchmark(nn::BenchmarkNet::kCnn1, model_rng);
    resipe::Rng data_rng(12);
    const nn::Dataset d = nn::synthetic_digits(16, data_rng);
    batch = d.images;
    net = std::make_unique<rc::ResipeNetwork>(model, rc::EngineConfig{}, batch);
  }
};

void digest_check_fails(const SmallNet& s) {
  const nn::Tensor y = s.net->forward(s.batch);
  OpChecker clean(1);
  clean.check(0, digest_of(y), all_finite(y.data()));
  clean.check(0, digest_of(s.net->forward(s.batch)), true);
  expect(clean.failed() == 0, "repeated forward passes the digest check");

  nn::Tensor bumped = y;
  bumped.data()[7] = std::nextafter(bumped.data()[7],
                                    std::numeric_limits<double>::infinity());
  OpChecker repeat(1);
  repeat.check(0, digest_of(y), true);
  expect(!repeat.check(0, digest_of(bumped), true) && repeat.failed() == 1,
         "a logit one ulp off fails the repeat check");

  OpChecker recorded(1);
  recorded.check(0, digest_of(bumped), true);
  expect(!recorded.compare_recorded({digest_of(y)}) && recorded.failed() == 1,
         "a logit one ulp off fails the recorded digest");

  nn::Tensor nan = y;
  nan.data()[3] = std::numeric_limits<double>::quiet_NaN();
  OpChecker finite(1);
  expect(!finite.check(0, digest_of(nan), all_finite(nan.data())),
         "a NaN logit fails the check");
}

void dropped_step_fails(SmallNet& s) {
  const NetworkProfile p = profile_network(*s.net, s.batch, 9);
  const LoweringProfile lp =
      profile_lowering(s.model, rc::EngineConfig{}, s.batch, 9);
  const auto failures_of = [&](const NetworkProfile& np) {
    Record rec;
    add_network_metrics(rec, np);
    add_lowering_metrics(rec, lp);
    return attribution_failures(rec);
  };
  const std::string intact = failures_of(p);
  expect(intact.empty(),
         "intact profile passes the attribution check " + intact);

  NetworkProfile dropped = p;
  dropped.step_ms[dropped.fastest_rep()].pop_back();
  expect(!failures_of(dropped).empty(),
         "a step missing from the observer fails the attribution check");

  NetworkProfile zeroed = p;
  for (std::vector<double>& steps : zeroed.step_ms) {
    *std::max_element(steps.begin(), steps.end()) = 0.0;
  }
  expect(!failures_of(zeroed).empty(),
         "a step whose time is lost fails the attribution check");
}

struct FirstPass {
  std::vector<std::uint64_t> digests;
  double nrmse = 0.0, agreement = 0.0;
  std::string stats;
  std::uint64_t inputs = 0;
};

FirstPass first_pass(const std::string& name, std::uint64_t seed) {
  const auto w = make_workload(name, seed);
  FirstPass f;
  for (std::size_t k = 0; k < w->distinct_ops(); ++k) {
    f.digests.push_back(w->run_op(k).digest);
  }
  const LogitError q = w->quality();
  f.nrmse = q.nrmse();
  f.agreement = q.top1_agreement();
  Record rec;
  w->simulated_stats(rec);
  f.stats = rec.flat_json();
  f.inputs = w->input_digest();
  return f;
}

void seeds_behave(const DigestTable& table) {
  constexpr std::uint64_t kSeed = 1;
  for (const std::string& name : workload_names()) {
    const FirstPass a = first_pass(name, kSeed);
    const FirstPass b = first_pass(name, kSeed);
    expect(a.digests == b.digests && a.nrmse == b.nrmse &&
               a.agreement == b.agreement && a.stats == b.stats,
           name + ": the same seed reproduces every digest and statistic");
    const auto rec = table.find(
        digest_key(resipe::simd::compiled_isa(), name, kSeed));
    if (rec != table.end()) {
      expect(rec->second == a.digests,
             name + ": digests match the recorded table");
    }
    const FirstPass c = first_pass(name, kSeed + 1);
    expect(c.inputs != a.inputs && c.digests != a.digests,
           name + ": a different seed changes the inputs and outputs");
  }
}

}  // namespace

int run_selftest(const DigestTable& table) {
  SmallNet small;
  digest_check_fails(small);
  dropped_step_fails(small);
  seeds_behave(table);
  std::cout << (failures == 0 ? "selftest passed" : "selftest FAILED")
            << std::endl;
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
