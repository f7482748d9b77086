#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>

#include "layers.hpp"
#include "resipe/common/parallel.hpp"
#include "resipe/common/rng.hpp"
#include "resipe/nn/data.hpp"
#include "resipe/nn/train.hpp"
#include "resipe/nn/zoo.hpp"
#include "resipe/serve/pool.hpp"
#include "resipe/serve/scheduler.hpp"
#include "resipe/serve/trace.hpp"
#include "resipe/serve/traffic.hpp"

namespace perfbench {

namespace rc = resipe::resipe_core;
namespace nn = resipe::nn;
namespace sv = resipe::serve;
using resipe::hash_seed;
using resipe::Rng;

namespace {

// The networks, their training and the serving silicon are part of the
// program and fixed; only the inputs (images, traffic, Monte-Carlo
// program seeds) come from the workload seed, hashed with a stream id
// per input.
constexpr std::uint64_t kModelSeed = 0x30DE1;
constexpr std::uint64_t kTrainSeed = 0x7A1A;
constexpr std::uint64_t kDataStream = 0xDA7A;
constexpr std::uint64_t kTestStream = 0x7E57;
constexpr std::uint64_t kChipStream = 0xC41B;
constexpr std::uint64_t kTrafficStream = 0x7AFF;
constexpr std::uint64_t kTrialStream = 0x7121A1;

/// Repetitions of each per-layer profile; the fastest is reported.
constexpr int kTraceReps = 9;

nn::Tensor rows_of(const nn::Dataset& d, std::size_t first, std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = first + i;
  return d.gather(idx).first;
}

std::uint64_t digest_of(const nn::Tensor& t) {
  Digest d;
  d.add(t.data());
  return d.value();
}

/// Runs `body` at the workload's thread count and times it.
template <typename F>
double timed(std::size_t threads, F&& body) {
  resipe::set_default_threads(threads);
  const auto t0 = Clock::now();
  body();
  return seconds_since(t0);
}

// ---------------------------------------------------------------------
// conv_batch: CNN-2 closed loop, one client, back-to-back 32-image
// batches through ResipeNetwork::forward at two threads.

class ConvBatch final : public Workload {
 public:
  static constexpr std::size_t kBatch = 32;
  static constexpr std::size_t kBatches = 4;

  explicit ConvBatch(std::uint64_t seed) {
    Rng model_rng(kModelSeed);
    model_ = std::make_unique<nn::Sequential>(
        nn::build_benchmark(nn::BenchmarkNet::kCnn2, model_rng));
    Rng data_rng(hash_seed(seed, kDataStream));
    const nn::Dataset data =
        nn::synthetic_objects(kBatch * (kBatches + 1), data_rng);
    calib_ = rows_of(data, 0, kBatch);
    for (std::size_t b = 0; b < kBatches; ++b) {
      batches_.push_back(rows_of(data, kBatch * (b + 1), kBatch));
    }
    net_ = std::make_unique<rc::ResipeNetwork>(*model_, cfg_, calib_);
    first_.resize(kBatches);
    run_op(0);
  }

  std::size_t threads() const override { return 2; }
  std::size_t distinct_ops() const override { return kBatches; }

  OpResult run_op(std::size_t k) override {
    nn::Tensor y;
    OpResult r;
    r.host_s = timed(threads(), [&] { y = net_->forward(batches_[k]); });
    r.digest = digest_of(y);
    r.finite = all_finite(y.data());
    r.items = static_cast<double>(kBatch);
    r.sample_ms = r.host_s * 1e3;
    if (first_[k].rank() == 0) first_[k] = std::move(y);
    return r;
  }

  LogitError quality() override {
    LogitError e;
    for (std::size_t k = 0; k < kBatches; ++k) {
      e.add(first_[k], model_->forward(batches_[k], false));
    }
    return e;
  }

  void simulated_stats(Record&) override {}

  std::uint64_t input_digest() const override {
    Digest d;
    d.add(calib_.data());
    for (const nn::Tensor& b : batches_) d.add(b.data());
    return d.value();
  }
  const rc::EngineConfig& engine_config() const override { return cfg_; }

  void trace(Record& rec) override {
    add_lowering_metrics(rec,
                         profile_lowering(*model_, cfg_, calib_, kTraceReps));
    add_network_metrics(rec, profile_network(*net_, batches_[0], kTraceReps));
    rec.set("events.dense_ratio",
            events_dense_ratio(*model_, cfg_, calib_, *net_, batches_[0], 3),
            "ratio");
    rec.set("parallel.efficiency",
            parallel_efficiency(*net_, batches_[0], kTraceReps), "ratio");
  }

 private:
  rc::EngineConfig cfg_;
  std::unique_ptr<nn::Sequential> model_;
  nn::Tensor calib_;
  std::vector<nn::Tensor> batches_;
  std::unique_ptr<rc::ResipeNetwork> net_;
  std::vector<nn::Tensor> first_;
};

// ---------------------------------------------------------------------
// mlp_serve: trained MLP-1 on a 3-replica ChipPool behind the
// scheduler; open-loop Poisson traces on the virtual clock at the
// pool's computed capacity, replayed back to back at one thread.

class MlpServe final : public Workload {
 public:
  static constexpr std::size_t kChips = 3;
  static constexpr std::size_t kTraces = 8;
  static constexpr double kRequestsPerTrace = 1024.0;
  static constexpr double kLoad = 1.0;

  explicit MlpServe(std::uint64_t seed) {
    // Set-up runs at the loop's single thread too: a pool worker that
    // joins the pool's canary forward only sometimes would add its
    // allocator arena to the peak resident set only sometimes.
    resipe::set_default_threads(threads());
    Rng model_rng(kModelSeed);
    model_ = std::make_unique<nn::Sequential>(
        nn::build_benchmark(nn::BenchmarkNet::kMlp1, model_rng));
    Rng train_rng(kTrainSeed);
    Rng test_rng(hash_seed(seed, kTestStream));
    const nn::Dataset train = nn::synthetic_digits(1024, train_rng);
    test_ = nn::synthetic_digits(512, test_rng);
    nn::TrainConfig tc;
    tc.epochs = 5;
    tc.batch_size = 32;
    tc.lr = 1e-3;
    tc.shuffle_seed = kTrainSeed;
    train_accuracy_ = nn::fit(*model_, train, test_, tc).test_accuracy;
    calib_ = rows_of(train, 0, 48);

    std::vector<rc::EngineConfig> replicas(kChips);
    for (std::size_t c = 0; c < kChips; ++c) {
      replicas[c].program_seed = hash_seed(kModelSeed, kChipStream, c);
    }
    cfg_ = replicas[0];
    pool_ = std::make_unique<sv::ChipPool>(*model_, calib_, replicas, scfg_);

    // Capacity from the chips' own service model: full batches back to
    // back on every replica.
    const double batch_s = pool_->service_time(0, scfg_.batch_max);
    const double capacity = static_cast<double>(kChips * scfg_.batch_max) /
                            batch_s;
    for (std::size_t t = 0; t < kTraces; ++t) {
      sv::TrafficConfig tc_traffic;
      tc_traffic.rate = kLoad * capacity;
      tc_traffic.duration = kRequestsPerTrace / tc_traffic.rate;
      tc_traffic.seed = hash_seed(seed, kTrafficStream, t);
      traffic_.push_back(tc_traffic);
    }
    first_.resize(kTraces);
    run_op(0);
  }

  std::size_t threads() const override { return 1; }
  std::size_t distinct_ops() const override { return kTraces; }

  OpResult run_op(std::size_t k) override {
    sv::Scheduler scheduler(*pool_, scfg_);
    for (sv::Request& r : trace(k)) scheduler.submit(std::move(r));
    std::vector<sv::Response> responses;
    OpResult r;
    r.host_s = timed(threads(), [&] { responses = scheduler.run(); });
    const sv::ServingStats& s = scheduler.stats();
    Digest d;
    for (const sv::Response& resp : responses) {
      d.add(resp.id);
      d.add(static_cast<std::uint64_t>(resp.status));
      d.add(static_cast<std::uint64_t>(resp.chip));
      d.add(static_cast<std::uint64_t>(resp.attempts));
      d.add(resp.logits);
      r.finite = r.finite && all_finite(resp.logits);
    }
    for (const std::size_t v :
         {s.submitted, s.served_ok, s.served_degraded, s.shed_queue_full,
          s.shed_deadline, s.shed_quarantine, s.late_completions, s.retries,
          s.batches}) {
      d.add(static_cast<std::uint64_t>(v));
    }
    d.add(s.p50);
    d.add(s.p99);
    r.digest = d.value();
    r.items = static_cast<double>(s.served_ok + s.served_degraded);
    r.sample_ms = r.host_s * 1e3 / static_cast<double>(s.submitted);
    if (!first_[k].seen) first_[k] = {true, std::move(responses), s};
    return r;
  }

  LogitError quality() override {
    LogitError e;
    for (const First& f : first_) {
      std::vector<std::size_t> tags;
      std::vector<double> served;
      for (const sv::Response& resp : f.responses) {
        if (!resp.served()) continue;
        tags.push_back(resp.tag);
        served.insert(served.end(), resp.logits.begin(), resp.logits.end());
      }
      if (tags.empty()) continue;
      const nn::Tensor software =
          model_->forward(test_.gather(tags).first, false);
      e.add(nn::Tensor({tags.size(), software.dim(1)}, std::move(served)),
            software);
    }
    return e;
  }

  void simulated_stats(Record& rec) override {
    double submitted = 0, shed = 0, degraded = 0, retries = 0, batches = 0,
           served = 0, correct = 0, p50 = 0, p99 = 0;
    for (const First& f : first_) {
      const sv::ServingStats& s = f.stats;
      submitted += static_cast<double>(s.submitted);
      shed += static_cast<double>(s.shed());
      degraded += static_cast<double>(s.served_degraded);
      retries += static_cast<double>(s.retries);
      batches += static_cast<double>(s.batches);
      p50 += s.p50 / kTraces;
      p99 += s.p99 / kTraces;
      for (const sv::Response& resp : f.responses) {
        if (!resp.served()) continue;
        served += 1;
        const auto best = std::max_element(resp.logits.begin(),
                                           resp.logits.end()) -
                          resp.logits.begin();
        if (best == test_.labels[resp.tag]) correct += 1;
      }
    }
    rec.set("served_accuracy", correct / served, "ratio");
    rec.set("serve_failed_frac", (shed + degraded) / submitted, "ratio");
    rec.set("sim.submitted", submitted, "count");
    rec.set("sim.shed", shed, "count");
    rec.set("sim.degraded", degraded, "count");
    rec.set("sim.retries", retries, "count");
    rec.set("sim.batches", batches, "count");
    rec.set("sim.virtual_p50_us", p50 * 1e6, "us");
    rec.set("sim.virtual_p99_us", p99 * 1e6, "us");
    rec.set("sim.model_test_accuracy", train_accuracy_, "ratio");
  }


  std::uint64_t input_digest() const override {
    Digest d;
    d.add(calib_.data());
    for (std::size_t k = 0; k < kTraces; ++k) {
      for (const sv::Request& r : trace(k)) {
        d.add(r.arrival);
        d.add(r.input);
      }
    }
    return d.value();
  }
  const rc::EngineConfig& engine_config() const override { return cfg_; }

  void trace(Record& rec) override {
    const nn::Tensor batch = rows_of(test_, 0, scfg_.batch_max);
    const rc::ResipeNetwork& net = pool_->network(0);
    add_lowering_metrics(rec, profile_lowering(*model_, cfg_, calib_,
                                               kTraceReps));
    add_network_metrics(rec, profile_network(net, batch, kTraceReps));
    rec.set("events.dense_ratio",
            events_dense_ratio(*model_, cfg_, calib_, net, batch, kTraceReps),
            "ratio");
    rec.set("parallel.efficiency",
            parallel_efficiency(net, batch, kTraceReps), "ratio");
    trace_serving(rec);
  }

 private:
  std::vector<sv::Request> trace(std::size_t k) const {
    return sv::poisson_traffic(test_.images, traffic_[k]);
  }

  struct First {
    bool seen = false;
    std::vector<sv::Response> responses;
    sv::ServingStats stats;
  };

  /// Scheduler::run with an EventJournal attached, then the pool calls
  /// it made replayed from outside: ChipPool::infer at the journal's
  /// batch sizes and run_probe_round at its probe count.  Each
  /// repetition also runs the trace without a journal (the overhead).
  void trace_serving(Record& rec) {
    resipe::set_default_threads(threads());
    const std::vector<sv::Request> requests = trace(0);
    std::vector<nn::Tensor> inputs(scfg_.batch_max + 1);
    for (std::size_t n = 1; n <= scfg_.batch_max; ++n) {
      inputs[n] = rows_of(test_, 0, n);
    }
    std::vector<double> run_ms, plain_ms, infer_ms, probe_ms, attributed,
        overhead;
    sv::ServingStats stats;
    for (int rep = 0; rep < kTraceReps; ++rep) {
      sv::EventJournal journal(std::size_t{1} << 16);
      const auto replay_run = [&](bool journaled) {
        sv::Scheduler scheduler(*pool_, scfg_);
        if (journaled) scheduler.attach_journal(&journal);
        for (const sv::Request& r : requests) scheduler.submit(r);
        const auto t0 = Clock::now();
        scheduler.run();
        (journaled ? run_ms : plain_ms).push_back(seconds_since(t0) * 1e3);
        stats = scheduler.stats();
      };
      // Alternate whether the journaled or the plain run goes first
      // (see profile_network).
      replay_run(rep % 2 == 0);
      if (rep % 2 != 0) replay_run(true);

      std::size_t probes = 0;
      std::vector<std::pair<std::size_t, std::size_t>> batches;  // chip, n
      for (const sv::ServeEvent& e : journal.events()) {
        if (e.kind == sv::ServeEventKind::kBatchForm) {
          batches.emplace_back(e.chip, static_cast<std::size_t>(e.value));
        } else if (e.kind == sv::ServeEventKind::kProbe) {
          ++probes;
        }
      }
      auto t0 = Clock::now();
      for (const auto& [chip, n] : batches) pool_->infer(chip, inputs[n]);
      infer_ms.push_back(seconds_since(t0) * 1e3);
      t0 = Clock::now();
      for (std::size_t r = 0; r < probes / pool_->size(); ++r) {
        pool_->run_probe_round();
      }
      probe_ms.push_back(seconds_since(t0) * 1e3);
      if (rep % 2 == 0) replay_run(false);

      attributed.push_back((infer_ms.back() + probe_ms.back()) / run_ms.back());
      overhead.push_back(run_ms.back() / plain_ms.back());
    }
    rec.set("serve.run_ms", fastest(run_ms), "ms");
    rec.set("serve.infer_ms", fastest(infer_ms), "ms");
    rec.set("serve.probe_ms", fastest(probe_ms), "ms");
    rec.set("serve.sched_self_ms",
            fastest(run_ms) - fastest(infer_ms) - fastest(probe_ms), "ms");
    rec.set("serve.attributed_frac", median(attributed), "ratio");
    rec.set("serve.batches", static_cast<double>(stats.batches), "count");
    rec.set("serve.mean_batch", stats.mean_batch, "count");
    rec.set("serve.retries", static_cast<double>(stats.retries), "count");
    rec.set("serve.shed", static_cast<double>(stats.shed()), "count");
    rec.set("trace.overhead_frac", median(overhead) - 1.0, "ratio");
  }

  sv::ServeConfig scfg_;
  rc::EngineConfig cfg_;
  std::unique_ptr<nn::Sequential> model_;
  nn::Dataset test_;
  nn::Tensor calib_;
  double train_accuracy_ = 0.0;
  std::unique_ptr<sv::ChipPool> pool_;
  // Traces are regenerated per op rather than kept: 8 traces of ~1024
  // flattened images would dominate the process's resident set.
  std::vector<sv::TrafficConfig> traffic_;
  std::vector<First> first_;
};

// ---------------------------------------------------------------------
// lower_sweep: Fig-7-style Monte-Carlo on CNN-1.  Each trial lowers the
// network with its own program seed on a fixed calibration batch and
// evaluates a fixed batch, at two threads.

class LowerSweep final : public Workload {
 public:
  static constexpr std::size_t kCalib = 32;
  static constexpr std::size_t kEval = 64;
  static constexpr std::size_t kTrials = 8;

  explicit LowerSweep(std::uint64_t seed) : seed_(seed) {
    Rng model_rng(kModelSeed);
    model_ = std::make_unique<nn::Sequential>(
        nn::build_benchmark(nn::BenchmarkNet::kCnn1, model_rng));
    Rng data_rng(hash_seed(seed, kDataStream));
    const nn::Dataset data = nn::synthetic_digits(kCalib + kEval, data_rng);
    calib_ = rows_of(data, 0, kCalib);
    eval_ = rows_of(data, kCalib, kEval);
    cfg_.program_seed = trial_seed(0);
    first_.resize(kTrials);
    run_op(0);
  }

  std::size_t threads() const override { return 2; }
  std::size_t distinct_ops() const override { return kTrials; }

  OpResult run_op(std::size_t k) override {
    rc::EngineConfig cfg = cfg_;
    cfg.program_seed = trial_seed(k);
    nn::Tensor y;
    OpResult r;
    r.host_s = timed(threads(), [&] {
      const rc::ResipeNetwork net(*model_, cfg, calib_);
      y = net.forward(eval_);
    });
    r.digest = digest_of(y);
    r.finite = all_finite(y.data());
    r.items = 1.0;
    r.sample_ms = r.host_s * 1e3;
    if (first_[k].rank() == 0) first_[k] = std::move(y);
    return r;
  }

  LogitError quality() override {
    LogitError e;
    const nn::Tensor software = model_->forward(eval_, false);
    for (const nn::Tensor& y : first_) e.add(y, software);
    return e;
  }

  void simulated_stats(Record&) override {}

  std::uint64_t input_digest() const override {
    Digest d;
    d.add(calib_.data());
    d.add(eval_.data());
    return d.value();
  }
  const rc::EngineConfig& engine_config() const override { return cfg_; }

  void trace(Record& rec) override {
    const rc::ResipeNetwork net(*model_, cfg_, calib_);
    add_lowering_metrics(rec,
                         profile_lowering(*model_, cfg_, calib_, kTraceReps));
    add_network_metrics(rec, profile_network(net, eval_, kTraceReps));
    rec.set("lower.eval_ms", rec.get("network.forward_ms"), "ms");
    rec.set("events.dense_ratio",
            events_dense_ratio(*model_, cfg_, calib_, net, eval_, kTraceReps),
            "ratio");
    rec.set("parallel.efficiency",
            parallel_efficiency(net, eval_, kTraceReps), "ratio");
  }

 private:
  std::uint64_t trial_seed(std::size_t k) const {
    return hash_seed(seed_, kTrialStream, k);
  }

  std::uint64_t seed_;
  rc::EngineConfig cfg_;
  std::unique_ptr<nn::Sequential> model_;
  nn::Tensor calib_, eval_;
  std::vector<nn::Tensor> first_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"conv_batch", "mlp_serve",
                                                 "lower_sweep"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "conv_batch") return std::make_unique<ConvBatch>(seed);
  if (name == "mlp_serve") return std::make_unique<MlpServe>(seed);
  if (name == "lower_sweep") return std::make_unique<LowerSweep>(seed);
  throw std::runtime_error("unknown workload '" + name + "'");
}

}  // namespace perfbench
