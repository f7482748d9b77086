#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "resipe/common/parallel.hpp"
#include "resipe/crossbar/mapping.hpp"
#include "resipe/nn/layers.hpp"
#include "resipe/resipe/events/event_queue.hpp"
#include "resipe/resipe/fast_mvm.hpp"
#include "resipe/resipe/spike_code.hpp"

namespace perfbench {

namespace rc = resipe::resipe_core;
namespace nn = resipe::nn;

namespace {

/// The constructor's cap on calibration vectors per layer (network.cpp);
/// the lowering replay must do the same work.
constexpr std::size_t kMaxCalibVectors = 512;

double ms_since(Clock::time_point t0) { return seconds_since(t0) * 1e3; }

double sum(const std::vector<double>& v) {
  double t = 0.0;
  for (const double x : v) t += x;
  return t;
}

/// Restores the default thread count when a profile ends.
class ThreadScope {
 public:
  explicit ThreadScope(std::size_t n) : previous_(resipe::default_threads()) {
    resipe::set_default_threads(n);
  }
  ~ThreadScope() { resipe::set_default_threads(previous_); }
  ThreadScope(const ThreadScope&) = delete;
  ThreadScope& operator=(const ThreadScope&) = delete;

 private:
  std::size_t previous_;
};

/// The weight matrix ([in, out] row-major) a matrix layer is lowered from.
std::vector<double> lowered_weights(nn::Layer& layer) {
  if (auto* dense = dynamic_cast<nn::Dense*>(&layer)) {
    const auto w = dense->weights().data();
    return {w.begin(), w.end()};
  }
  if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) {
    return rc::conv_weight_matrix(*conv);
  }
  throw std::runtime_error("matrix step without a Dense/Conv2d layer");
}

/// Captures every step's input during one forward_observed pass.
struct CaptureObserver : rc::LayerObserver {
  struct Step {
    nn::Layer* layer = nullptr;
    const rc::ProgrammedMatrix* matrix = nullptr;
    bool is_conv = false;
    nn::Tensor input;
  };
  std::vector<Step> steps;
  void on_step(std::size_t, nn::Layer& layer, const rc::ProgrammedMatrix* m,
               bool is_conv, const nn::Tensor& input,
               const nn::Tensor&) override {
    steps.push_back({&layer, m, is_conv, input});
  }
};

/// Timestamps step boundaries: step i lasts from the previous callback
/// (or the start of the forward) to its own callback.
struct StampObserver : rc::LayerObserver {
  Clock::time_point last;
  std::vector<double> ms;
  void on_step(std::size_t, nn::Layer&, const rc::ProgrammedMatrix*, bool,
               const nn::Tensor&, const nn::Tensor&) override {
    const Clock::time_point now = Clock::now();
    ms.push_back(std::chrono::duration<double, std::milli>(now - last).count());
    last = now;
  }
};

/// Stand-in tiles of one matrix step for the encode/MVM replay: same
/// block shapes as the programmed matrix, loaded with the mapped target
/// conductances of the real weights.
struct ReplayMatrix {
  struct Block {
    std::size_t row0 = 0, rows = 0, cols = 0;
    std::unique_ptr<rc::FastMvm> mvm;
  };
  const rc::ProgrammedMatrix* pm = nullptr;
  std::size_t in = 0, tile_rows = 0;
  std::vector<Block> blocks;
  std::unique_ptr<rc::SpikeCodec> codec;
  double slice = 0.0;

  ReplayMatrix(const rc::EngineConfig& cfg, nn::Layer& layer,
               const rc::ProgrammedMatrix* m)
      : pm(m), in(m->in_features()), tile_rows(cfg.tile_rows) {
    const std::vector<double> w = lowered_weights(layer);
    const auto mapped = resipe::crossbar::map_weights(
        w, m->in_features(), m->out_features(), cfg.device, cfg.mapping);
    for (std::size_t row0 = 0; row0 < in; row0 += cfg.tile_rows) {
      const std::size_t rows = std::min(cfg.tile_rows, in - row0);
      for (std::size_t col0 = 0; col0 < mapped.cols; col0 += cfg.tile_cols) {
        const std::size_t cols = std::min(cfg.tile_cols, mapped.cols - col0);
        std::vector<double> g(rows * cols);
        for (std::size_t r = 0; r < rows; ++r) {
          for (std::size_t c = 0; c < cols; ++c) {
            g[r * cols + c] =
                mapped.g_targets[(row0 + r) * mapped.cols + col0 + c];
          }
        }
        blocks.push_back({row0, rows, cols, std::make_unique<rc::FastMvm>(
                                                cfg.circuit, rows, cols,
                                                std::move(g))});
      }
    }
    if (blocks.size() != m->tile_count()) {
      throw std::runtime_error(
          "replay tiles do not match the programmed matrix");
    }
    codec = std::make_unique<rc::SpikeCodec>(cfg.circuit, cfg.quantize_spikes);
    slice = cfg.circuit.slice_length;
  }
};

/// Per-replay sums (one pass over every matrix step).
struct ReplaySums {
  double calls = 0, vectors = 0, block_mvms = 0;
  double matrix_ms = 0, conv_matrix_ms = 0, encode_ms = 0, mvm_ms = 0,
         gather_ms = 0;
  double active_rows = 0, rows = 0, active_windows = 0, windows = 0;
};

struct ReplayScratch {
  rc::ProgrammedMatrix::BatchWorkspace ws;
  rc::FastMvm::BatchScratch mvm;
  std::vector<double> y, scaled, t_in, t_rows, t_out;
};

/// One forward_batch call of `n` vectors, then its encode and MVM
/// phases replayed on the same vectors.
void replay_call(const ReplayMatrix& rm, std::span<const double> x,
                 std::size_t n, bool conv, ReplaySums& s, ReplayScratch& sc) {
  const std::size_t out = rm.pm->out_features();
  sc.y.resize(n * out);
  auto t0 = Clock::now();
  rm.pm->forward_batch(x, n, sc.y, sc.ws);
  const double fwd = ms_since(t0);
  s.matrix_ms += fwd;
  if (conv) s.conv_matrix_ms += fwd;
  s.calls += 1;
  s.vectors += static_cast<double>(n);
  s.block_mvms += static_cast<double>(n * rm.blocks.size());

  // Encode exactly as the engine does: scale into [0, alpha], then the
  // batched codec, one vector at a time.
  const double scale = rm.pm->input_scale();
  const double alpha = rm.pm->time_scale();
  sc.scaled.resize(rm.in);
  sc.t_in.resize(n * rm.in);
  t0 = Clock::now();
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t i = 0; i < rm.in; ++i) {
      sc.scaled[i] = alpha * std::clamp(x[v * rm.in + i] / scale, 0.0, 1.0);
    }
    rm.codec->encode_times(
        sc.scaled, std::span<double>(sc.t_in.data() + v * rm.in, rm.in));
  }
  s.encode_ms += ms_since(t0);

  for (std::size_t v = 0; v < n; ++v) {
    const double* t = sc.t_in.data() + v * rm.in;
    for (std::size_t row0 = 0; row0 < rm.in; row0 += rm.tile_rows) {
      const std::size_t rows = std::min(rm.tile_rows, rm.in - row0);
      std::size_t active = 0;
      for (std::size_t r = 0; r < rows; ++r) {
        if (resipe::resipe_core::events::EventQueue::carries_spike(t[row0 + r],
                                                                    rm.slice)) {
          ++active;
        }
      }
      s.active_rows += static_cast<double>(active);
      s.rows += static_cast<double>(rows);
      s.active_windows += active > 0 ? 1.0 : 0.0;
      s.windows += 1.0;
    }
  }

  for (const ReplayMatrix::Block& b : rm.blocks) {
    sc.t_rows.resize(n * b.rows);
    for (std::size_t v = 0; v < n; ++v) {
      std::copy_n(sc.t_in.data() + v * rm.in + b.row0, b.rows,
                  sc.t_rows.data() + v * b.rows);
    }
    sc.t_out.resize(n * b.cols);
    t0 = Clock::now();
    b.mvm->mvm_times_batch(sc.t_rows, n, sc.t_out, sc.mvm);
    s.mvm_ms += ms_since(t0);
  }
}

/// Replays every matrix step once, with the call shapes the engine
/// uses at one thread: dense steps in parallel_for_chunked's default
/// chunks, conv steps one output row of patches per call.
ReplaySums replay_steps(const std::vector<CaptureObserver::Step>& steps,
                        const std::vector<std::unique_ptr<ReplayMatrix>>& rms) {
  ReplaySums s;
  ReplayScratch sc;
  std::vector<double> patches;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const CaptureObserver::Step& st = steps[i];
    if (st.matrix == nullptr) continue;
    const ReplayMatrix& rm = *rms[i];
    const nn::Tensor& x = st.input;
    const std::size_t n = x.dim(0);
    if (!st.is_conv) {
      const std::size_t grain = std::max<std::size_t>(1, n / 4);
      for (std::size_t b = 0; b < n; b += grain) {
        const std::size_t e = std::min(b + grain, n);
        replay_call(rm, x.data().subspan(b * rm.in, (e - b) * rm.in), e - b,
                    false, s, sc);
      }
      continue;
    }
    auto& conv = dynamic_cast<nn::Conv2d&>(*st.layer);
    const std::size_t oh = conv.out_size(x.dim(2));
    const std::size_t ow = conv.out_size(x.dim(3));
    patches.resize(ow * rm.in);
    for (std::size_t img = 0; img < n; ++img) {
      for (std::size_t r = 0; r < oh; ++r) {
        const auto t0 = Clock::now();
        for (std::size_t c = 0; c < ow; ++c) {
          rc::gather_conv_patch(x, img, conv.in_channels(), conv.kernel(),
                                conv.stride(), conv.pad(), r, c,
                                std::span<double>(patches.data() + c * rm.in,
                                                  rm.in));
        }
        s.gather_ms += ms_since(t0);
        replay_call(rm, patches, ow, true, s, sc);
      }
    }
  }
  return s;
}

}  // namespace

std::size_t NetworkProfile::fastest_rep() const {
  return static_cast<std::size_t>(
      std::min_element(traced_ms.begin(), traced_ms.end()) -
      traced_ms.begin());
}

double NetworkProfile::kind_ms(StepKind k) const {
  const std::vector<double>& steps = step_ms[fastest_rep()];
  double t = 0.0;
  for (std::size_t i = 0; i < steps.size() && i < kind.size(); ++i) {
    if (kind[i] == k) t += steps[i];
  }
  return t;
}

NetworkProfile profile_network(const rc::ResipeNetwork& net,
                               const nn::Tensor& batch, int reps) {
  const ThreadScope one(1);
  NetworkProfile p;
  p.step_count = net.step_count();
  p.images = static_cast<double>(batch.dim(0));

  CaptureObserver cap;
  net.forward_observed(batch, cap);
  std::vector<std::unique_ptr<ReplayMatrix>> rms(cap.steps.size());
  for (std::size_t i = 0; i < cap.steps.size(); ++i) {
    const auto& st = cap.steps[i];
    p.kind.push_back(st.matrix == nullptr
                         ? StepKind::kFunctional
                         : (st.is_conv ? StepKind::kConv : StepKind::kDense));
    if (st.matrix != nullptr) {
      rms[i] = std::make_unique<ReplayMatrix>(net.config(), *st.layer,
                                              st.matrix);
    }
  }

  // Alternate which of the pair runs first, so a host that speeds up or
  // slows down during the profile biases neither.
  for (int r = 0; r < reps; ++r) {
    StampObserver stamp;
    double fwd = 0.0, traced = 0.0;
    for (const bool observed : {r % 2 == 0, r % 2 != 0}) {
      const auto t0 = stamp.last = Clock::now();
      if (observed) {
        net.forward_observed(batch, stamp);
        traced = ms_since(t0);
      } else {
        net.forward(batch);
        fwd = ms_since(t0);
      }
    }
    p.forward_ms.push_back(fwd);
    p.traced_ms.push_back(traced);
    p.step_ms.push_back(std::move(stamp.ms));
  }

  std::vector<ReplaySums> sums;
  for (int r = 0; r < reps; ++r) sums.push_back(replay_steps(cap.steps, rms));
  const auto fastest_of = [&](double ReplaySums::*field) {
    double v = sums[0].*field;
    for (const ReplaySums& s : sums) v = std::min(v, s.*field);
    return v;
  };
  p.calls = sums[0].calls;
  p.vectors = sums[0].vectors;
  p.block_mvms = sums[0].block_mvms;
  p.active_rows = sums[0].active_rows;
  p.rows = sums[0].rows;
  p.active_windows = sums[0].active_windows;
  p.windows = sums[0].windows;
  p.matrix_ms = fastest_of(&ReplaySums::matrix_ms);
  p.conv_matrix_ms = fastest_of(&ReplaySums::conv_matrix_ms);
  p.encode_ms = fastest_of(&ReplaySums::encode_ms);
  p.mvm_ms = fastest_of(&ReplaySums::mvm_ms);
  p.gather_ms = fastest_of(&ReplaySums::gather_ms);
  return p;
}

LoweringProfile profile_lowering(nn::Sequential& model,
                                 const rc::EngineConfig& cfg,
                                 const nn::Tensor& calibration, int reps) {
  LoweringProfile p;
  const auto construct = [&] {
    const auto t0 = Clock::now();
    { const rc::ResipeNetwork net(model, cfg, calibration); }
    p.ctor_ms.push_back(ms_since(t0));
  };
  for (int rep = 0; rep < reps; ++rep) {
    // Alternate the order of constructor and replay (see profile_network).
    if (rep % 2 == 0) construct();

    // The constructor's steps, one phase at a time, with the same
    // programming stream so write-verify does identical work.
    resipe::Rng rng(cfg.program_seed);
    nn::Tensor h = calibration;
    double ref_ms = 0.0, prog_ms = 0.0, cal_ms = 0.0, cells = 0.0;
    for (std::size_t li = 0; li < model.layer_count(); ++li) {
      nn::Layer& layer = model.layer(li);
      auto* dense = dynamic_cast<nn::Dense*>(&layer);
      auto* conv = dynamic_cast<nn::Conv2d*>(&layer);
      if (dense != nullptr || conv != nullptr) {
        const std::size_t in = dense ? dense->in_features()
                                     : conv->in_channels() * conv->kernel() *
                                           conv->kernel();
        const std::size_t out =
            dense ? dense->out_features() : conv->out_channels();
        auto t0 = Clock::now();
        const std::vector<double> w = lowered_weights(layer);
        const auto bias = dense ? dense->bias().data() : conv->bias().data();
        rc::ProgrammedMatrix pm(cfg, w, bias, in, out, rng);
        prog_ms += ms_since(t0);
        cells += static_cast<double>(
            in * resipe::crossbar::map_weights(w, in, out, cfg.device,
                                               cfg.mapping)
                     .cols);

        t0 = Clock::now();
        const double m = h.abs_max() * cfg.input_scale_margin;
        pm.set_input_scale(m > 0.0 ? m : 1.0);
        if (dense != nullptr) {
          const std::size_t n = std::min(h.dim(0), kMaxCalibVectors);
          pm.calibrate_alpha(h.data().first(n * in), n);
        } else {
          const std::size_t oh = conv->out_size(h.dim(2));
          const std::size_t ow = conv->out_size(h.dim(3));
          const std::size_t total = h.dim(0) * oh * ow;
          const std::size_t take = std::min(total, kMaxCalibVectors);
          std::vector<double> patches(take * in, 0.0);
          const std::size_t stride = std::max<std::size_t>(1, total / take);
          std::size_t written = 0;
          for (std::size_t pos = 0; pos < total && written < take;
               pos += stride, ++written) {
            const std::size_t rcn = pos % (oh * ow);
            rc::gather_conv_patch(
                h, pos / (oh * ow), conv->in_channels(), conv->kernel(),
                conv->stride(), conv->pad(), rcn / ow, rcn % ow,
                std::span<double>(patches.data() + written * in, in));
          }
          pm.calibrate_alpha(std::span<const double>(patches.data(),
                                                     written * in),
                             written);
        }
        cal_ms += ms_since(t0);
      }
      const auto t_ref = Clock::now();
      h = layer.forward(h, /*train=*/false);
      ref_ms += ms_since(t_ref);
    }
    p.cells = cells;
    p.reference_ms.push_back(ref_ms);
    p.program_ms.push_back(prog_ms);
    p.calibrate_ms.push_back(cal_ms);
    if (rep % 2 != 0) construct();
  }
  return p;
}

double events_dense_ratio(nn::Sequential& model, const rc::EngineConfig& cfg,
                          const nn::Tensor& calibration,
                          const rc::ResipeNetwork& dense,
                          const nn::Tensor& batch, int reps) {
  rc::EngineConfig ev_cfg = cfg;
  ev_cfg.events.enabled = true;
  const rc::ResipeNetwork events(model, ev_cfg, calibration);
  const ThreadScope one(1);
  std::vector<double> t_dense, t_events;
  nn::Tensor y_dense, y_events;
  for (int r = 0; r < reps; ++r) {
    auto t0 = Clock::now();
    y_dense = dense.forward(batch);
    t_dense.push_back(seconds_since(t0));
    t0 = Clock::now();
    y_events = events.forward(batch);
    t_events.push_back(seconds_since(t0));
  }
  Digest a, b;
  a.add(y_dense.data());
  b.add(y_events.data());
  if (a.value() != b.value()) {
    throw std::runtime_error("event-driven logits differ from the dense path");
  }
  return fastest(t_events) / fastest(t_dense);
}

double parallel_efficiency(const rc::ResipeNetwork& net,
                           const nn::Tensor& batch, int reps) {
  std::vector<double> t1, t2;
  for (int r = 0; r < reps; ++r) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
      const ThreadScope scope(threads);
      const auto t0 = Clock::now();
      net.forward(batch);
      (threads == 1 ? t1 : t2).push_back(seconds_since(t0));
    }
  }
  return fastest(t1) / (2.0 * fastest(t2));
}

void add_network_metrics(Record& rec, const NetworkProfile& p) {
  const std::vector<double>& steps = p.step_ms[p.fastest_rep()];
  std::size_t observed = p.step_count;
  std::vector<double> steps_ratio, traced_ratio;
  for (std::size_t r = 0; r < p.forward_ms.size(); ++r) {
    observed = std::min(observed, p.step_ms[r].size());
    steps_ratio.push_back(sum(p.step_ms[r]) / p.forward_ms[r]);
    traced_ratio.push_back(p.traced_ms[r] / p.forward_ms[r]);
  }
  rec.set("network.forward_ms", fastest(p.forward_ms), "ms");
  rec.set("network.conv_ms", p.kind_ms(StepKind::kConv), "ms");
  rec.set("network.dense_ms", p.kind_ms(StepKind::kDense), "ms");
  rec.set("network.functional_ms", p.kind_ms(StepKind::kFunctional), "ms");
  constexpr std::size_t kNamedSteps = 17;
  for (std::size_t i = 0; i < kNamedSteps; ++i) {
    char name[32];
    std::snprintf(name, sizeof name, "network.step%02zu_ms", i);
    rec.set(name, i < steps.size() ? steps[i] : 0.0, "ms");
  }
  rec.set("network.steps_observed", static_cast<double>(observed), "count");
  rec.set("network.step_count", static_cast<double>(p.step_count), "count");
  rec.set("network.attribution_gap", std::abs(median(steps_ratio) - 1.0),
          "ratio");

  rec.set("matrix.calls_per_image", p.calls / p.images, "count");
  rec.set("matrix.vectors_per_call", p.vectors / p.calls, "count");
  rec.set("matrix.forward_ms", p.matrix_ms, "ms");
  rec.set("matrix.encode_ms", p.encode_ms, "ms");
  rec.set("matrix.mvm_ms", p.mvm_ms, "ms");
  rec.set("matrix.recover_decode_ms", p.matrix_ms - p.encode_ms - p.mvm_ms,
          "ms");

  rec.set("mvm.block_mvms_per_image", p.block_mvms / p.images, "count");
  rec.set("mvm.ns_per_block_mvm", p.mvm_ms * 1e6 / p.block_mvms, "ns");

  rec.set("conv.gather_ms", p.gather_ms, "ms");
  rec.set("conv.scatter_other_ms",
          p.kind_ms(StepKind::kConv) - p.gather_ms - p.conv_matrix_ms, "ms");

  rec.set("act.row_frac", p.active_rows / p.rows, "ratio");
  rec.set("act.block_frac", p.active_windows / p.windows, "ratio");
  rec.set("trace.overhead_frac", median(traced_ratio) - 1.0, "ratio");
}

void add_lowering_metrics(Record& rec, const LoweringProfile& p) {
  std::size_t best = 0;
  std::vector<double> ratio;
  for (std::size_t r = 0; r < p.ctor_ms.size(); ++r) {
    if (p.phases_ms(r) < p.phases_ms(best)) best = r;
    ratio.push_back(p.phases_ms(r) / p.ctor_ms[r]);
  }
  rec.set("lower.total_ms", fastest(p.ctor_ms), "ms");
  rec.set("lower.reference_ms", p.reference_ms[best], "ms");
  rec.set("lower.program_ms", p.program_ms[best], "ms");
  rec.set("lower.calibrate_ms", p.calibrate_ms[best], "ms");
  rec.set("lower.cells_programmed", p.cells, "count");
  rec.set("lower.attribution_gap", std::abs(median(ratio) - 1.0), "ratio");
}

std::string attribution_failures(const Record& rec) {
  std::ostringstream os;
  if (rec.get("network.steps_observed") != rec.get("network.step_count")) {
    os << "observed " << rec.get("network.steps_observed") << " of "
       << rec.get("network.step_count") << " steps\n";
  }
  if (!(rec.get("network.attribution_gap") <= kStepTolerance)) {
    os << "steps differ from the untraced forward by "
       << rec.get("network.attribution_gap") << " (tolerance "
       << kStepTolerance << ")\n";
  }
  if (!(rec.get("lower.attribution_gap") <= kLoweringTolerance)) {
    os << "lowering phases differ from the constructor by "
       << rec.get("lower.attribution_gap") << " (tolerance "
       << kLoweringTolerance << ")\n";
  }
  if (rec.has("serve.attributed_frac") &&
      !(rec.get("serve.attributed_frac") <= 1.0)) {
    os << "serve.infer_ms + serve.probe_ms exceed serve.run_ms (share "
       << rec.get("serve.attributed_frac") << ")\n";
  }
  return os.str();
}

}  // namespace perfbench
