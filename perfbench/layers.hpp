// Outside-in per-layer profiles.  Every figure is taken by timing calls
// into public functions of resipe_core and nn from here: step
// boundaries through ResipeNetwork::forward_observed, matrix phases by
// replaying ProgrammedMatrix::forward_batch, SpikeCodec::encode_times
// and FastMvm::mvm_times_batch at the engine's call shapes on the step
// inputs the observer hands back, and lowering phases by replaying the
// ResipeNetwork constructor.  All profiles run at one worker thread so
// that the phases of one step add up to its wall time.
//
// Timings on a shared host swing by tens of percent from one second to
// the next, so reported times are the fastest of several repetitions,
// and the attribution checks compare each repetition with the one it
// ran beside (a traced forward with its untraced twin, the replayed
// phases with their constructor) and take the median of those ratios.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "bench.hpp"
#include "resipe/nn/model.hpp"
#include "resipe/resipe/network.hpp"

namespace perfbench {

/// Largest |sum of steps - untraced forward| / forward the step
/// attribution may show, and the same for |sum of lowering phases -
/// constructor| / constructor.  The medians of paired ratios still
/// wander by up to ~0.15 on a shared host; a lost conv or lowering
/// phase moves them by more, and a lost step of any size fails the
/// step count instead.
inline constexpr double kStepTolerance = 0.3;
inline constexpr double kLoweringTolerance = 0.3;

enum class StepKind { kFunctional, kDense, kConv };

struct NetworkProfile {
  std::size_t step_count = 0;   ///< steps the network has
  std::vector<StepKind> kind;   ///< per step
  // One entry per repetition: forward and forward_observed back to back.
  std::vector<double> forward_ms;            ///< untraced forward
  std::vector<double> traced_ms;             ///< forward_observed
  std::vector<std::vector<double>> step_ms;  ///< observed steps
  double images = 0.0;
  // Replay of the matrix steps at the engine's call shapes (fastest rep).
  double calls = 0.0;           ///< forward_batch calls
  double vectors = 0.0;         ///< vectors through forward_batch
  double block_mvms = 0.0;      ///< tile MVMs (vectors x blocks)
  double matrix_ms = 0.0;       ///< every forward_batch call
  double conv_matrix_ms = 0.0;  ///< forward_batch calls of conv steps
  double encode_ms = 0.0;       ///< SpikeCodec::encode_times replay
  double mvm_ms = 0.0;          ///< FastMvm::mvm_times_batch replay
  double gather_ms = 0.0;       ///< gather_conv_patch for every patch
  // Spike activity of the encoded matrix-step inputs.
  double active_rows = 0.0, rows = 0.0;
  double active_windows = 0.0, windows = 0.0;

  /// The repetition with the fastest traced forward; its step times are
  /// the ones reported.
  std::size_t fastest_rep() const;
  double kind_ms(StepKind k) const;
};

/// Profiles `net` on `batch` over `reps` repetitions at one thread.
NetworkProfile profile_network(const resipe::resipe_core::ResipeNetwork& net,
                               const resipe::nn::Tensor& batch, int reps);

struct LoweringProfile {
  // One entry per repetition: the constructor, then its replayed phases.
  std::vector<double> ctor_ms;       ///< ResipeNetwork constructor
  std::vector<double> reference_ms;  ///< nn::Layer::forward, calibration
  std::vector<double> program_ms;    ///< ProgrammedMatrix construction
  std::vector<double> calibrate_ms;  ///< scale, patch gather, calibrate_alpha
  double cells = 0.0;                ///< crossbar cells programmed

  double phases_ms(std::size_t r) const {
    return reference_ms[r] + program_ms[r] + calibrate_ms[r];
  }
};

LoweringProfile profile_lowering(resipe::nn::Sequential& model,
                                 const resipe::resipe_core::EngineConfig& cfg,
                                 const resipe::nn::Tensor& calibration,
                                 int reps);

/// Forward time with EngineConfig::events on over off, on the same
/// silicon and batch (one thread).  Throws when the logits differ.
double events_dense_ratio(resipe::nn::Sequential& model,
                          const resipe::resipe_core::EngineConfig& cfg,
                          const resipe::nn::Tensor& calibration,
                          const resipe::resipe_core::ResipeNetwork& dense,
                          const resipe::nn::Tensor& batch, int reps);

/// Forward at one thread / (2 x forward at two threads).
double parallel_efficiency(const resipe::resipe_core::ResipeNetwork& net,
                           const resipe::nn::Tensor& batch, int reps);

/// Books the network.*, matrix.*, mvm.*, conv.*, act.* metrics and
/// trace.overhead_frac.
void add_network_metrics(Record& rec, const NetworkProfile& p);
/// Books the lower.* metrics.
void add_lowering_metrics(Record& rec, const LoweringProfile& p);

/// The traced run's attribution checks over a booked record: every
/// step observed, steps within kStepTolerance of the untraced forward,
/// lowering phases within kLoweringTolerance of the constructor, and
/// serving infer + probe within Scheduler::run (serve.attributed_frac,
/// when booked).  Empty when all hold; else one line per failed check.
std::string attribution_failures(const Record& rec);

}  // namespace perfbench
