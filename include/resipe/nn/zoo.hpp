// The six benchmark networks of Sec. IV-C.
//
// The paper evaluates MLP-1, MLP-2 (MNIST perceptrons), CNN-1 (LeNet on
// MNIST), CNN-2 (AlexNet on CIFAR-10), CNN-3 (VGG16) and CNN-4 (VGG19).
// CNN-2..4 here are width-reduced variants that keep the depth and
// topology of the originals (5 / 13 / 16 conv layers + the FC head) so
// the depth-ordering of process-variation sensitivity — the property
// Fig. 7 measures — is preserved while CPU-only training stays
// tractable.  See DESIGN.md "Substitutions".
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "resipe/common/rng.hpp"
#include "resipe/nn/model.hpp"
#include "resipe/nn/train.hpp"

namespace resipe::nn {

enum class BenchmarkNet {
  kMlp1,  ///< 1-layer perceptron, 28x28x1 input
  kMlp2,  ///< 2-layer perceptron, 28x28x1 input
  kCnn1,  ///< LeNet (4 weight layers used by the paper), 28x28x1
  kCnn2,  ///< AlexNet-style: 5 conv + 2 FC, 32x32x3
  kCnn3,  ///< VGG16-style: 13 conv + 3 FC, 32x32x3
  kCnn4,  ///< VGG19-style: 16 conv + 3 FC, 32x32x3
};

/// Paper name of the benchmark ("MLP-1", ..., "CNN-4").
std::string benchmark_name(BenchmarkNet net);

/// Short tag of the benchmark ("mlp1", ..., "cnn4"), as command lines
/// and weight-cache file names spell it.
std::string benchmark_tag(BenchmarkNet net);

/// Inverse of benchmark_tag; nullopt for an unknown tag.
std::optional<BenchmarkNet> parse_benchmark_tag(std::string_view tag);

/// True for the 32x32x3 (CIFAR-shaped) benchmarks.
bool uses_object_dataset(BenchmarkNet net);

/// Builds the (untrained) network.
Sequential build_benchmark(BenchmarkNet net, Rng& rng);

/// All six benchmarks in paper order.
std::vector<BenchmarkNet> all_benchmarks();

/// Inputs of train_benchmark.
struct TrainedBenchmarkConfig {
  BenchmarkNet net = BenchmarkNet::kMlp1;
  std::uint64_t data_seed = 7;
  std::size_t train_samples = 256;
  std::size_t test_samples = 64;
  std::size_t epochs = 3;
  /// Weight file loaded when its layer shapes match the model, written
  /// after training otherwise.  Empty: always train, write nothing.
  /// Shapes are all the check sees, so give each recipe its own file.
  std::string weight_cache;
  /// Forwarded to TrainConfig::verbose; also prints one
  /// "loaded cached weights" or "trained: ..." line.
  bool verbose = false;
};

/// A trained benchmark model, its test set and calibration batch.
struct TrainedBenchmark {
  Dataset test;
  Sequential model;
  TrainResult fit;  ///< empty when the weights came from the cache
  Tensor calib;     ///< the first <= 48 training images
};

/// The recipe every trained-benchmark experiment shares: synthetic
/// train/test sets from data_seed (objects for CNN-2 and up, digits
/// otherwise), the model built with Rng(0xC0FFEE + net), weights loaded
/// from the cache or trained with Adam (batch 32, lr 1e-3), and the
/// first <= 48 training images as the engine's calibration batch.
TrainedBenchmark train_benchmark(const TrainedBenchmarkConfig& cfg);

}  // namespace resipe::nn
