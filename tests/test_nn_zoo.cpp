#include "resipe/nn/zoo.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "resipe/nn/data.hpp"
#include "resipe/nn/layers.hpp"
#include "resipe/nn/tensor.hpp"

namespace resipe::nn {
namespace {

Tensor input_for(BenchmarkNet net, std::size_t batch) {
  return uses_object_dataset(net) ? Tensor({batch, 3, 32, 32})
                                  : Tensor({batch, 1, 28, 28});
}

class ZooForward : public ::testing::TestWithParam<BenchmarkNet> {};

TEST_P(ZooForward, ProducesTenLogitsPerSample) {
  Rng rng(1);
  Sequential model = build_benchmark(GetParam(), rng);
  const Tensor x = input_for(GetParam(), 2);
  const Tensor y = model.forward(x, false);
  ASSERT_EQ(y.rank(), 2u);
  EXPECT_EQ(y.dim(0), 2u);
  EXPECT_EQ(y.dim(1), 10u);
}

TEST_P(ZooForward, HasTrainableParameters) {
  Rng rng(1);
  Sequential model = build_benchmark(GetParam(), rng);
  EXPECT_GT(model.parameter_count(), 0u);
  EXPECT_FALSE(model.summary().empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllSixBenchmarks, ZooForward,
    ::testing::Values(BenchmarkNet::kMlp1, BenchmarkNet::kMlp2,
                      BenchmarkNet::kCnn1, BenchmarkNet::kCnn2,
                      BenchmarkNet::kCnn3, BenchmarkNet::kCnn4));

TEST(Zoo, MatrixLayerCountsMatchTopologies) {
  Rng rng(1);
  // MLP-1: 1 dense; MLP-2: 2 dense; LeNet: 2 conv + 3 dense;
  // AlexNet-class: 5 conv + 2 FC; VGG16-class: 13 conv + 3 FC;
  // VGG19-class: 16 conv + 3 FC.
  EXPECT_EQ(build_benchmark(BenchmarkNet::kMlp1, rng).matrix_layer_count(),
            1u);
  EXPECT_EQ(build_benchmark(BenchmarkNet::kMlp2, rng).matrix_layer_count(),
            2u);
  EXPECT_EQ(build_benchmark(BenchmarkNet::kCnn1, rng).matrix_layer_count(),
            5u);
  EXPECT_EQ(build_benchmark(BenchmarkNet::kCnn2, rng).matrix_layer_count(),
            7u);
  EXPECT_EQ(build_benchmark(BenchmarkNet::kCnn3, rng).matrix_layer_count(),
            16u);
  EXPECT_EQ(build_benchmark(BenchmarkNet::kCnn4, rng).matrix_layer_count(),
            19u);
}

TEST(Zoo, DepthOrderingIsPreserved) {
  Rng rng(1);
  // The Fig. 7 sensitivity argument relies on this ordering.
  const auto count = [&rng](BenchmarkNet n) {
    return build_benchmark(n, rng).matrix_layer_count();
  };
  EXPECT_LT(count(BenchmarkNet::kMlp1), count(BenchmarkNet::kMlp2));
  EXPECT_LT(count(BenchmarkNet::kMlp2), count(BenchmarkNet::kCnn1));
  EXPECT_LT(count(BenchmarkNet::kCnn1), count(BenchmarkNet::kCnn2));
  EXPECT_LT(count(BenchmarkNet::kCnn2), count(BenchmarkNet::kCnn3));
  EXPECT_LT(count(BenchmarkNet::kCnn3), count(BenchmarkNet::kCnn4));
}

TEST(Zoo, NamesMatchThePaper) {
  EXPECT_EQ(benchmark_name(BenchmarkNet::kMlp1), "MLP-1");
  EXPECT_EQ(benchmark_name(BenchmarkNet::kCnn4), "CNN-4 (VGG19-class)");
  EXPECT_EQ(all_benchmarks().size(), 6u);
}

TEST(Zoo, DatasetAssignment) {
  EXPECT_FALSE(uses_object_dataset(BenchmarkNet::kMlp1));
  EXPECT_FALSE(uses_object_dataset(BenchmarkNet::kCnn1));
  EXPECT_TRUE(uses_object_dataset(BenchmarkNet::kCnn2));
  EXPECT_TRUE(uses_object_dataset(BenchmarkNet::kCnn4));
}

TEST(Zoo, TagsRoundTrip) {
  for (const BenchmarkNet net : all_benchmarks()) {
    EXPECT_EQ(parse_benchmark_tag(benchmark_tag(net)), net);
  }
  EXPECT_EQ(benchmark_tag(BenchmarkNet::kCnn2), "cnn2");
  EXPECT_FALSE(parse_benchmark_tag("MLP-1").has_value());
  EXPECT_FALSE(parse_benchmark_tag("cnn5").has_value());
  EXPECT_FALSE(parse_benchmark_tag("").has_value());
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(double)) == 0;
}

bool same_weights(Sequential& a, Sequential& b) {
  const std::vector<Param> pa = a.params();
  const std::vector<Param> pb = b.params();
  if (pa.size() != pb.size()) return false;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    if (!same_bits(*pa[i].value, *pb[i].value)) return false;
  }
  return true;
}

// train_benchmark replaces a sequence that experiments used to spell out
// inline; rebuild that sequence here and compare every byte it feeds
// the engine.
TEST(TrainBenchmark, MatchesTheInlineRecipeBitwise) {
  for (const BenchmarkNet net : {BenchmarkNet::kMlp1, BenchmarkNet::kCnn1}) {
    TrainedBenchmarkConfig cfg;
    cfg.net = net;
    cfg.data_seed = 11;
    cfg.train_samples = 64;
    cfg.test_samples = 16;
    cfg.epochs = 1;
    TrainedBenchmark tb = train_benchmark(cfg);

    Rng data_rng(11);
    Rng train_rng = data_rng.split();
    Rng test_rng = data_rng.split();
    const Dataset train = synthetic_digits(64, train_rng);
    const Dataset test = synthetic_digits(16, test_rng);
    Rng model_rng(0xC0FFEEull + static_cast<std::uint64_t>(net));
    Sequential model = build_benchmark(net, model_rng);
    TrainConfig tc;
    tc.epochs = 1;
    tc.batch_size = 32;
    tc.lr = 1e-3;
    const TrainResult tr = fit(model, train, test, tc);
    std::vector<std::size_t> calib_idx;
    for (std::size_t i = 0; i < 48; ++i) calib_idx.push_back(i);
    const Tensor calib = train.gather(calib_idx).first;

    const std::string name = benchmark_tag(net);
    EXPECT_TRUE(same_bits(tb.test.images, test.images)) << name;
    EXPECT_EQ(tb.test.labels, test.labels) << name;
    EXPECT_TRUE(same_weights(tb.model, model)) << name;
    EXPECT_TRUE(same_bits(tb.calib, calib)) << name;
    EXPECT_EQ(tb.fit.epoch_loss, tr.epoch_loss) << name;
    EXPECT_EQ(tb.fit.test_accuracy, tr.test_accuracy) << name;
  }
}

TEST(TrainBenchmark, WeightCacheRoundTrip) {
  TrainedBenchmarkConfig cfg;
  cfg.train_samples = 64;
  cfg.test_samples = 16;
  cfg.epochs = 1;
  cfg.weight_cache = "test_train_benchmark_cache.bin";
  std::remove(cfg.weight_cache.c_str());

  TrainedBenchmark trained = train_benchmark(cfg);
  EXPECT_EQ(trained.fit.epoch_loss.size(), 1u);
  TrainedBenchmark loaded = train_benchmark(cfg);
  std::remove(cfg.weight_cache.c_str());
  EXPECT_TRUE(loaded.fit.epoch_loss.empty()) << "did not load the cache";
  EXPECT_TRUE(same_weights(loaded.model, trained.model));
  EXPECT_TRUE(same_bits(loaded.calib, trained.calib));
  EXPECT_EQ(loaded.calib.dim(0), 48u);
}

}  // namespace
}  // namespace resipe::nn
