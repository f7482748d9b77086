#include "resipe/nn/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "resipe/common/error.hpp"
#include "resipe/nn/layers.hpp"

namespace resipe::nn {
namespace {

Sequential make_model(std::uint64_t seed) {
  Rng rng(seed);
  Sequential m("s");
  m.emplace<Flatten>();
  m.emplace<Dense>(16, 8, rng);
  m.emplace<ReLU>();
  m.emplace<Dense>(8, 4, rng);
  return m;
}

struct TempFile {
  std::string path;
  explicit TempFile(std::string p) : path(std::move(p)) {}
  ~TempFile() { std::remove(path.c_str()); }
};

TEST(Serialize, RoundTripPreservesOutputs) {
  TempFile f("test_weights_roundtrip.bin");
  Sequential a = make_model(1);
  save_weights(a, f.path);

  Sequential b = make_model(2);  // different init
  Tensor x({1, 1, 4, 4});
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = 0.1 * static_cast<double>(i);
  const Tensor ya = a.forward(x, false);
  const Tensor yb_before = b.forward(x, false);
  bool differs = false;
  for (std::size_t i = 0; i < ya.size(); ++i) {
    if (ya[i] != yb_before[i]) differs = true;
  }
  EXPECT_TRUE(differs);

  load_weights(b, f.path);
  const Tensor yb = b.forward(x, false);
  for (std::size_t i = 0; i < ya.size(); ++i) {
    EXPECT_DOUBLE_EQ(ya[i], yb[i]);
  }
}

TEST(Serialize, CompatibilityCheck) {
  TempFile f("test_weights_compat.bin");
  Sequential a = make_model(1);
  save_weights(a, f.path);
  Sequential same = make_model(3);
  EXPECT_TRUE(weights_compatible(same, f.path));

  Rng rng(4);
  Sequential other("other");
  other.emplace<Dense>(16, 9, rng);  // different layout
  EXPECT_FALSE(weights_compatible(other, f.path));
  EXPECT_THROW(load_weights(other, f.path), Error);
}

// /dev/full accepts the open and fails every write; the weights fit in
// the stream buffer, so the failure only shows when it is flushed.
TEST(Serialize, SaveToFullDiskThrows) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full is not available here";
  }
  Sequential a = make_model(1);
  EXPECT_THROW(save_weights(a, "/dev/full"), Error);
}

TEST(Serialize, MissingFileHandled) {
  Sequential a = make_model(1);
  EXPECT_FALSE(weights_compatible(a, "does_not_exist.bin"));
  EXPECT_THROW(load_weights(a, "does_not_exist.bin"), Error);
}

TEST(Serialize, CorruptFileRejected) {
  TempFile f("test_weights_corrupt.bin");
  {
    std::ofstream out(f.path, std::ios::binary);
    out << "this is not a weight file";
  }
  Sequential a = make_model(1);
  EXPECT_FALSE(weights_compatible(a, f.path));
  EXPECT_THROW(load_weights(a, f.path), Error);
}

TEST(Serialize, TruncatedFileRejected) {
  TempFile f("test_weights_trunc.bin");
  Sequential a = make_model(1);
  save_weights(a, f.path);
  // Chop the tail off.
  std::ifstream in(f.path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(f.path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size() / 2));
  }
  Sequential b = make_model(2);
  EXPECT_THROW(load_weights(b, f.path), Error);
}

}  // namespace
}  // namespace resipe::nn
