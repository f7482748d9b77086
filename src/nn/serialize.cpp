#include "resipe/nn/serialize.hpp"

#include <cstdint>
#include <fstream>
#include <vector>

#include "resipe/common/error.hpp"

namespace resipe::nn {
namespace {

constexpr std::uint64_t kMagic = 0x5245534950455731ull;  // "RESIPEW1"

std::vector<std::uint64_t> layout(Sequential& model) {
  std::vector<std::uint64_t> sizes;
  for (const Param& p : model.params()) sizes.push_back(p.value->size());
  return sizes;
}

}  // namespace

void save_weights(Sequential& model, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  RESIPE_REQUIRE(out.good(), "cannot open '" << path << "' for writing");
  const auto sizes = layout(model);
  const std::uint64_t count = sizes.size();
  out.write(reinterpret_cast<const char*>(&kMagic), sizeof kMagic);
  out.write(reinterpret_cast<const char*>(&count), sizeof count);
  for (std::uint64_t s : sizes)
    out.write(reinterpret_cast<const char*>(&s), sizeof s);
  for (const Param& p : model.params()) {
    const auto data = p.value->data();
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size() * sizeof(double)));
  }
  // A full disk only shows once the buffered bytes reach the file.
  out.flush();
  RESIPE_REQUIRE(out.good(), "write to '" << path << "' failed");
}

namespace {

bool read_header(std::ifstream& in, std::vector<std::uint64_t>& sizes) {
  std::uint64_t magic = 0;
  std::uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof magic);
  in.read(reinterpret_cast<char*>(&count), sizeof count);
  if (!in.good() || magic != kMagic || count > 1u << 20) return false;
  sizes.resize(count);
  for (auto& s : sizes) {
    in.read(reinterpret_cast<char*>(&s), sizeof s);
    if (!in.good()) return false;
  }
  return true;
}

}  // namespace

void load_weights(Sequential& model, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  RESIPE_REQUIRE(in.good(), "cannot open '" << path << "' for reading");
  std::vector<std::uint64_t> sizes;
  RESIPE_REQUIRE(read_header(in, sizes), "corrupt weight file '" << path
                                                                 << "'");
  const auto expect = layout(model);
  RESIPE_REQUIRE(sizes == expect,
                 "weight file '" << path
                                 << "' does not match model architecture");
  for (const Param& p : model.params()) {
    auto data = p.value->data();
    in.read(reinterpret_cast<char*>(data.data()),
            static_cast<std::streamsize>(data.size() * sizeof(double)));
    RESIPE_REQUIRE(in.good(), "truncated weight file '" << path << "'");
  }
}

bool weights_compatible(Sequential& model, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return false;
  std::vector<std::uint64_t> sizes;
  if (!read_header(in, sizes)) return false;
  return sizes == layout(model);
}

}  // namespace resipe::nn
