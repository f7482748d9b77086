#include "resipe/resipe/pipeline.hpp"

#include <algorithm>
#include <sstream>

#include "resipe/common/error.hpp"

namespace resipe::resipe_core {

TwoSlicePipeline::TwoSlicePipeline(std::size_t layers, double slice_length)
    : layers_(layers), slice_(slice_length) {
  RESIPE_REQUIRE(layers > 0, "pipeline needs at least one layer");
  RESIPE_REQUIRE(slice_length > 0.0, "slice length must be positive");
}

double TwoSlicePipeline::input_latency() const {
  return static_cast<double>(layers_ + 1) * slice_;
}

std::size_t TwoSlicePipeline::output_slice(std::size_t layer,
                                           std::size_t input_slice) const {
  RESIPE_REQUIRE(layer < layers_, "layer index out of range");
  // Layer l consumes its input in slice (input_slice + l) and emits in
  // the following slice.
  return input_slice + layer + 1;
}

double TwoSlicePipeline::stream_latency(std::size_t n) const {
  if (n == 0) return 0.0;
  // Last input presented in slice n-1; its final output lands in slice
  // n - 1 + layers; the stream completes at the end of that slice.
  return static_cast<double>(n + layers_) * slice_;
}

double TwoSlicePipeline::pipeline_speedup(std::size_t n) const {
  if (n == 0) return 1.0;
  const double sequential =
      static_cast<double>(n) * static_cast<double>(layers_ + 1) * slice_;
  return sequential / stream_latency(n);
}

namespace {

std::size_t digit_count(std::size_t n) {
  std::size_t digits = 1;
  while (n >= 10) {
    n /= 10;
    ++digits;
  }
  return digits;
}

std::string pad_to(std::string s, std::size_t width) {
  if (s.size() < width) s.append(width - s.size(), ' ');
  return s;
}

}  // namespace

std::string TwoSlicePipeline::diagram(std::size_t inputs,
                                      std::size_t max_slices) const {
  const std::size_t slices =
      std::min(max_slices, inputs + layers_ + 1);
  // Column widths scale with the largest indices so slice/input labels
  // of any magnitude (>= 100 included) stay aligned.
  const std::size_t cell_width = std::max<std::size_t>(
      {3, digit_count(slices > 0 ? slices - 1 : 0) + 1,
       inputs > 0 ? digit_count(inputs - 1) + 2 : 3});
  const std::size_t label_width =
      std::max<std::size_t>(9, 6 + digit_count(layers_ - 1) + 2);
  std::ostringstream os;
  os << pad_to("slice", label_width);
  for (std::size_t s = 0; s < slices; ++s) {
    os << "|" << pad_to(std::to_string(s), cell_width);
  }
  os << "|\n";
  for (std::size_t l = 0; l < layers_; ++l) {
    os << pad_to("layer " + std::to_string(l), label_width);
    for (std::size_t s = 0; s < slices; ++s) {
      // Layer l processes input i during slice i + l (its S1) and
      // emits during i + l + 1 (its S2).
      os << "|";
      if (s >= l && s - l < inputs) {
        // Appended rather than `"i" + std::to_string(...)`, which trips
        // a GCC 12 -Wrestrict false positive.
        std::string cell(1, 'i');
        cell += std::to_string(s - l);
        os << pad_to(cell, cell_width);
      } else {
        os << std::string(cell_width, ' ');
      }
    }
    os << "|\n";
  }
  return os.str();
}

}  // namespace resipe::resipe_core
