// Shared pieces of the host-time benchmark: timing, order statistics,
// output digests, the per-op checker and the metric record.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "resipe/nn/tensor.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
inline double fastest(std::vector<double> values) {
  return quantile(std::move(values), 0.0);
}

/// FNV-1a over the exact bytes fed to it: two outputs digest equal
/// only when they are bit-identical.
class Digest {
 public:
  void add(double v);
  void add(std::uint64_t v);
  void add(std::span<const double> values);
  std::uint64_t value() const { return h_; }

 private:
  void bytes(const void* p, std::size_t n);
  std::uint64_t h_ = 14695981039346656037ull;
};

std::string hex(std::uint64_t v);

/// Circuit-vs-software logit agreement, accumulated over batches.
struct LogitError {
  double sq_err = 0.0;    ///< sum of (circuit - software)^2
  double sq_ref = 0.0;    ///< sum of software^2
  std::size_t rows = 0;   ///< samples compared
  std::size_t agree = 0;  ///< samples whose argmax matches

  void add(const resipe::nn::Tensor& circuit,
           const resipe::nn::Tensor& software);
  double nrmse() const;
  double top1_agreement() const;
};

bool all_finite(std::span<const double> values);

/// Per-op output check.  Each workload cycles through a fixed set of
/// distinct ops; the first execution of op k fixes its digest, every
/// later execution must reproduce it, and a recorded digest (when the
/// seed and ISA have one) must match the first.  A failing execution is
/// counted, never hidden.
class OpChecker {
 public:
  explicit OpChecker(std::size_t distinct)
      : first_(distinct), runs_(distinct, 0), failed_runs_(distinct, 0) {}

  /// Books one execution of op k; returns false when it failed.
  bool check(std::size_t k, std::uint64_t digest, bool finite);

  /// Compares the first-pass digests against a recorded list (same
  /// length); every execution of a mismatching op becomes a failure.
  /// Returns true when every op matched.
  bool compare_recorded(const std::vector<std::uint64_t>& recorded);

  std::size_t attempted() const;
  std::size_t failed() const;
  /// Digest of the first-pass digests in op order.
  std::uint64_t combined() const;

 private:
  struct First {
    bool seen = false;
    std::uint64_t digest = 0;
  };
  std::vector<First> first_;
  std::vector<std::size_t> runs_;
  std::vector<std::size_t> failed_runs_;
};

/// A named measurement.  `value` is kept with every digit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered name -> metric map used for both records.
class Record {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  void text(const std::string& name, const std::string& value);
  double get(const std::string& name) const;
  bool has(const std::string& name) const;
  const std::vector<Metric>& metrics() const { return metrics_; }
  /// {"name": {"value": v, "unit": u}, ...}
  std::string metrics_json() const;
  /// Flat object of text fields followed by every metric's value.
  std::string flat_json() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> text_;
};

std::string json_number(double v);

/// Recorded first-pass digests, keyed by "isa workload seed".
using DigestTable = std::map<std::string, std::vector<std::uint64_t>>;
DigestTable load_digests(const std::string& path);
std::string digest_key(const std::string& isa, const std::string& workload,
                       std::uint64_t seed);

}  // namespace perfbench
