#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

void Digest::bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 1099511628211ull;
  }
}

void Digest::add(double v) { bytes(&v, sizeof v); }
void Digest::add(std::uint64_t v) { bytes(&v, sizeof v); }
void Digest::add(std::span<const double> values) {
  bytes(values.data(), values.size_bytes());
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void LogitError::add(const resipe::nn::Tensor& circuit,
                     const resipe::nn::Tensor& software) {
  if (!circuit.same_shape(software) || circuit.rank() != 2) {
    throw std::runtime_error("logit shapes differ: " + circuit.shape_str() +
                             " vs " + software.shape_str());
  }
  const auto c = circuit.data();
  const auto s = software.data();
  for (std::size_t i = 0; i < c.size(); ++i) {
    sq_err += (c[i] - s[i]) * (c[i] - s[i]);
    sq_ref += s[i] * s[i];
  }
  for (std::size_t r = 0; r < circuit.dim(0); ++r) {
    if (circuit.argmax_row(r) == software.argmax_row(r)) ++agree;
  }
  rows += circuit.dim(0);
}

double LogitError::nrmse() const {
  return sq_ref > 0.0 ? std::sqrt(sq_err / sq_ref)
                      : std::numeric_limits<double>::infinity();
}

double LogitError::top1_agreement() const {
  return rows > 0 ? static_cast<double>(agree) / static_cast<double>(rows)
                  : 0.0;
}

bool all_finite(std::span<const double> values) {
  return std::all_of(values.begin(), values.end(),
                     [](double v) { return std::isfinite(v); });
}

bool OpChecker::check(std::size_t k, std::uint64_t digest, bool finite) {
  ++runs_[k];
  bool ok = finite;
  if (!first_[k].seen) {
    first_[k] = {true, digest};
  } else if (first_[k].digest != digest) {
    ok = false;
  }
  if (!ok) ++failed_runs_[k];
  return ok;
}

bool OpChecker::compare_recorded(const std::vector<std::uint64_t>& recorded) {
  bool all = recorded.size() == first_.size();
  for (std::size_t k = 0; k < first_.size(); ++k) {
    const bool match = k < recorded.size() && first_[k].seen &&
                       first_[k].digest == recorded[k];
    if (!match) failed_runs_[k] = runs_[k];
    all = all && match;
  }
  return all;
}

std::size_t OpChecker::attempted() const {
  std::size_t n = 0;
  for (const std::size_t r : runs_) n += r;
  return n;
}

std::size_t OpChecker::failed() const {
  std::size_t n = 0;
  for (const std::size_t r : failed_runs_) n += r;
  return n;
}

std::uint64_t OpChecker::combined() const {
  Digest d;
  for (const First& f : first_) d.add(f.digest);
  return d.value();
}

void Record::set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Record::text(const std::string& name, const std::string& value) {
  text_.emplace_back(name, value);
}

double Record::get(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return m.value;
  }
  throw std::runtime_error("no metric " + name);
}

bool Record::has(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return true;
  }
  return false;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string Record::metrics_json() const {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    os << (i ? ", " : "") << quoted(metrics_[i].name)
       << ": {\"value\": " << json_number(metrics_[i].value)
       << ", \"unit\": " << quoted(metrics_[i].unit) << "}";
  }
  os << "}";
  return os.str();
}

std::string Record::flat_json() const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [k, v] : text_) {
    os << (first ? "" : ", ") << quoted(k) << ": " << quoted(v);
    first = false;
  }
  for (const Metric& m : metrics_) {
    os << (first ? "" : ", ") << quoted(m.name) << ": "
       << json_number(m.value);
    first = false;
  }
  os << "}";
  return os.str();
}

std::string digest_key(const std::string& isa, const std::string& workload,
                       std::uint64_t seed) {
  return isa + " " + workload + " " + std::to_string(seed);
}

DigestTable load_digests(const std::string& path) {
  DigestTable table;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read digest table " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string isa, workload, word;
    std::uint64_t seed = 0;
    if (!(ls >> isa >> workload >> seed)) {
      throw std::runtime_error("malformed digest line: " + line);
    }
    std::vector<std::uint64_t> digests;
    while (ls >> word) digests.push_back(std::stoull(word, nullptr, 16));
    table[digest_key(isa, workload, seed)] = std::move(digests);
  }
  return table;
}

}  // namespace perfbench
