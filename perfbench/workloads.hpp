// The benchmark's three workloads.  Each is built entirely from the
// workload seed (data, weights, training, lowering) and then runs one
// of a fixed cycle of distinct ops per timed iteration, so every
// execution can be checked against the first execution of the same op
// and against the recorded digests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "resipe/resipe/network.hpp"

namespace perfbench {

/// One timed op.
struct OpResult {
  std::uint64_t digest = 0;  ///< every output bit of the op
  bool finite = true;        ///< no NaN/inf logit
  double host_s = 0.0;       ///< timed host seconds
  double items = 0.0;        ///< images / served requests / trials
  double sample_ms = 0.0;    ///< the op's latency sample
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Worker threads of the timed loop (set before every op).
  virtual std::size_t threads() const = 0;
  /// Length of the op cycle.
  virtual std::size_t distinct_ops() const = 0;
  /// Runs op k once.  The first execution of each k keeps its outputs
  /// for quality().
  virtual OpResult run_op(std::size_t k) = 0;
  /// Circuit-vs-software logit error over the kept first-pass outputs.
  virtual LogitError quality() = 0;
  /// Simulated statistics that must repeat exactly for a seed.
  virtual void simulated_stats(Record& rec) = 0;
  /// Digest of the generated inputs (self-test: seeds change inputs).
  virtual std::uint64_t input_digest() const = 0;
  virtual const resipe::resipe_core::EngineConfig& engine_config() const = 0;
  /// Books every per-layer metric this workload can measure.
  virtual void trace(Record& rec) = 0;
};

/// Workload names in run order.
const std::vector<std::string>& workload_names();

/// Builds a workload from its seed, including the warm-up op: the
/// whole of set-up.  Throws on an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace perfbench
