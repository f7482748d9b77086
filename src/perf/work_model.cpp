#include "resipe/perf/work_model.hpp"

#include <cstdlib>
#include <cstring>

namespace resipe::perf {

namespace detail {

std::atomic<int> g_accounting{-1};

bool resolve_accounting() noexcept {
  int state = 0;
  if (const char* env = std::getenv("RESIPE_PERF")) {
    if (std::strcmp(env, "1") == 0 || std::strcmp(env, "on") == 0 ||
        std::strcmp(env, "ON") == 0 || std::strcmp(env, "true") == 0) {
      state = 1;
    }
  }
  int expected = -1;
  g_accounting.compare_exchange_strong(expected, state,
                                       std::memory_order_relaxed);
  return g_accounting.load(std::memory_order_relaxed) != 0;
}

}  // namespace detail

void set_accounting_enabled(bool on) noexcept {
  detail::g_accounting.store(on ? 1 : 0, std::memory_order_relaxed);
}

// --- analytic models (constants documented in the header) --------------

WorkCost fast_mvm_batch_cost(std::size_t rows, std::size_t cols,
                             std::size_t n) {
  const double r = static_cast<double>(rows);
  const double c = static_cast<double>(cols);
  const double s = static_cast<double>(n);
  return {s * (4.0 * r + 2.0 * r * c + 10.0 * c),
          8.0 * (2.0 * s * r + r * c + s * r * c + 3.0 * c + 3.0 * s * c)};
}

WorkCost tile_execute_cost(std::size_t rows, std::size_t cols) {
  const double r = static_cast<double>(rows);
  const double c = static_cast<double>(cols);
  return {6.0 * r + 4.0 * r * c + 12.0 * c,
          8.0 * (2.0 * r + 2.0 * r * c + 2.0 * c)};
}

WorkCost spike_encode_cost() { return {8.0, 16.0}; }

WorkCost spike_decode_cost() { return {6.0, 16.0}; }

WorkCost event_queue_build_cost(std::size_t rows) {
  const double r = static_cast<double>(rows);
  return {3.0 * r, 8.0 * (r + 2.0 * r)};
}

WorkCost event_mvm_sparse_cost(std::size_t active, std::size_t cols) {
  const double a = static_cast<double>(active);
  const double c = static_cast<double>(cols);
  return {4.0 * a + 2.0 * a * c + 10.0 * c,
          8.0 * (2.0 * a + 2.0 * a * c + 3.0 * c + c)};
}

WorkCost event_idle_cost(std::size_t cols) {
  const double c = static_cast<double>(cols);
  return {10.0 * c, 8.0 * (3.0 * c + c)};
}

WorkCost ir_drop_solve_cost(std::size_t rows, std::size_t cols) {
  const double r = static_cast<double>(rows);
  const double c = static_cast<double>(cols);
  return {9.0 * r * c + 2.0 * c, 8.0 * (r + r * c + 2.0 * c)};
}

WorkCost transient_mac_cost(std::size_t inputs, std::size_t steps) {
  const double n = static_cast<double>(inputs);
  const double s = static_cast<double>(steps);
  // COG node: RK4, 4 derivative evaluations of 3*n flops + 10 update;
  // S1 + S2 ramp integrations: ~2 passes of 18 flops per step.
  const double flops = s * (4.0 * 3.0 * n + 10.0) + 2.0 * s * 18.0;
  // Conductances + held wordline voltages stream once per derivative
  // evaluation.
  const double bytes = 8.0 * (s * 4.0 * 2.0 * n + 2.0 * n);
  return {flops, bytes};
}

// --- registry ----------------------------------------------------------

WorkRegistry& WorkRegistry::instance() {
  static WorkRegistry registry;
  return registry;
}

KernelWork& WorkRegistry::kernel(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = kernels_.find(name);
  if (it == kernels_.end()) {
    it = kernels_.emplace(std::string(name), std::make_unique<KernelWork>())
             .first;
  }
  return *it->second;
}

std::vector<KernelWorkSnapshot> WorkRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<KernelWorkSnapshot> out;
  out.reserve(kernels_.size());
  for (const auto& [name, work] : kernels_) {
    out.push_back({name, work->calls(), work->timed_ns(), work->flops(),
                   work->bytes()});
  }
  return out;
}

void WorkRegistry::reset_values() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, work] : kernels_) work->reset();
}

}  // namespace resipe::perf
