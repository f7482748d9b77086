// Roofline report assembly, JSON/ASCII rendering, folded-stack export
// and the work-annotated call-tree profile.
#include "resipe/perf/roofline.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "resipe/common/file.hpp"
#include "resipe/common/json.hpp"
#include "resipe/common/table.hpp"

namespace resipe::perf {

RooflineReport build_roofline_report(const MachineProfile& machine,
                                     const PerfCounts& counters) {
  RooflineReport report;
  report.machine = machine;
  report.counters = counters;
  for (const KernelWorkSnapshot& k : WorkRegistry::instance().snapshot()) {
    if (k.flops == 0.0 && k.bytes == 0.0) continue;
    KernelRates r;
    r.name = k.name;
    r.calls = k.calls;
    r.flops = k.flops;
    r.bytes = k.bytes;
    r.seconds = static_cast<double>(k.timed_ns) * 1e-9;
    r.timed = k.timed_ns > 0;
    r.intensity = k.bytes > 0.0 ? k.flops / k.bytes : 0.0;
    if (r.timed) {
      r.gflops = k.flops / static_cast<double>(k.timed_ns);
      r.gbs = k.bytes / static_cast<double>(k.timed_ns);
    }
    r.memory_bound =
        machine.ridge() > 0.0 && r.intensity < machine.ridge();
    if (machine.peak_gflops > 0.0 && machine.peak_gbs > 0.0) {
      r.attainable_gflops =
          std::min(machine.peak_gflops, r.intensity * machine.peak_gbs);
      if (r.timed && r.attainable_gflops > 0.0) {
        r.efficiency = r.gflops / r.attainable_gflops;
      }
    }
    report.kernels.push_back(std::move(r));
  }
  return report;
}

std::string RooflineReport::render_ascii() const {
  std::ostringstream os;
  os << "== roofline ==\n";
  os << "machine: " << machine.cpu_model << " (" << machine.cores
     << " hw threads), peak " << format_fixed(machine.peak_gflops)
     << " GFLOP/s, " << format_fixed(machine.peak_gbs) << " GB/s, ridge "
     << format_fixed(machine.ridge()) << " FLOP/byte\n";
  if (counters.available) {
    os << "counters: IPC " << format_fixed(counters.ipc()) << ", "
       << format_fixed(counters.ghz()) << " GHz, cache-miss rate "
       << format_fixed(counters.cache_miss_rate()) << ", branch misses "
       << json::number(counters.branch_misses) << "\n";
  } else if (!counters.detail.empty()) {
    os << "counters: unavailable (" << counters.detail
       << "); wall-clock only\n";
  } else {
    os << "counters: not collected\n";
  }

  TextTable table({"kernel", "calls", "time", "GFLOP/s", "GB/s",
                   "FLOP/byte", "bound", "roof%"});
  for (const KernelRates& k : kernels) {
    table.add_row(
        {k.name, std::to_string(k.calls),
         k.timed ? format_si(k.seconds, "s") : "(untimed)",
         k.timed ? format_fixed(k.gflops) : "-",
         k.timed ? format_fixed(k.gbs) : "-",
         format_fixed(k.intensity), k.memory_bound ? "memory" : "compute",
         k.timed && k.attainable_gflops > 0.0
             ? format_percent(k.efficiency)
             : "-"});
  }
  os << table.str();

  // Log-log scatter: x = arithmetic intensity, y = GFLOP/s; '=' draws
  // the machine roof (bandwidth slope up to the ridge, flat after).
  const double ridge = machine.ridge();
  std::vector<const KernelRates*> plotted;
  for (const KernelRates& k : kernels) {
    if (k.timed && k.gflops > 0.0 && k.intensity > 0.0) {
      plotted.push_back(&k);
    }
  }
  if (!plotted.empty() && machine.peak_gflops > 0.0 && ridge > 0.0) {
    constexpr int kW = 64;
    constexpr int kH = 16;
    double x_min = ridge, x_max = ridge;
    double y_max = machine.peak_gflops;
    for (const KernelRates* k : plotted) {
      x_min = std::min(x_min, k->intensity);
      x_max = std::max(x_max, k->intensity);
      y_max = std::max(y_max, k->gflops);
    }
    x_min /= 2.0;
    x_max *= 2.0;
    const double y_min = y_max / 1e6;
    const double lx0 = std::log10(x_min), lx1 = std::log10(x_max);
    const double ly0 = std::log10(y_min), ly1 = std::log10(y_max * 2.0);
    std::vector<std::string> grid(kH, std::string(kW, ' '));
    auto col_of = [&](double x) {
      return std::clamp(static_cast<int>((std::log10(x) - lx0) /
                                         (lx1 - lx0) * (kW - 1)),
                        0, kW - 1);
    };
    auto row_of = [&](double y) {
      const int r = static_cast<int>((std::log10(std::max(y, y_min)) -
                                      ly0) /
                                     (ly1 - ly0) * (kH - 1));
      return kH - 1 - std::clamp(r, 0, kH - 1);
    };
    for (int cidx = 0; cidx < kW; ++cidx) {
      const double x =
          std::pow(10.0, lx0 + (lx1 - lx0) * cidx / (kW - 1));
      const double roof = std::min(machine.peak_gflops,
                                   x * machine.peak_gbs);
      grid[static_cast<std::size_t>(row_of(roof))]
          [static_cast<std::size_t>(cidx)] = '=';
    }
    char marker = 'A';
    os << "\n  roofline chart (x: FLOP/byte, y: GFLOP/s, log-log; "
          "'=' machine roof)\n";
    std::ostringstream legend;
    for (const KernelRates* k : plotted) {
      grid[static_cast<std::size_t>(row_of(k->gflops))]
          [static_cast<std::size_t>(col_of(k->intensity))] = marker;
      legend << "    " << marker << " = " << k->name << "\n";
      if (marker < 'Z') ++marker;
    }
    for (const std::string& line : grid) os << "  |" << line << "\n";
    os << "  +" << std::string(kW, '-') << "\n";
    os << legend.str();
  }
  return os.str();
}

void RooflineReport::write_json(std::ostream& os) const {
  json::Writer w(os);
  w.begin_object()
      .key("machine")
      .begin_object()
      .field("cpu_model", machine.cpu_model)
      .field("cores", machine.cores)
      .field("fingerprint", machine.fingerprint)
      .field("fingerprint_hash", machine.fingerprint_hash)
      .field("peak_gflops", machine.peak_gflops)
      .field("peak_gbs", machine.peak_gbs)
      .field("ridge_flop_per_byte", machine.ridge())
      .end_object()
      .key("counters")
      .begin_object()
      .field("available", counters.available)
      .field("detail", counters.detail)
      .field("wall_ns", counters.wall_ns)
      .field("cycles", counters.cycles)
      .field("instructions", counters.instructions)
      .field("ipc", counters.ipc())
      .field("cache_references", counters.cache_references)
      .field("cache_misses", counters.cache_misses)
      .field("cache_miss_rate", counters.cache_miss_rate())
      .field("branch_misses", counters.branch_misses)
      .end_object()
      .key("kernels")
      .begin_array();
  for (const KernelRates& k : kernels) {
    w.begin_object()
        .field("name", k.name)
        .field("calls", k.calls)
        .field("seconds", k.seconds)
        .field("flops", k.flops)
        .field("bytes", k.bytes)
        .field("timed", k.timed)
        .field("gflops", k.gflops)
        .field("gbs", k.gbs)
        .field("intensity_flop_per_byte", k.intensity)
        .field("bound", k.memory_bound ? "memory" : "compute")
        .field("attainable_gflops", k.attainable_gflops)
        .field("roofline_efficiency", k.efficiency)
        .end_object();
  }
  w.end_array().end_object();
  os << "\n";
}

void RooflineReport::write_json_file(const std::string& path) const {
  write_text_file(path, "roofline file",
                  [this](std::ostream& os) { write_json(os); });
}

// --- folded stacks -----------------------------------------------------

namespace {

void fold_node(const telemetry::ProfileNode& node, std::string prefix,
               std::ostringstream& os) {
  prefix += node.name;
  std::uint64_t child_ns = 0;
  for (const auto& c : node.children) child_ns += c->total_ns;
  // Self time in integer microseconds; flamegraph.pl wants integral
  // sample counts, and ns-scale spans would round to 0 and vanish, so
  // clamp any nonzero self time to at least 1.
  const std::uint64_t self_ns =
      node.total_ns > child_ns ? node.total_ns - child_ns : 0;
  if (self_ns > 0) {
    os << prefix << " " << std::max<std::uint64_t>(self_ns / 1000, 1)
       << "\n";
  }
  for (const auto& c : node.children) fold_node(*c, prefix + ";", os);
}

}  // namespace

std::string folded_stacks(const telemetry::CallProfile& profile) {
  std::ostringstream os;
  for (const auto& c : profile.root().children) fold_node(*c, "", os);
  return os.str();
}

void write_folded_stacks_file(const std::string& path,
                              const telemetry::CallProfile& profile) {
  write_text_file(path, "folded-stack file", [&profile](std::ostream& os) {
    os << folded_stacks(profile);
  });
}

// --- annotated call tree -----------------------------------------------

namespace {

struct MeanCost {
  double flops_per_call = 0.0;
  double bytes_per_call = 0.0;
};

void render_annotated(
    const telemetry::ProfileNode& node, std::size_t depth,
    const std::map<std::string, MeanCost>& costs, std::ostringstream& os) {
  const double total_s = static_cast<double>(node.total_ns) * 1e-9;
  const double mean_s =
      node.count > 0 ? total_s / static_cast<double>(node.count) : 0.0;
  os << std::string(2 * depth, ' ') << node.name << "  x" << node.count
     << "  total " << format_si(total_s, "s") << "  mean "
     << format_si(mean_s, "s");
  const auto it = costs.find(node.name);
  if (it != costs.end() && node.total_ns > 0) {
    // Region-mean per-call cost scaled by this node's call count: the
    // registry aggregates work per region, the tree splits it per path.
    const double flops =
        it->second.flops_per_call * static_cast<double>(node.count);
    const double bytes =
        it->second.bytes_per_call * static_cast<double>(node.count);
    const double ns = static_cast<double>(node.total_ns);
    os << "  [" << format_fixed(flops / ns) << " GFLOP/s, "
       << format_fixed(bytes / ns) << " GB/s, "
       << format_fixed(bytes > 0.0 ? flops / bytes : 0.0)
       << " FLOP/B]";
  }
  os << "\n";
  for (const auto& c : node.children) {
    render_annotated(*c, depth + 1, costs, os);
  }
}

}  // namespace

std::string render_annotated_profile(
    const telemetry::CallProfile& profile) {
  std::map<std::string, MeanCost> costs;
  for (const KernelWorkSnapshot& k : WorkRegistry::instance().snapshot()) {
    if (k.calls == 0) continue;
    costs[k.name] = {k.flops / static_cast<double>(k.calls),
                     k.bytes / static_cast<double>(k.calls)};
  }
  std::ostringstream os;
  for (const auto& c : profile.root().children) {
    render_annotated(*c, 0, costs, os);
  }
  return os.str();
}

}  // namespace resipe::perf
