// resipe_perfbench — host-time benchmark of the ReSiPE simulator.
//
//   resipe_perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]
//                    [--digests FILE] [--stamp KEY=VALUE]...
//   resipe_perfbench --selftest [--digests FILE]
//   resipe_perfbench --record-digests FROM TO
//
// A run sets the workload up several times before and after the timed
// loop (setup_s is the median), cycles its ops for S seconds, checks
// every output and prints one
// `PERFBENCH {...}` line carrying the provenance, the check outcome and
// every metric.  --trace 1 adds the per-layer profile.  The exit code
// is 0 only when every check passed.  perfbench/run.py wraps this
// binary; see perfbench/README.md.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "layers.hpp"
#include "resipe/common/simd.hpp"
#include "resipe/introspect/inspect.hpp"
#include "workloads.hpp"

namespace perfbench {
int run_selftest(const DigestTable& table);
}

namespace {

using namespace perfbench;

/// Set-ups per round: at least kMinSetups and until kSetupSeconds have
/// passed (at most kMaxSetups).  One round runs before the timed loop
/// and one after it, so setup_s (the median of both) does not hang on
/// the host's state in a single stretch of seconds.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 10;
constexpr double kSetupSeconds = 1.5;

/// Quality gate: a healthy simulator stays well inside these on every
/// workload and seed (logit NRMSE 0.02-0.2, top-1 agreement >= 0.88),
/// so deterministic garbage fails even on seeds without recorded digests.
constexpr double kMaxNrmse = 0.25;
constexpr double kMinAgreement = 0.75;

/// Per-layer metrics that only some workloads exercise.  A workload
/// that never calls the layer books 0 for it.
const std::pair<const char*, const char*> kSparseLayerMetrics[] = {
    {"lower.eval_ms", "ms"},       {"serve.run_ms", "ms"},
    {"serve.infer_ms", "ms"},      {"serve.probe_ms", "ms"},
    {"serve.sched_self_ms", "ms"}, {"serve.batches", "count"},
    {"serve.mean_batch", "count"}, {"serve.retries", "count"},
    {"serve.shed", "count"}};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string digests;
  std::vector<std::pair<std::string, std::string>> stamps;
};

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

std::string isa() { return resipe::simd::compiled_isa(); }

/// One round of set-ups; appends each set-up time, returns the last.
std::unique_ptr<Workload> set_up(const Options& opt,
                                 std::vector<double>& times) {
  std::unique_ptr<Workload> w;
  const auto start = Clock::now();
  for (int i = 0; i < kMaxSetups && (i < kMinSetups ||
                                     seconds_since(start) < kSetupSeconds);
       ++i) {
    w.reset();
    const auto t0 = Clock::now();
    w = make_workload(opt.workload, opt.seed);
    times.push_back(seconds_since(t0));
  }
  return w;
}

int run(const Options& opt) {
  const DigestTable table =
      opt.digests.empty() ? DigestTable{} : load_digests(opt.digests);

  std::vector<double> setups;
  std::unique_ptr<Workload> w = set_up(opt, setups);

  OpChecker checker(w->distinct_ops());
  std::vector<double> samples;
  double host_s = 0.0, items = 0.0;
  const auto start = Clock::now();
  for (std::size_t i = 0;
       seconds_since(start) < opt.seconds || i < w->distinct_ops(); ++i) {
    const std::size_t k = i % w->distinct_ops();
    const OpResult r = w->run_op(k);
    if (!checker.check(k, r.digest, r.finite)) {
      std::cerr << opt.workload << ": op " << k << " (execution " << i
                << ") failed its output check\n";
    }
    samples.push_back(r.sample_ms);
    host_s += r.host_s;
    items += r.items;
  }

  std::string digest_status = "unrecorded";
  const auto recorded = table.find(digest_key(isa(), opt.workload, opt.seed));
  if (recorded != table.end()) {
    digest_status =
        checker.compare_recorded(recorded->second) ? "match" : "MISMATCH";
    if (digest_status == "MISMATCH") {
      std::cerr << opt.workload << ": first-pass digests differ from the "
                << "recorded ones for seed " << opt.seed << "\n";
    }
  }

  const LogitError q = w->quality();
  const bool quality_ok =
      q.nrmse() <= kMaxNrmse && q.top1_agreement() >= kMinAgreement;
  if (!quality_ok) {
    std::cerr << opt.workload << ": circuit logits drifted from the software "
              << "reference (nrmse " << q.nrmse() << ", top-1 agreement "
              << q.top1_agreement() << ")\n";
  }

  Record rec;
  rec.text("workload", opt.workload);
  rec.text("seed", std::to_string(opt.seed));
  for (const auto& [k, v] : opt.stamps) rec.text(k, v);
  rec.text("simd_isa", isa());
  rec.text("march_flags", resipe::simd::march_flags());
  const char* env_threads = std::getenv("RESIPE_THREADS");
  rec.text("resipe_threads", env_threads ? env_threads : "unset");
  rec.text("loop_threads", std::to_string(w->threads()));
  rec.text("nproc", std::to_string(std::thread::hardware_concurrency()));
  rec.text("engine_config_hash",
           resipe::introspect::engine_config_hash(w->engine_config()));
  rec.text("digest", hex(checker.combined()));
  rec.text("digest_status", digest_status);

  rec.set("throughput_per_s", items / host_s, "1/s");
  rec.set("op_ms_p50", quantile(samples, 0.5), "ms");
  rec.set("op_ms_p90", quantile(samples, 0.9), "ms");
  rec.set("op_samples", static_cast<double>(samples.size()), "count");
  rec.set("logit_nrmse", q.nrmse(), "ratio");
  rec.set("top1_agreement", q.top1_agreement(), "ratio");
  w->simulated_stats(rec);

  std::string trace_failures;
  if (opt.trace) {
    for (const auto& [name, unit] : kSparseLayerMetrics) {
      rec.set(name, 0.0, unit);
    }
    w->trace(rec);
    trace_failures = attribution_failures(rec);
    if (!trace_failures.empty()) {
      std::cerr << opt.workload << ": attribution check failed:\n"
                << trace_failures;
    }
  }
  w.reset();
  set_up(opt, setups);
  rec.set("setup_s", median(setups), "s");
  rec.set("setup_samples", static_cast<double>(setups.size()), "count");
  rec.set("peak_rss_mb", peak_rss_mb(), "MiB");

  const bool correct =
      checker.failed() == 0 && quality_ok && trace_failures.empty();
  std::cout << "PERFBENCH {\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << checker.attempted()
            << ", \"failed\": " << checker.failed()
            << ", \"record\": " << rec.flat_json()
            << ", \"metrics\": " << rec.metrics_json() << "}" << std::endl;
  return correct ? 0 : 1;
}

/// Prints digest-table lines (first-pass digests of every op) for a
/// range of seeds, one line per workload and seed.
int record_digests(std::uint64_t from, std::uint64_t to) {
  for (std::uint64_t seed = from; seed <= to; ++seed) {
    for (const std::string& name : workload_names()) {
      const auto w = make_workload(name, seed);
      std::cout << isa() << " " << name << " " << seed;
      for (std::size_t k = 0; k < w->distinct_ops(); ++k) {
        std::cout << " " << hex(w->run_op(k).digest);
      }
      std::cout << std::endl;
    }
  }
  return 0;
}

[[noreturn]] void usage(const char* why) {
  std::cerr << "resipe_perfbench: " << why << "\n"
            << "usage: resipe_perfbench --workload NAME --seed N "
               "[--seconds S] [--trace 0|1] [--digests FILE] "
               "[--stamp KEY=VALUE]...\n"
               "       resipe_perfbench --selftest [--digests FILE]\n"
               "       resipe_perfbench --record-digests FROM TO\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool selftest = false, seed_given = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) usage(("missing value for " + a).c_str());
        return argv[++i];
      };
      if (a == "--workload") {
        opt.workload = value();
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
        seed_given = true;
      } else if (a == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (a == "--trace") {
        opt.trace = value() == "1";
      } else if (a == "--digests") {
        opt.digests = value();
      } else if (a == "--stamp") {
        const std::string kv = value();
        const auto eq = kv.find('=');
        if (eq == std::string::npos) usage("--stamp needs KEY=VALUE");
        opt.stamps.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
      } else if (a == "--selftest") {
        selftest = true;
      } else if (a == "--record-digests") {
        const std::uint64_t from = std::stoull(value());
        const std::uint64_t to = std::stoull(value());
        return record_digests(from, to);
      } else {
        usage(("unknown argument " + a).c_str());
      }
    }
    if (selftest) {
      return run_selftest(opt.digests.empty() ? DigestTable{}
                                              : load_digests(opt.digests));
    }
    if (opt.workload.empty() || !seed_given) {
      usage("--workload and --seed are required");
    }
    if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "resipe_perfbench: " << e.what() << "\n";
    return 1;
  }
}
