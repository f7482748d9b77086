// resipe_serve — resilient-serving demo on a replicated chip pool.
//
// Trains a small MLP on synthetic digits, lowers it onto a pool of
// replica chips (optionally with one defective replica), offers an
// open-loop Poisson trace through the deadline-aware scheduler and
// prints the serving report: throughput, latency percentiles, shed
// accounting, per-chip health, and the accuracy of the answers that
// were actually served.
//
//   resipe_serve [--chips N] [--rate R] [--duration S] [--deadline S]
//                [--defects RATE] [--train N] [--images N] [--epochs N]
//                [--seed K] [--tenants N] [--out FILE]
//                [--trace FILE] [--events FILE]
//                [--slo-window S] [--slo-latency S]
//                [--slo-latency-obj F] [--slo-avail-obj F]
//
// Every run journals the full request lifecycle (serve/trace.hpp),
// verifies the span-conservation audit (exit 1 on violation — every
// offered request must have exactly one terminal event and the journal
// must reconcile with the stats), and renders the per-tenant SLO /
// error-budget dashboard.  --trace exports the journal as a Chrome
// trace (chrome://tracing / ui.perfetto.dev) with one lane per chip
// and flow arrows per request; --events exports the raw NDJSON that
// tools/trace_check.py validates in CI.
//
// Everything runs on the virtual clock, so the whole trace is
// deterministic and bit-identical at any thread count.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "resipe/common/file.hpp"
#include "resipe/common/json.hpp"
#include "resipe/common/table.hpp"
#include "resipe/nn/train.hpp"
#include "resipe/nn/zoo.hpp"
#include "resipe/resipe/network.hpp"
#include "resipe/serve/pool.hpp"
#include "resipe/serve/scheduler.hpp"
#include "resipe/serve/slo.hpp"
#include "resipe/serve/trace.hpp"
#include "resipe/serve/traffic.hpp"
#include "resipe/telemetry/trace.hpp"

namespace {

using namespace resipe;

const char* arg_value(int argc, char** argv, const char* name,
                      const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  const auto chips = static_cast<std::size_t>(
      std::atoi(arg_value(argc, argv, "--chips", "3")));
  const double rate = std::atof(arg_value(argc, argv, "--rate", "2000"));
  const double duration =
      std::atof(arg_value(argc, argv, "--duration", "0.05"));
  const double deadline =
      std::atof(arg_value(argc, argv, "--deadline", "0.01"));
  const double defects = std::atof(arg_value(argc, argv, "--defects", "0"));
  const auto train_n = static_cast<std::size_t>(
      std::atoi(arg_value(argc, argv, "--train", "256")));
  const auto test_n = static_cast<std::size_t>(
      std::atoi(arg_value(argc, argv, "--images", "96")));
  const auto epochs = static_cast<std::size_t>(
      std::atoi(arg_value(argc, argv, "--epochs", "3")));
  const auto seed = static_cast<std::uint64_t>(
      std::atoll(arg_value(argc, argv, "--seed", "42")));
  const auto tenants = static_cast<std::uint64_t>(
      std::atoll(arg_value(argc, argv, "--tenants", "3")));
  const std::string out = arg_value(argc, argv, "--out", "");
  const std::string trace_out = arg_value(argc, argv, "--trace", "");
  const std::string events_out = arg_value(argc, argv, "--events", "");
  serve::SloConfig slo;
  slo.window = std::atof(arg_value(argc, argv, "--slo-window", "0.01"));
  // Default latency target: half the deadline — "answered comfortably",
  // not "squeaked in".
  slo.latency_target = std::atof(
      arg_value(argc, argv, "--slo-latency",
                std::to_string(deadline / 2.0).c_str()));
  slo.latency_objective =
      std::atof(arg_value(argc, argv, "--slo-latency-obj", "0.95"));
  slo.availability_objective =
      std::atof(arg_value(argc, argv, "--slo-avail-obj", "0.99"));
  if (chips == 0 || rate <= 0.0 || duration <= 0.0 || deadline <= 0.0 ||
      train_n == 0 || test_n == 0 || tenants == 0) {
    std::fprintf(stderr,
                 "--chips/--rate/--duration/--deadline/--train/--images/"
                 "--tenants must be positive\n");
    return 2;
  }

  try {
    // --- train a small model on synthetic digits.
    nn::TrainedBenchmarkConfig tc;
    tc.train_samples = train_n;
    tc.test_samples = test_n;
    tc.epochs = epochs;
    nn::TrainedBenchmark tb = nn::train_benchmark(tc);
    const nn::Dataset& test = tb.test;
    std::printf("trained %s: test acc %.3f\n", tb.model.name().c_str(),
                tb.fit.test_accuracy);

    // --- lower one replica per chip; chip 0 optionally defective.
    std::vector<resipe_core::EngineConfig> replica_configs;
    for (std::size_t c = 0; c < chips; ++c) {
      resipe_core::EngineConfig ec;
      ec.program_seed = hash_seed(seed, 0xC41Bull, c);
      if (defects > 0.0 && c == 0) {
        ec.reliability.enabled = true;
        ec.reliability.faults.stuck_lrs_rate = defects / 2.0;
        ec.reliability.faults.stuck_hrs_rate = defects / 2.0;
        ec.reliability.fault_seed = hash_seed(seed, 0xFA17ull, c);
      }
      replica_configs.push_back(ec);
    }

    serve::ServeConfig scfg;
    scfg.default_deadline = deadline;
    scfg.seed = seed;
    serve::ChipPool pool(tb.model, tb.calib, replica_configs, scfg);
    std::printf("pool: %zu replica(s), %s defective\n", pool.size(),
                defects > 0.0 ? "chip 0" : "none");

    // --- offer an open-loop Poisson trace of test images.
    serve::TrafficConfig traffic;
    traffic.rate = rate;
    traffic.duration = duration;
    traffic.seed = hash_seed(seed, 0x7AFFull);
    traffic.tenants = tenants;
    const std::vector<serve::Request> trace =
        serve::poisson_traffic(test.images, traffic);

    serve::EventJournal journal;
    serve::Scheduler scheduler(pool, scfg);
    scheduler.attach_journal(&journal);
    for (const serve::Request& r : trace) scheduler.submit(r);
    const std::vector<serve::Response> responses = scheduler.run();
    const serve::ServingStats& stats = scheduler.stats();

    std::printf("\n== serving report (rate %.0f req/s, %zu offered) ==\n",
                rate, responses.size());
    std::fputs(stats.render().c_str(), stdout);

    // --- served accuracy: join responses back to dataset labels.
    std::size_t correct = 0, served = 0;
    for (const serve::Response& r : responses) {
      if (!r.served()) continue;
      ++served;
      std::size_t best = 0;
      for (std::size_t j = 1; j < r.logits.size(); ++j) {
        if (r.logits[j] > r.logits[best]) best = j;
      }
      if (static_cast<int>(best) == test.labels[r.tag]) ++correct;
    }
    const double acc =
        served > 0 ? static_cast<double>(correct) / served : 0.0;
    std::printf("served accuracy: %.3f (%zu/%zu)\n", acc, correct, served);

    TextTable chip_table({"chip", "state", "probes", "quar", "readmit",
                          "batches", "requests", "canary miss",
                          "canary rmse"});
    for (std::size_t c = 0; c < pool.size(); ++c) {
      const serve::ChipStatus& st = pool.status(c);
      chip_table.add_row({std::to_string(c), serve::to_string(st.state),
                          std::to_string(st.probes),
                          std::to_string(st.quarantines),
                          std::to_string(st.readmissions),
                          std::to_string(st.batches_served),
                          std::to_string(st.requests_served),
                          format_percent(st.last_canary_mismatch),
                          format_fixed(st.last_canary_rmse, 4)});
    }
    std::puts("");
    std::fputs(chip_table.str().c_str(), stdout);

    // --- span-conservation audit: every offered request must close
    // with exactly one terminal event and the journal must reconcile
    // exactly with the stats above.  A violation is a scheduler bug,
    // so it fails the run.
    const serve::TraceAudit audit = serve::audit_trace(journal, stats);
    std::puts("");
    std::fputs(audit.render().c_str(), stdout);
    if (!audit.ok()) {
      std::fprintf(stderr, "trace audit failed\n");
      return 1;
    }

    // --- per-tenant SLO / error-budget dashboard.
    serve::SloMonitor monitor(slo);
    monitor.ingest(responses);
    const serve::SloReport slo_report = monitor.report();
    std::puts("");
    std::fputs(slo_report.render().c_str(), stdout);

    if (!events_out.empty()) {
      serve::write_events_ndjson_file(journal, stats, events_out);
      std::printf("wrote %s (%zu events, %zu dropped)\n",
                  events_out.c_str(), journal.size(), journal.dropped());
    }
    if (!trace_out.empty()) {
      auto& session = telemetry::TraceSession::instance();
      serve::export_chrome_trace(journal, session);
      session.write_chrome_trace_file(trace_out);
      std::printf("wrote %s\n", trace_out.c_str());
    }

    if (!out.empty()) {
      write_text_file(out, "serving report", [&](std::ostream& os) {
        json::Writer(os)
            .begin_object()
            .field("offered", stats.submitted)
            .field("served_ok", stats.served_ok)
            .field("served_degraded", stats.served_degraded)
            .field("shed_queue_full", stats.shed_queue_full)
            .field("shed_deadline", stats.shed_deadline)
            .field("shed_quarantine", stats.shed_quarantine)
            .field("late_completions", stats.late_completions)
            .field("retries", stats.retries)
            .field("batches", stats.batches)
            .field("mean_batch", stats.mean_batch)
            .field("shed_rate", stats.shed_rate())
            .field("throughput_rps", stats.throughput)
            .field("latency_p50_s", stats.p50)
            .field("latency_p95_s", stats.p95)
            .field("latency_p99_s", stats.p99)
            .field("served_accuracy", acc)
            .field("healthy_chips", pool.healthy_count())
            .field("pool_size", pool.size())
            .field("trace_events", journal.size())
            .field("trace_dropped", journal.dropped())
            .field("audit_ok", audit.ok())
            .field("tenants", tenants)
            .field("slo_availability_budget_used",
                   slo_report.total.availability_budget_used)
            .field("slo_latency_budget_used",
                   slo_report.total.latency_budget_used)
            .field("slo_availability_burn_max",
                   slo_report.total.availability_burn_max)
            .field("slo_latency_burn_max", slo_report.total.latency_burn_max)
            .end_object();
        os << "\n";
      });
      std::printf("wrote %s\n", out.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
