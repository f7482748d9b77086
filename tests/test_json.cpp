// The one JSON writer (common/json) and every report written through
// it: escaping and number rules, byte-pinned output of each converted
// writer, and the full-disk check of the report-file helper.
#include "resipe/common/json.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>

#include "resipe/common/csv.hpp"
#include "resipe/common/error.hpp"
#include "resipe/introspect/inspect.hpp"
#include "resipe/perf/roofline.hpp"
#include "resipe/serve/trace.hpp"
#include "resipe/telemetry/metrics.hpp"
#include "resipe/telemetry/trace.hpp"

namespace resipe {
namespace {

/// True when no byte below 0x20 appears except a trailing newline.
bool no_raw_control_bytes(const std::string& s) {
  for (std::size_t i = 0; i < s.size(); ++i) {
    const bool trailing_newline = s[i] == '\n' && i + 1 == s.size();
    if (static_cast<unsigned char>(s[i]) < 0x20 && !trailing_newline) {
      return false;
    }
  }
  return true;
}

// --- the writer itself -----------------------------------------------

TEST(Json, QuoteEscapesEveryControlByte) {
  std::string all;
  for (int c = 1; c < 0x20; ++c) all += static_cast<char>(c);
  all += "\"\\/~";
  const std::string q = json::quote(all);
  EXPECT_EQ(q,
            "\"\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\b\\t\\n"
            "\\u000b\\f\\r\\u000e\\u000f\\u0010\\u0011\\u0012\\u0013\\u0014"
            "\\u0015\\u0016\\u0017\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d"
            "\\u001e\\u001f\\\"\\\\/~\"");
  EXPECT_EQ(json::quote("caf\xc3\xa9"), "\"caf\xc3\xa9\"");  // UTF-8 as is
}

TEST(Json, NumberRoundTripsEveryDouble) {
  EXPECT_EQ(json::number(0.1), "0.10000000000000001");
  EXPECT_EQ(json::number(2.0), "2");
  EXPECT_EQ(json::number(-2.5e-9), "-2.5000000000000001e-09");
  for (const double v : {1.0 / 3.0, 6.02214076e23, -4.9e-324, 1e308}) {
    EXPECT_EQ(std::strtod(json::number(v).c_str(), nullptr), v);
  }
}

TEST(Json, WriterOwnsCommasAndNesting) {
  std::ostringstream os;
  json::Writer w(os);
  w.begin_object()
      .field("s", "a\"b")
      .field("n", 3)
      .field("x", 0.5)
      .field("ok", false)
      .key("arr")
      .begin_array()
      .value(1)
      .begin_object()
      .end_object()
      .begin_array()
      .end_array()
      .raw("1.500")
      .end_array()
      .raw_field("pre", "{\"k\":1}")
      .end_object();
  w.begin_array().value("next").end_array();  // top level: no separator
  EXPECT_EQ(os.str(),
            "{\"s\":\"a\\\"b\",\"n\":3,\"x\":0.5,\"ok\":false,"
            "\"arr\":[1,{},[],1.500],\"pre\":{\"k\":1}}[\"next\"]");
}

// --- fixtures ------------------------------------------------------------
//
// Each converted writer's output on a fixed input, byte for byte as the
// hand-built writers produced it before they moved onto common/json.

telemetry::MetricsSnapshot metrics_fixture() {
  telemetry::MetricsSnapshot snap;
  snap.counters = {{"fix.calls", 7}, {"fix.zero", 0}};
  snap.gauges = {{"fix.gauge", 0.1}, {"fix.neg", -2.5e-9}};
  telemetry::MetricsSnapshot::HistogramData h;
  h.bounds = {0.25, 1.0};
  h.buckets = {1, 1, 1};
  h.count = 3;
  h.sum = 2.625;
  h.min = 0.125;
  h.max = 2.0;
  snap.histograms = {{"fix.hist", h}};
  return snap;
}

perf::RooflineReport roofline_fixture() {
  perf::RooflineReport r;
  r.machine.cpu_model = "Test CPU @ 3.0GHz";
  r.machine.cores = 4;
  r.machine.fingerprint = "Test CPU @ 3.0GHz;4;word=8";
  r.machine.fingerprint_hash = "00ff00ff00ff00ff";
  r.machine.peak_gflops = 12.5;
  r.machine.peak_gbs = 5.0;
  r.counters.detail = "perf_event_open: denied";
  r.counters.wall_ns = 1.0e6;
  r.counters.cycles = 3.0e6;
  r.counters.instructions = 4.5e6;
  r.counters.cache_references = 1000;
  r.counters.cache_misses = 30;
  r.counters.branch_misses = 7;
  perf::KernelRates k;
  k.name = "fast_mvm.block";
  k.calls = 12;
  k.seconds = 1.0e-3;
  k.flops = 2.0e6;
  k.bytes = 1.0e6;
  k.gflops = 2.0;
  k.gbs = 1.0;
  k.intensity = 2.0;
  k.timed = true;
  k.memory_bound = true;
  k.attainable_gflops = 10.0;
  k.efficiency = 0.2;
  r.kernels.push_back(k);
  perf::KernelRates u;
  u.name = "im2col";
  u.calls = 3;
  u.bytes = 4096;
  r.kernels.push_back(u);
  return r;
}

introspect::InspectionReport inspection_fixture() {
  introspect::InspectionReport r;
  r.provenance.engine_config_hash = "0123456789abcdef";
  r.provenance.program_seed = 42;
  r.provenance.fault_seed = 7;
  r.provenance.threads = 2;
  r.provenance.telemetry_build = true;
  r.provenance.telemetry_enabled = false;
  r.provenance.compiler = "gcc 13.2";
  r.provenance.build_type = "release";
  r.provenance.timestamp = "2026-01-02T03:04:05Z";
  r.model_name = "mlp1";
  r.batch_size = 16;
  r.analog_accuracy = 0.875;
  r.digital_accuracy = 0.9375;
  r.logits_rmse = 0.1;
  r.total_energy = 3.2e-9;
  introspect::LayerReport a;
  a.step = 0;
  a.name = "Dense(4->3)";
  a.is_matrix = true;
  a.tiles = 2;
  a.probed = true;
  a.probe = resipe_core::ProgrammedMatrix::ProbeStats(4);
  a.probe.spike_time_hist = {1, 0, 5, 2};
  a.probe.spikes = 8;
  a.probe.no_spike = 1;
  a.probe.pinned_start = 1;
  a.probe.pinned_end = 2;
  a.probe.inputs_clamped = 3;
  a.probe.vectors = 16;
  a.activity = {3, 1, 0};
  a.error = {true, 16, 0.3, 0.1, 0.15, 0.05};
  a.energy = {1e-12, 32, 3.2e-11};
  a.accuracy_if_digital = 0.9;
  r.layers.push_back(a);
  introspect::LayerReport b;
  b.step = 1;
  b.name = "ReLU";
  r.layers.push_back(b);
  return r;
}

TEST(JsonFixture, MetricsJson) {
  std::ostringstream os;
  telemetry::write_metrics_json(os, metrics_fixture());
  EXPECT_EQ(os.str(),
            R"({"counters":{"fix.calls":7,"fix.zero":0},"gauges":{"fix.gauge":0.10000000000000001,"fix.neg":-2.5000000000000001e-09},"histograms":{"fix.hist":{"bounds":[0.25,1],"buckets":[1,1,1],"count":3,"sum":2.625,"min":0.125,"max":2,"p50":0.625,"p95":1.8499999999999996,"p99":1.9699999999999998}}})"
            "\n");
}

TEST(JsonFixture, ChromeTrace) {
  auto& s = telemetry::TraceSession::instance();
  s.start();
  s.stop();
  s.set_thread_name(2, 5, "lane\t\"q\"\\");
  telemetry::TraceEvent x;
  x.name = "net.forward";
  x.phase = 'X';
  x.ts_ns = 1500;
  x.dur_ns = 2500;
  x.tid = 3;
  s.add_event(x);
  telemetry::TraceEvent i;
  i.name = "mark";
  i.phase = 'i';
  i.ts_ns = 1000;
  i.tid = 3;
  s.add_event(i);
  telemetry::TraceEvent c;
  c.name = "queue.depth";
  c.phase = 'C';
  c.ts_ns = 4000;
  c.value = 0.1;
  s.add_event(c);
  telemetry::TraceEvent f;
  f.name = "serve.request";
  f.phase = 's';
  f.flow_id = 9;
  f.ts_ns = 5000;
  f.pid = 2;
  f.tid = 5;
  s.add_event(f);
  f.phase = 't';
  f.ts_ns = 6000;
  s.add_event(f);
  f.phase = 'f';
  f.ts_ns = 7001;
  f.args_json = R"({"k":1})";
  s.add_event(f);
  std::ostringstream os;
  s.write_chrome_trace(os);
  // start() names the calling thread's lane; its id depends on which
  // thread reached the trace layer first in this process.
  const std::string main_tid =
      std::to_string(telemetry::TraceSession::current_thread_id());
  EXPECT_EQ(
      os.str(),
      R"({"traceEvents":[{"name":"thread_name","ph":"M","pid":1,"tid":)" +
          main_tid +
          R"(,"args":{"name":"main"}},{"name":"thread_name","ph":"M","pid":2,"tid":5,"args":{"name":"lane\t\"q\"\\"}},{"name":"mark","cat":"mark","ph":"i","ts":1.000,"s":"t","pid":1,"tid":3},{"name":"net.forward","cat":"net","ph":"X","ts":1.500,"dur":2.500,"pid":1,"tid":3},{"name":"queue.depth","cat":"queue","ph":"C","ts":4.000,"args":{"value":0.10000000000000001},"pid":1,"tid":0},{"name":"serve.request","cat":"serve","ph":"s","ts":5.000,"id":9,"pid":2,"tid":5},{"name":"serve.request","cat":"serve","ph":"t","ts":6.000,"id":9,"pid":2,"tid":5},{"name":"serve.request","cat":"serve","ph":"f","ts":7.001,"id":9,"bp":"e","args":{"k":1},"pid":2,"tid":5}],"displayTimeUnit":"ns"})"
          "\n");
}

TEST(JsonFixture, RooflineJson) {
  std::ostringstream os;
  roofline_fixture().write_json(os);
  EXPECT_EQ(os.str(),
            R"({"machine":{"cpu_model":"Test CPU @ 3.0GHz","cores":4,"fingerprint":"Test CPU @ 3.0GHz;4;word=8","fingerprint_hash":"00ff00ff00ff00ff","peak_gflops":12.5,"peak_gbs":5,"ridge_flop_per_byte":2.5},"counters":{"available":false,"detail":"perf_event_open: denied","wall_ns":1000000,"cycles":3000000,"instructions":4500000,"ipc":1.5,"cache_references":1000,"cache_misses":30,"cache_miss_rate":0.029999999999999999,"branch_misses":7},"kernels":[{"name":"fast_mvm.block","calls":12,"seconds":0.001,"flops":2000000,"bytes":1000000,"timed":true,"gflops":2,"gbs":1,"intensity_flop_per_byte":2,"bound":"memory","attainable_gflops":10,"roofline_efficiency":0.20000000000000001},{"name":"im2col","calls":3,"seconds":0,"flops":0,"bytes":4096,"timed":false,"gflops":0,"gbs":0,"intensity_flop_per_byte":0,"bound":"compute","attainable_gflops":0,"roofline_efficiency":0}]})"
            "\n");
}

TEST(JsonFixture, InspectionReport) {
  EXPECT_EQ(
      inspection_fixture().to_json(),
      R"json({"provenance":{"engine_config_hash":"0123456789abcdef","program_seed":42,"fault_seed":7,"threads":2,"telemetry_build":true,"telemetry_enabled":false,"compiler":"gcc 13.2","build_type":"release","timestamp":"2026-01-02T03:04:05Z"},"model":"mlp1","batch_size":16,"analog_accuracy":0.875,"digital_accuracy":0.9375,"logits_rmse":0.10000000000000001,"total_energy_j":3.2000000000000001e-09,"layers":[{"step":0,"name":"Dense(4->3)","is_matrix":true,"is_conv":false,"tiles":2,"spike_health":{"vectors":16,"spikes":8,"no_spike":1,"pinned_start":1,"pinned_end":2,"inputs_clamped":3,"time_hist":[1,0,5,2]},"activity":{"outputs":3,"dead":1,"always_on":0},"error":{"vectors":16,"total":0.29999999999999999,"quantization":0.10000000000000001,"variation":0.14999999999999999,"nonlinearity":0.050000000000000003},"energy":{"per_tile_mvm_j":9.9999999999999998e-13,"tile_mvms":32,"total_j":3.1999999999999999e-11},"accuracy_if_digital":0.90000000000000002},{"step":1,"name":"ReLU","is_matrix":false,"is_conv":false,"tiles":0}]})json");
}

TEST(JsonFixture, ServeEventsNdjsonOneLinePerKind) {
  using namespace serve;
  EventJournal j(64);
  const auto ev = [](ServeEventKind k, double t) {
    ServeEvent e;
    e.kind = k;
    e.time = t;
    return e;
  };
  ServeEvent e = ev(ServeEventKind::kAdmit, 1e-6);
  e.request = 1;
  e.tenant = 2;
  e.value = 3;
  j.record(e);
  e = ev(ServeEventKind::kShed, 2e-6);
  e.request = 2;
  e.code = static_cast<int>(RejectReason::kQueueFull);
  j.record(e);
  e = ev(ServeEventKind::kBatchForm, 3e-6);
  e.batch = 5;
  e.chip = 1;
  e.code = static_cast<int>(BatchFillReason::kWindowExpired);
  e.value = 4;
  j.record(e);
  e = ev(ServeEventKind::kDispatch, 4e-6);
  e.request = 1;
  e.batch = 5;
  e.chip = 1;
  j.record(e);
  e = ev(ServeEventKind::kAttemptDone, 5.5e-6);
  e.request = 1;
  e.batch = 5;
  e.chip = 1;
  e.attempt = 1;
  e.value = 2;
  j.record(e);
  e = ev(ServeEventKind::kRetrySchedule, 6e-6);
  e.request = 1;
  e.attempt = 1;
  e.value = 1.25e-4;
  e.aux = 0.0375;
  j.record(e);
  e = ev(ServeEventKind::kComplete, 7.25e-6);
  e.request = 1;
  e.chip = 0;
  e.attempt = 2;
  e.code = 1;
  e.value = 1;
  j.record(e);
  e = ev(ServeEventKind::kProbe, 8e-3);
  e.chip = 2;
  e.code = 1;
  e.value = 0.375;
  e.aux = 0.61;
  j.record(e);
  e = ev(ServeEventKind::kQuarantine, 8e-3);
  e.chip = 2;
  j.record(e);
  e = ev(ServeEventKind::kReadmit, 1.0 / 3.0);
  e.chip = 2;
  j.record(e);
  ServingStats st;
  st.submitted = 2;
  st.served_degraded = 1;
  st.shed_queue_full = 1;
  st.retries = 1;
  st.batches = 1;
  std::ostringstream os;
  write_events_ndjson(j, st, os);
  EXPECT_EQ(os.str(), R"({"schema":"resipe.serve.trace/1","events":10,"dropped":0}
{"seq":0,"t":0.000001000,"kind":"admit","request":1,"tenant":2,"attempt":0,"queue_depth":3}
{"seq":1,"t":0.000002000,"kind":"shed","request":2,"tenant":0,"attempt":0,"reason":"queue_full"}
{"seq":2,"t":0.000003000,"kind":"batch_form","batch":5,"chip":1,"attempt":0,"fill":"window_expired","size":4}
{"seq":3,"t":0.000004000,"kind":"dispatch","request":1,"tenant":0,"batch":5,"chip":1,"attempt":0}
{"seq":4,"t":0.000005500,"kind":"attempt_done","request":1,"tenant":0,"batch":5,"chip":1,"attempt":1,"degraded_outputs":2}
{"seq":5,"t":0.000006000,"kind":"retry_schedule","request":1,"tenant":0,"attempt":1,"backoff_s":0.000125,"jitter":0.0375}
{"seq":6,"t":0.000007250,"kind":"complete","request":1,"tenant":0,"chip":0,"attempt":2,"status":"degraded","degraded_outputs":1}
{"seq":7,"t":0.008000000,"kind":"probe","chip":2,"attempt":0,"verdict":"fail","mismatch":0.375000,"rmse":0.61}
{"seq":8,"t":0.008000000,"kind":"quarantine","chip":2,"attempt":0}
{"seq":9,"t":0.333333333,"kind":"readmit","chip":2,"attempt":0}
{"summary":{"submitted":2,"served_ok":0,"served_degraded":1,"shed_queue_full":1,"shed_deadline":0,"shed_quarantine":0,"late_completions":0,"retries":1,"batches":1,"dropped":0}}
)");
}

// --- control characters in report strings ---------------------------

TEST(JsonControlChars, MetricNameIsEscaped) {
  telemetry::MetricRegistry::instance().counter("a\tb\nc\x01").add(2);
  std::ostringstream os;
  telemetry::write_metrics_json(os);
  EXPECT_NE(os.str().find(R"("a\tb\nc\u0001":2)"), std::string::npos);
  EXPECT_TRUE(no_raw_control_bytes(os.str()));
}

TEST(JsonControlChars, RooflineCpuModelIsEscaped) {
  perf::RooflineReport r = roofline_fixture();
  r.machine.cpu_model = "Test\tCPU";
  std::ostringstream os;
  r.write_json(os);
  EXPECT_NE(os.str().find(R"("cpu_model":"Test\tCPU")"), std::string::npos);
  EXPECT_TRUE(no_raw_control_bytes(os.str()));
}

TEST(JsonControlChars, InspectionModelNameIsEscaped) {
  introspect::InspectionReport r = inspection_fixture();
  r.model_name = "mlp\r1";
  const std::string doc = r.to_json() + "\n";
  EXPECT_NE(doc.find(R"("model":"mlp\r1")"), std::string::npos);
  EXPECT_TRUE(no_raw_control_bytes(doc));
}

// --- report files on a full disk -------------------------------------
//
// /dev/full accepts the open and fails every write; the stream only
// notices when its buffer is flushed, so each writer must flush before
// it checks.

constexpr const char* kFullDisk = "/dev/full";

#define SKIP_WITHOUT_DEV_FULL()                                \
  if (!std::filesystem::exists(kFullDisk)) {                   \
    GTEST_SKIP() << kFullDisk << " is not available here";    \
  }

TEST(FullDisk, MetricsJsonThrows) {
  SKIP_WITHOUT_DEV_FULL();
  EXPECT_THROW(telemetry::write_metrics_json_file(kFullDisk), Error);
}

TEST(FullDisk, InspectionReportThrows) {
  SKIP_WITHOUT_DEV_FULL();
  EXPECT_THROW(inspection_fixture().write_json_file(kFullDisk), Error);
}

TEST(FullDisk, RooflineReportThrows) {
  SKIP_WITHOUT_DEV_FULL();
  EXPECT_THROW(roofline_fixture().write_json_file(kFullDisk), Error);
}

TEST(FullDisk, EveryOtherReportFileThrows) {
  SKIP_WITHOUT_DEV_FULL();
  EXPECT_THROW(telemetry::write_metrics_csv_file(kFullDisk), Error);
  EXPECT_THROW(
      telemetry::TraceSession::instance().write_chrome_trace_file(kFullDisk),
      Error);
  serve::EventJournal journal(4);
  EXPECT_THROW(serve::write_events_ndjson_file(journal, serve::ServingStats{},
                                               kFullDisk),
               Error);
  CsvWriter csv;
  csv.add_column("x", {1.0, 2.0});
  EXPECT_THROW(csv.write_file(kFullDisk), Error);
}

}  // namespace
}  // namespace resipe
