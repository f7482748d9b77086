#include "resipe/telemetry/trace.hpp"

#include <algorithm>
#include <atomic>
#include <string_view>

#include "resipe/common/file.hpp"
#include "resipe/common/json.hpp"
#include "resipe/common/table.hpp"
#include "resipe/telemetry/metrics.hpp"
#include "resipe/telemetry/timer.hpp"

namespace resipe::telemetry {

namespace {

std::uint32_t this_thread_id() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace

TraceSession& TraceSession::instance() {
  static TraceSession session;
  return session;
}

void TraceSession::start() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  // Track names survive session restarts on purpose: pool workers label
  // themselves once per process, not once per session.
  dropped_.store(0, std::memory_order_relaxed);
  t0_ns_ = now_ns();
  active_.store(true, std::memory_order_relaxed);
  set_enabled(true);
  names_[{1, this_thread_id()}] = "main";
}

void TraceSession::stop() { active_.store(false, std::memory_order_relaxed); }

void TraceSession::record_complete(const char* name,
                                   std::uint64_t start_abs_ns,
                                   std::uint64_t dur_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!active_.load(std::memory_order_relaxed)) return;
  if (events_.size() >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TraceEvent e;
  e.name = name;
  e.phase = 'X';
  e.ts_ns = start_abs_ns >= t0_ns_ ? start_abs_ns - t0_ns_ : 0;
  e.dur_ns = dur_ns;
  e.tid = this_thread_id();
  events_.push_back(std::move(e));
}

void TraceSession::instant(const char* name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!active_.load(std::memory_order_relaxed)) return;
  if (events_.size() >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TraceEvent e;
  e.name = name;
  e.phase = 'i';
  e.ts_ns = now_ns() - t0_ns_;
  e.tid = this_thread_id();
  events_.push_back(std::move(e));
}

void TraceSession::counter(const char* name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!active_.load(std::memory_order_relaxed)) return;
  if (events_.size() >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TraceEvent e;
  e.name = name;
  e.phase = 'C';
  e.ts_ns = now_ns() - t0_ns_;
  e.tid = this_thread_id();
  e.value = value;
  events_.push_back(std::move(e));
}

void TraceSession::add_event(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  events_.push_back(std::move(event));
}

void TraceSession::set_thread_name(std::uint32_t pid, std::uint32_t tid,
                                   const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  names_.emplace(std::make_pair(pid, tid), name);  // first writer wins
}

void TraceSession::name_current_thread(const std::string& name) {
  set_thread_name(1, this_thread_id(), name);
}

std::uint32_t TraceSession::current_thread_id() { return this_thread_id(); }

void TraceSession::set_capacity(std::size_t max_events) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = max_events;
}

std::vector<TraceEvent> TraceSession::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::map<std::pair<std::uint32_t, std::uint32_t>, std::string>
TraceSession::thread_names() const {
  std::lock_guard<std::mutex> lock(mu_);
  return names_;
}

void TraceSession::write_chrome_trace(std::ostream& os) const {
  std::vector<TraceEvent> events = snapshot();
  const auto names = thread_names();
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  // Chrome expects microseconds; fractional us keep the ns detail.
  const auto micros = [](std::uint64_t ns) {
    return format_fixed(static_cast<double>(ns) * 1e-3, 3);
  };
  json::Writer w(os);
  w.begin_object().key("traceEvents").begin_array();
  // Metadata first: one thread_name record per registered track so the
  // viewer labels lanes before any event references them.
  for (const auto& [key, label] : names) {
    w.begin_object()
        .field("name", "thread_name")
        .field("ph", "M")
        .field("pid", key.first)
        .field("tid", key.second)
        .key("args")
        .begin_object()
        .field("name", label)
        .end_object()
        .end_object();
  }
  for (const TraceEvent& e : events) {
    const auto dot = e.name.find('.');
    w.begin_object()
        .field("name", e.name)
        .field("cat", std::string_view(e.name).substr(0, dot))
        .field("ph", std::string_view(&e.phase, 1))
        .raw_field("ts", micros(e.ts_ns));
    if (e.phase == 'X') w.raw_field("dur", micros(e.dur_ns));
    if (e.phase == 'i') w.field("s", "t");
    if (e.phase == 's' || e.phase == 't' || e.phase == 'f') {
      w.field("id", e.flow_id);
      // Bind the arrow's end to the enclosing slice, the conventional
      // rendering for request flows.
      if (e.phase == 'f') w.field("bp", "e");
    }
    if (e.phase == 'C' && e.args_json.empty()) {
      w.key("args").begin_object().field("value", e.value).end_object();
    } else if (!e.args_json.empty()) {
      w.raw_field("args", e.args_json);
    }
    w.field("pid", e.pid).field("tid", e.tid).end_object();
  }
  w.end_array().field("displayTimeUnit", "ns").end_object();
  os << "\n";
}

void TraceSession::write_chrome_trace_file(const std::string& path) const {
  write_text_file(path, "trace file",
                  [this](std::ostream& os) { write_chrome_trace(os); });
}

}  // namespace resipe::telemetry
