// The one JSON writer of the library.
//
// Every machine-readable report — metrics, Chrome traces, roofline and
// inspection reports, serving-event NDJSON, fuzz repro records, bench
// lines — quotes its strings with `quote`, prints its doubles with
// `number`, and lays out objects and arrays through `Writer`, so they
// all agree on one escaping rule and one number format.
//
//   json::Writer w(os);
//   w.begin_object().field("name", "fig7").field("acc", 0.93);
//   w.key("xs").begin_array().value(1).value(2).end_array();
//   w.end_object();  // {"name":"fig7","acc":0.93000000000000005,"xs":[1,2]}
#pragma once

#include <concepts>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace resipe::json {

/// `s` as a quoted JSON string: `"` and `\` are backslash-escaped,
/// `\n \t \r \b \f` by name, every other byte below 0x20 as `\u00XX`.
/// Bytes from 0x20 up (UTF-8 included) pass through unchanged.
std::string quote(std::string_view s);

/// `v` at `%.17g`: enough digits to round-trip any double exactly.
std::string number(double v);

/// Compact streaming writer.  It owns the commas and the nesting; the
/// caller names keys and values in document order.  Values written at
/// the top level (no open object or array) follow each other with no
/// separator, which is what one NDJSON line per Writer needs.
class Writer {
 public:
  explicit Writer(std::ostream& os) : os_(os) {}

  Writer& begin_object() { return open('{'); }
  Writer& end_object() { return close('}'); }
  Writer& begin_array() { return open('['); }
  Writer& end_array() { return close(']'); }

  /// Object key; the next call writes its value.
  Writer& key(std::string_view k);

  Writer& value(std::string_view s) { return raw(quote(s)); }
  Writer& value(const char* s) { return raw(quote(s)); }
  Writer& value(bool b) { return raw(b ? "true" : "false"); }
  Writer& value(double v) { return raw(number(v)); }
  template <std::integral T>
  Writer& value(T v) {
    return raw(std::to_string(v));
  }

  /// A value already rendered as JSON: a fixed-format number such as
  /// `%.3f` microseconds, or a pre-serialized object.
  Writer& raw(std::string_view fragment);

  template <typename T>
  Writer& field(std::string_view k, const T& v) {
    return key(k).value(v);
  }
  Writer& raw_field(std::string_view k, std::string_view fragment) {
    return key(k).raw(fragment);
  }

 private:
  /// Writes the comma owed before the next value (none after a key or
  /// at the start of a container).
  void separate();
  Writer& open(char bracket);
  Writer& close(char bracket);

  std::ostream& os_;
  std::vector<bool> first_;  ///< one entry per open container
  bool after_key_ = false;
};

}  // namespace resipe::json
