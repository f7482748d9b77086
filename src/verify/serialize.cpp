#include "resipe/verify/serialize.hpp"

#include <algorithm>
#include <cctype>
#include <concepts>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <vector>

#include "resipe/common/error.hpp"
#include "resipe/common/json.hpp"

namespace resipe::verify {
namespace {

using circuits::TransferModel;
using crossbar::SignedMapping;

// --- minimal flat-JSON scanner -----------------------------------------
//
// Accepts exactly the subset repro_to_json emits: one object whose
// values are numbers, booleans, strings or arrays of numbers.  No
// external JSON dependency — the container bakes none in.

class Scanner {
 public:
  explicit Scanner(const std::string& text) : s_(text) {}

  void expect(char c) {
    skip_ws();
    RESIPE_REQUIRE(i_ < s_.size() && s_[i_] == c,
                   "repro JSON: expected '" << c << "' at offset " << i_);
    ++i_;
  }

  char peek() {
    skip_ws();
    return i_ < s_.size() ? s_[i_] : '\0';
  }

  /// A quoted string, decoding every escape json::quote emits.
  /// Corpus files are outside input, so an unknown escape is an error,
  /// not a silently dropped backslash.
  std::string string_value() {
    expect('"');
    std::string out;
    while (i_ < s_.size() && s_[i_] != '"') {
      char c = s_[i_++];
      if (c == '\\') {
        RESIPE_REQUIRE(i_ < s_.size(),
                       "repro JSON: unterminated escape at offset " << i_);
        c = s_[i_++];
        switch (c) {
          case '"': case '\\': break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': c = static_cast<char>(hex_code_unit()); break;
          default:
            RESIPE_REQUIRE(false, "repro JSON: unknown escape '\\"
                                      << c << "' at offset " << i_ - 1);
        }
      }
      out += c;
    }
    expect('"');
    return out;
  }

  /// A bare token: number, true, false.
  std::string token() {
    skip_ws();
    const std::size_t start = i_;
    while (i_ < s_.size() && (std::isalnum(static_cast<unsigned char>(s_[i_])) ||
                              s_[i_] == '+' || s_[i_] == '-' ||
                              s_[i_] == '.')) {
      ++i_;
    }
    RESIPE_REQUIRE(i_ > start, "repro JSON: expected a value at offset " << i_);
    return s_.substr(start, i_ - start);
  }

 private:
  /// The four hex digits of a `\uXXXX` escape.  Only code units below
  /// 0x80 decode to one byte, which covers every escape json::quote
  /// writes; anything wider is rejected.
  unsigned hex_code_unit() {
    const std::string hex = s_.substr(i_, 4);
    RESIPE_REQUIRE(hex.size() == 4 &&
                       std::all_of(hex.begin(), hex.end(),
                                   [](unsigned char h) {
                                     return std::isxdigit(h) != 0;
                                   }),
                   "repro JSON: bad \\u escape at offset " << i_);
    i_ += 4;
    const auto v = static_cast<unsigned>(std::stoul(hex, nullptr, 16));
    RESIPE_REQUIRE(v < 0x80, "repro JSON: \\u" << hex
                                 << " is outside the ASCII range");
    return v;
  }

  void skip_ws() {
    while (i_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

std::uint64_t to_u64(const std::string& t) {
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(t.c_str(), &end, 10);
  RESIPE_REQUIRE(end && *end == '\0',
                 "repro JSON: bad integer '" << t << "'");
  return v;
}

// --- the record's fields ------------------------------------------------
//
// One entry per key, in file order.  repro_to_json walks the table to
// write a record and repro_from_json looks each key up in it to read
// one back, so the two cannot drift apart.

struct FieldCodec {
  const char* key;
  std::function<std::string(const ReproRecord&)> write;
  std::function<void(ReproRecord&, const std::string&)> read;
};

// The member of a ReproRecord a codec reads and writes; the generic
// lambda binds to a const record when writing, a mutable one when
// reading.
#define FIELD(member) [](auto& r) -> auto& { return r.member; }
#define CFG(member) FIELD(spec.config.member)

std::string encode(double v) { return json::number(v); }
std::string encode(bool v) { return v ? "true" : "false"; }
std::string encode(const std::string& v) { return json::quote(v); }
template <std::integral T>
std::string encode(T v) {
  return std::to_string(v);
}

void decode(const std::string& t, double& v) {
  char* end = nullptr;
  v = std::strtod(t.c_str(), &end);
  RESIPE_REQUIRE(end && *end == '\0', "repro JSON: bad number '" << t << "'");
}
void decode(const std::string& t, bool& v) {
  RESIPE_REQUIRE(t == "true" || t == "false",
                 "repro JSON: bad boolean '" << t << "'");
  v = t == "true";
}
void decode(const std::string& t, std::string& v) { v = t; }
template <std::integral T>
void decode(const std::string& t, T& v) {
  v = static_cast<T>(to_u64(t));
}

/// A number, boolean or string member, encoded by its type.
template <typename Get>
FieldCodec field(const char* key, Get get) {
  return {key, [get](const ReproRecord& r) { return encode(get(r)); },
          [get](ReproRecord& r, const std::string& v) { decode(v, get(r)); }};
}

/// A 64-bit seed, written as a string (see serialize.hpp).
template <typename Get>
FieldCodec seed(const char* key, Get get) {
  return {key,
          [get](const ReproRecord& r) {
            return json::quote(std::to_string(get(r)));
          },
          [get](ReproRecord& r, const std::string& v) { decode(v, get(r)); }};
}

/// An enum member, written as one of `names`.
template <typename E, typename Get>
FieldCodec choice(const char* key, Get get,
                  std::vector<std::pair<E, const char*>> names) {
  return {key,
          [get, names](const ReproRecord& r) {
            const auto it = std::find_if(
                names.begin(), names.end(),
                [&r, &get](const auto& n) { return n.first == get(r); });
            return json::quote(it->second);
          },
          [get, names, key](ReproRecord& r, const std::string& v) {
            const auto it =
                std::find_if(names.begin(), names.end(),
                             [&v](const auto& n) { return v == n.second; });
            RESIPE_REQUIRE(it != names.end(), "unknown " << key << " '" << v
                                                  << "' in repro record");
            get(r) = it->first;
          }};
}

const std::vector<FieldCodec>& fields() {
  static const std::vector<FieldCodec> table = {
      field("schema_version", FIELD(spec.descriptor.schema_version)),
      seed("seed", FIELD(spec.descriptor.seed)),
      field("contract", FIELD(contract)),
      field("detail", FIELD(detail)),
      field("rows", FIELD(spec.rows)),
      field("cols", FIELD(spec.cols)),
      field("inputs", FIELD(spec.inputs)),
      {"layers",
       [](const ReproRecord& r) {
         std::string arr = "[";
         for (std::size_t i = 0; i < r.spec.layers.size(); ++i) {
           arr += (i ? ", " : "") + std::to_string(r.spec.layers[i]);
         }
         return arr + "]";
       },
       nullptr},  // an array: repro_from_json parses it itself
      field("classes", FIELD(spec.classes)),
      field("batch", FIELD(spec.batch)),
      field("tile_rows", CFG(tile_rows)),
      field("tile_cols", CFG(tile_cols)),
      choice<SignedMapping>(
          "mapping", CFG(mapping),
          {{SignedMapping::kDifferentialPair, "differential_pair"},
           {SignedMapping::kComplementaryPair, "complementary_pair"},
           {SignedMapping::kOffsetColumn, "offset_column"}}),
      field("quantize_spikes", CFG(quantize_spikes)),
      field("calibration_headroom", CFG(calibration_headroom)),
      field("input_scale_margin", CFG(input_scale_margin)),
      seed("program_seed", CFG(program_seed)),
      field("model_wire_ir_drop", CFG(model_wire_ir_drop)),
      field("wire_r_wordline", CFG(wires.r_wordline_segment)),
      field("wire_r_bitline", CFG(wires.r_bitline_segment)),
      field("retention_time", CFG(retention_time)),
      field("circuit_v_s", CFG(circuit.v_s)),
      field("circuit_r_gd", CFG(circuit.r_gd)),
      field("circuit_c_gd", CFG(circuit.c_gd)),
      field("circuit_c_cog", CFG(circuit.c_cog)),
      field("circuit_slice_length", CFG(circuit.slice_length)),
      field("circuit_comp_stage", CFG(circuit.comp_stage)),
      field("circuit_spike_width", CFG(circuit.spike_width)),
      field("circuit_clock_period", CFG(circuit.clock_period)),
      field("circuit_comparator_offset", CFG(circuit.comparator_offset)),
      field("circuit_comparator_delay", CFG(circuit.comparator_delay)),
      field("circuit_comparator_offset_sigma",
            CFG(circuit.comparator_offset_sigma)),
      choice<TransferModel>(
          "circuit_model", CFG(circuit.model),
          {{TransferModel::kExact, "exact"},
           {TransferModel::kLinear, "linear"}}),
      field("device_r_lrs", CFG(device.r_lrs)),
      field("device_r_hrs", CFG(device.r_hrs)),
      field("device_levels", CFG(device.levels)),
      field("device_write_verify_tolerance",
            CFG(device.write_verify_tolerance)),
      field("device_variation_sigma", CFG(device.variation_sigma)),
      field("device_read_noise_sigma", CFG(device.read_noise_sigma)),
      field("device_stuck_lrs_rate", CFG(device.stuck_lrs_rate)),
      field("device_stuck_hrs_rate", CFG(device.stuck_hrs_rate)),
      field("device_drift_nu", CFG(device.drift_nu)),
      field("device_drift_t0", CFG(device.drift_t0)),
      field("device_transistor_r_on", CFG(device.transistor_r_on)),
      field("rel_enabled", CFG(reliability.enabled)),
      field("rel_stuck_lrs_rate", CFG(reliability.faults.stuck_lrs_rate)),
      field("rel_stuck_hrs_rate", CFG(reliability.faults.stuck_hrs_rate)),
      field("rel_cluster_fraction", CFG(reliability.faults.cluster_fraction)),
      field("rel_cluster_size", CFG(reliability.faults.cluster_size)),
      field("rel_read_disturb_rate", CFG(reliability.read_disturb_rate)),
      field("rel_expected_mvms", CFG(reliability.expected_mvms)),
      field("rel_endurance_cycles", CFG(reliability.endurance_cycles)),
      field("rel_wear_cycles", CFG(reliability.wear_cycles)),
      field("rel_mapper_rail_tolerance",
            CFG(reliability.mapper.rail_tolerance)),
      field("rel_mapper_reads_per_cell",
            CFG(reliability.mapper.reads_per_cell)),
      field("rel_mapper_miss_rate", CFG(reliability.mapper.miss_rate)),
      field("rel_mapper_false_alarm_rate",
            CFG(reliability.mapper.false_alarm_rate)),
      field("rel_mit_enabled", CFG(reliability.mitigation.enabled)),
      field("rel_mit_spare_cols", CFG(reliability.mitigation.spare_cols)),
      field("rel_mit_remap_columns", CFG(reliability.mitigation.remap_columns)),
      field("rel_mit_compensate_pairs",
            CFG(reliability.mitigation.compensate_pairs)),
      field("rel_mit_write_verify_retries",
            CFG(reliability.mitigation.write_verify_retries)),
      field("rel_mit_degrade_threshold",
            CFG(reliability.mitigation.degrade_threshold)),
      seed("rel_fault_seed", CFG(reliability.fault_seed)),
      field("insp_enabled", CFG(introspect.enabled)),
      field("insp_max_probe_vectors", CFG(introspect.max_probe_vectors)),
      field("insp_max_attribution_vectors",
            CFG(introspect.max_attribution_vectors)),
      field("insp_attribute_error", CFG(introspect.attribute_error)),
      field("insp_accuracy_attribution", CFG(introspect.accuracy_attribution)),
      field("insp_energy_ledger", CFG(introspect.energy_ledger)),
      field("insp_spike_time_bins", CFG(introspect.spike_time_bins)),
      field("insp_activity_threshold", CFG(introspect.activity_threshold)),
      field("serve_queue_capacity", FIELD(spec.serve.queue_capacity)),
      field("serve_batch_max", FIELD(spec.serve.batch_max)),
      field("serve_batch_window", FIELD(spec.serve.batch_window)),
      field("serve_default_deadline", FIELD(spec.serve.default_deadline)),
      field("serve_retry_max", FIELD(spec.serve.retry_max)),
      field("serve_backoff_base", FIELD(spec.serve.backoff_base)),
      field("serve_backoff_multiplier", FIELD(spec.serve.backoff_multiplier)),
      field("serve_backoff_max", FIELD(spec.serve.backoff_max)),
      field("serve_backoff_jitter", FIELD(spec.serve.backoff_jitter)),
      field("serve_canary_period", FIELD(spec.serve.health.canary_period)),
      field("serve_canary_images", FIELD(spec.serve.health.canary_images)),
      field("serve_max_canary_mismatch",
            FIELD(spec.serve.health.max_canary_mismatch)),
      field("serve_logit_rmse_limit",
            FIELD(spec.serve.health.logit_rmse_limit)),
      field("serve_quarantine_after",
            FIELD(spec.serve.health.quarantine_after)),
      field("serve_readmit_after", FIELD(spec.serve.health.readmit_after)),
      seed("serve_seed", FIELD(spec.serve.seed)),
      field("events_enabled", CFG(events.enabled)),
  };
  return table;
}

#undef CFG
#undef FIELD

}  // namespace

std::string repro_to_json(const ReproRecord& record) {
  const std::vector<FieldCodec>& table = fields();
  std::ostringstream os;
  os << "{\n";
  for (std::size_t i = 0; i < table.size(); ++i) {
    os << "  " << json::quote(table[i].key) << ": " << table[i].write(record)
       << (i + 1 < table.size() ? ",\n" : "\n");
  }
  os << "}\n";
  return os.str();
}

ReproRecord repro_from_json(const std::string& json) {
  const std::vector<FieldCodec>& table = fields();
  ReproRecord record;
  Scanner sc(json);
  sc.expect('{');
  bool first = true;
  while (sc.peek() != '}') {
    if (!first) sc.expect(',');
    first = false;
    const std::string key = sc.string_value();
    sc.expect(':');

    if (key == "layers") {
      sc.expect('[');
      record.spec.layers.clear();
      while (sc.peek() != ']') {
        if (!record.spec.layers.empty()) sc.expect(',');
        record.spec.layers.push_back(
            static_cast<std::size_t>(to_u64(sc.token())));
      }
      sc.expect(']');
      continue;
    }

    const std::string v = sc.peek() == '"' ? sc.string_value() : sc.token();
    const auto it =
        std::find_if(table.begin(), table.end(),
                     [&key](const FieldCodec& f) { return key == f.key; });
    RESIPE_REQUIRE(it != table.end(),
                   "unknown key '" << key << "' in repro record");
    it->read(record, v);
  }
  sc.expect('}');
  return record;
}

std::string repro_snippet(const ReproRecord& record) {
  std::ostringstream os;
  os << "// Reproduces contract violation '" << record.contract << "'\n"
     << "// case: " << record.spec.summary() << "\n"
     << "// " << record.detail << "\n"
     << "#include \"resipe/verify/contracts.hpp\"\n"
     << "#include \"resipe/verify/serialize.hpp\"\n\n"
     << "const auto record = resipe::verify::repro_from_json(R\"json(\n"
     << repro_to_json(record)
     << ")json\");\n"
     << "const auto* contract =\n"
     << "    resipe::verify::find_contract(record.contract);\n"
     << "const auto result = contract->check(record.spec);\n"
     << "// result.violated() is expected to be true until the bug is "
        "fixed.\n";
  return os.str();
}

}  // namespace resipe::verify
