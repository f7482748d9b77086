#include "resipe/common/json.hpp"

#include <cstdio>

namespace resipe::json {

std::string quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(ch));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
  return out;
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void Writer::separate() {
  if (after_key_) {
    after_key_ = false;
  } else if (!first_.empty()) {
    if (!first_.back()) os_ << ',';
    first_.back() = false;
  }
}

Writer& Writer::open(char bracket) {
  separate();
  os_ << bracket;
  first_.push_back(true);
  return *this;
}

Writer& Writer::close(char bracket) {
  first_.pop_back();
  os_ << bracket;
  return *this;
}

Writer& Writer::key(std::string_view k) {
  separate();
  os_ << quote(k) << ':';
  after_key_ = true;
  return *this;
}

Writer& Writer::raw(std::string_view fragment) {
  separate();
  os_ << fragment;
  return *this;
}

}  // namespace resipe::json
