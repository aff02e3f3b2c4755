// Small JSON-emission helpers shared by the trace/pcap/stats writers.
// Emission only -- the reader side lives in src/tools/trace_reader.h.

#ifndef XK_SRC_TRACE_JSON_UTIL_H_
#define XK_SRC_TRACE_JSON_UTIL_H_

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>

namespace xk {

// Appends `s` as a quoted JSON string. Control bytes below 0x20 are escaped
// (`\n`, `\r`, `\t` or `\u00xx`); every other byte, DEL and UTF-8 included,
// passes through. Runs of clean bytes go out in one append.
inline void JsonAppendEscaped(std::string& out, std::string_view s) {
  out += '"';
  size_t run = 0;  // start of the pending clean run
  for (size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') {
      continue;
    }
    out.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 15]};
        out.append(esc, sizeof esc);
      }
    }
  }
  out.append(s, run, s.size() - run);
  out += '"';
}

// Appends the decimal form of `value`.
template <typename Int>
inline void JsonAppendInt(std::string& out, Int value) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

// Appends `,"key":value`.
inline void JsonAppendField(std::string& out, std::string_view key, int64_t value) {
  out += ',';
  JsonAppendEscaped(out, key);
  out += ':';
  JsonAppendInt(out, value);
}

inline void JsonAppendField(std::string& out, std::string_view key, uint64_t value) {
  out += ',';
  JsonAppendEscaped(out, key);
  out += ':';
  JsonAppendInt(out, value);
}

inline void JsonAppendField(std::string& out, std::string_view key, std::string_view value) {
  out += ',';
  JsonAppendEscaped(out, key);
  out += ':';
  JsonAppendEscaped(out, value);
}

}  // namespace xk

#endif  // XK_SRC_TRACE_JSON_UTIL_H_
