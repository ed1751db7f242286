#ifndef PERFBENCH_JSON_H_
#define PERFBENCH_JSON_H_

#include <cstdio>
#include <string>

namespace perfbench {

/// `s` as a JSON string literal; control characters become spaces.
inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += static_cast<unsigned char>(ch) < 0x20 ? ' ' : ch;
  }
  return out + "\"";
}

/// `v` as a JSON number with all its digits.
inline std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench

#endif  // PERFBENCH_JSON_H_
