#include "common/string_util.h"

#include <cmath>
#include <cstdio>

namespace mqo {

std::string Join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string FormatDouble(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

std::string FormatCost(double v) {
  char buf[64];
  double av = std::fabs(v);
  if (av != 0.0 && (av >= 1e7 || av < 1e-3)) {
    std::snprintf(buf, sizeof(buf), "%.3e", v);
  } else if (av >= 100) {
    std::snprintf(buf, sizeof(buf), "%.1f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f", v);
  }
  return buf;
}

std::string PadLeft(const std::string& s, int width) {
  if (static_cast<int>(s.size()) >= width) return s;
  return std::string(width - s.size(), ' ') + s;
}

std::string PadRight(const std::string& s, int width) {
  if (static_cast<int>(s.size()) >= width) return s;
  return s + std::string(width - s.size(), ' ');
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

std::string ToLower(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

}  // namespace mqo
