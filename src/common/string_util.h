// Small string-formatting helpers shared by plan printers and benchmarks.

#ifndef MQO_COMMON_STRING_UTIL_H_
#define MQO_COMMON_STRING_UTIL_H_

#include <string>
#include <vector>

namespace mqo {

/// Joins `parts` with `sep` ("a, b, c").
std::string Join(const std::vector<std::string>& parts, const std::string& sep);

/// Formats a double with `digits` digits after the decimal point.
std::string FormatDouble(double v, int digits = 2);

/// Formats a double in engineering style, e.g. "1.25e+06" for large values and
/// plain fixed notation for small ones. Used in benchmark tables.
std::string FormatCost(double v);

/// Left-pads `s` with spaces up to `width`.
std::string PadLeft(const std::string& s, int width);

/// Right-pads `s` with spaces up to `width`.
std::string PadRight(const std::string& s, int width);

/// True iff `s` starts with `prefix`.
bool StartsWith(const std::string& s, const std::string& prefix);

/// Lower-cases ASCII characters of `s`.
std::string ToLower(const std::string& s);

}  // namespace mqo

#endif  // MQO_COMMON_STRING_UTIL_H_
