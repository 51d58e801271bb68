#include "bench_util/table_printer.h"

#include <algorithm>
#include <iostream>

#include "common/string_util.h"

namespace mqo {

std::string FormatRowsPerSec(double rows, double elapsed_seconds) {
  if (elapsed_seconds <= 0.0) return "inf rows/s";
  const double rate = rows / elapsed_seconds;
  if (rate >= 1e9) return FormatDouble(rate / 1e9, 2) + "G rows/s";
  if (rate >= 1e6) return FormatDouble(rate / 1e6, 2) + "M rows/s";
  if (rate >= 1e3) return FormatDouble(rate / 1e3, 2) + "K rows/s";
  return FormatDouble(rate, 0) + " rows/s";
}

void TablePrinter::Print() const { Print(std::cout); }

void TablePrinter::Print(std::ostream& os) const {
  std::vector<size_t> widths(headers_.size());
  for (size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < row.size() ? row[i] : "";
      os << PadRight(cell, static_cast<int>(widths[i]));
      if (i + 1 < widths.size()) os << "  ";
    }
    os << "\n";
  };
  print_row(headers_);
  std::string rule;
  for (size_t i = 0; i < widths.size(); ++i) {
    rule += std::string(widths[i], '-');
    if (i + 1 < widths.size()) rule += "  ";
  }
  os << rule << "\n";
  for (const auto& row : rows_) print_row(row);
}

}  // namespace mqo
