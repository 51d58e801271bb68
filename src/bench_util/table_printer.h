// Fixed-width table printer for the benchmark harness: each bench prints the
// series behind one of the paper's figures as rows.

#ifndef MQO_BENCH_UTIL_TABLE_PRINTER_H_
#define MQO_BENCH_UTIL_TABLE_PRINTER_H_

#include <iosfwd>
#include <string>
#include <vector>

namespace mqo {

/// Formats a throughput cell for benchmark tables: `rows` processed in
/// `elapsed_seconds`, scaled to "950 rows/s", "3.2K rows/s", "1.8M rows/s".
std::string FormatRowsPerSec(double rows, double elapsed_seconds);

/// Collects rows and renders them as an aligned ASCII table.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  /// Renders the aligned table to `os`.
  void Print(std::ostream& os) const;
  /// Same, to std::cout.
  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace mqo

#endif  // MQO_BENCH_UTIL_TABLE_PRINTER_H_
