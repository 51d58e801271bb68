#include "obs/explain.h"

#include <cstdio>
#include <sstream>

namespace mqo {
namespace {

std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

}  // namespace

std::string RenderExplainAnalyze(const std::vector<ExplainEntry>& entries) {
  std::ostringstream os;
  os << "== EXPLAIN ANALYZE (materialized classes) ==\n";
  if (entries.empty()) {
    os << "  (nothing materialized)\n";
    return os.str();
  }
  os << "  eq    rows est/act      reads exp/act   benefit pred/realized(ms)"
        "   notes\n";
  double total_pred = 0;
  double total_real = 0;
  for (const ExplainEntry& e : entries) {
    os << "  [" << e.est.eq << "] " << e.est.label << "\n";
    os << "        rows " << Fmt("%.0f", e.est.est_rows) << " / ";
    if (e.executed) {
      os << e.run.actual_rows;
      double est = e.est.est_rows;
      double act = static_cast<double>(e.run.actual_rows);
      if (act > 0 && est > 0) {
        double err = est > act ? est / act : act / est;
        os << "  (x" << Fmt("%.2f", err) << (est >= act ? " over" : " under")
           << ")";
      }
    } else {
      os << "-";
    }
    os << "\n        reads " << Fmt("%.1f", e.est.expected_reads) << " / "
       << (e.executed ? std::to_string(e.run.reads) : "-");
    os << "\n        cols "
       << (e.executed ? std::to_string(e.run.columns) : "-") << " of "
       << e.est.attributes << " attributes";
    os << "\n        benefit " << Fmt("%.3f", e.est.predicted_benefit_ms)
       << "ms pred / "
       << (e.executed ? Fmt("%.3f", e.realized_saved_ms) + "ms saved" : "-");
    if (e.executed) {
      os << "  (compute " << Fmt("%.3f", e.run.compute_ms) << "ms";
      if (e.run.ever_spilled) {
        os << ", spilled, " << e.run.reloads << " reloads";
      }
      os << ")";
    }
    os << "\n";
    total_pred += e.est.predicted_benefit_ms;
    if (e.executed) total_real += e.realized_saved_ms;
  }
  os << "  total predicted benefit " << Fmt("%.3f", total_pred)
     << "ms, realized " << Fmt("%.3f", total_real) << "ms\n";
  return os.str();
}

}  // namespace mqo
