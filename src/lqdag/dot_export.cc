#include "lqdag/dot_export.h"

#include <sstream>

namespace mqo {

namespace {

/// Escapes a label for DOT double-quoted strings.
std::string Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::string MemoToDot(const Memo& memo, const std::set<EqId>& highlight) {
  std::set<EqId> marked;
  for (EqId e : highlight) marked.insert(memo.Find(e));

  std::ostringstream os;
  os << "digraph lqdag {\n";
  os << "  rankdir=BT;\n";
  os << "  node [fontsize=10];\n";
  for (EqId cls : memo.TopologicalClasses()) {
    os << "  e" << cls << " [shape=box, label=\"E" << cls << "\"";
    if (cls == memo.root()) os << ", peripheries=2";
    if (marked.count(cls) > 0) os << ", style=filled, fillcolor=lightblue";
    os << "];\n";
    for (OpId oid : memo.ClassOps(cls)) {
      const MemoOp& op = memo.op(oid);
      os << "  o" << oid << " [shape=ellipse, label=\""
         << Escape(op.ToString(&memo).substr(0, 60)) << "\"];\n";
      os << "  o" << oid << " -> e" << cls << ";\n";
      for (EqId child : op.children) {
        os << "  e" << memo.Find(child) << " -> o" << oid << ";\n";
      }
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace mqo
