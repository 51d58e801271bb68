#include "common/element_set.h"

#include <sstream>

namespace mqo {

std::vector<int> ElementSet::ToVector() const {
  std::vector<int> out;
  out.reserve(Size());
  ForEach([&out](int e) { out.push_back(e); });
  return out;
}

std::string ElementSet::ToString() const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (int e : ToVector()) {
    if (!first) os << ", ";
    os << e;
    first = false;
  }
  os << "}";
  return os.str();
}

}  // namespace mqo
