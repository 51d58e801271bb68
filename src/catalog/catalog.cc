#include "catalog/catalog.h"

#include <cassert>
#include <cstdio>

namespace mqo {

void Table::AddColumn(ColumnDef col) {
  assert(!HasColumn(col.name));
  columns_.push_back(std::move(col));
}

void Table::AddIndex(IndexDef index) {
  if (index.clustered) {
    assert(clustered_index() == nullptr);
  }
  indexes_.push_back(std::move(index));
}

Result<ColumnDef> Table::GetColumn(const std::string& name) const {
  for (const auto& c : columns_) {
    if (c.name == name) return c;
  }
  return Status::NotFound("column '" + name + "' in table '" + name_ + "'");
}

bool Table::HasColumn(const std::string& name) const {
  for (const auto& c : columns_) {
    if (c.name == name) return true;
  }
  return false;
}

int Table::RowWidthBytes() const {
  int w = 0;
  for (const auto& c : columns_) w += c.width_bytes;
  return w;
}

const IndexDef* Table::clustered_index() const {
  for (const auto& idx : indexes_) {
    if (idx.clustered) return &idx;
  }
  return nullptr;
}

Status Catalog::AddTable(Table table) {
  auto [it, inserted] = tables_.emplace(table.name(), std::move(table));
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("table already in catalog");
  }
  return Status::OK();
}

Result<const Table*> Catalog::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("table '" + name + "'");
  }
  return &it->second;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, t] : tables_) names.push_back(name);
  return names;
}

int DateToDays(const std::string& iso_date) {
  int y = 0, m = 0, d = 0;
  if (std::sscanf(iso_date.c_str(), "%d-%d-%d", &y, &m, &d) != 3) {
    return 0;
  }
  // Days-from-civil algorithm (Howard Hinnant), offset so 1992-01-01 == 0.
  auto days_from_civil = [](int yy, int mm, int dd) {
    yy -= mm <= 2;
    int era = (yy >= 0 ? yy : yy - 399) / 400;
    unsigned yoe = static_cast<unsigned>(yy - era * 400);
    unsigned doy = (153u * (mm + (mm > 2 ? -3 : 9)) + 2) / 5 + dd - 1;
    unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    return era * 146097 + static_cast<int>(doe) - 719468;
  };
  return days_from_civil(y, m, d) - days_from_civil(1992, 1, 1);
}

}  // namespace mqo
