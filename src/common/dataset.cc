#include "common/dataset.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace hics {

Dataset::Dataset(std::size_t num_objects, std::size_t num_attributes)
    : num_objects_(num_objects), columns_(num_attributes) {
  // Sized column by column: no prototype column is built, so a dataset
  // without attributes allocates nothing whatever its object count.
  for (std::vector<double>& column : columns_) column.assign(num_objects, 0.0);
  ResetDefaultNames();
}

Result<Dataset> Dataset::FromColumns(
    std::vector<std::vector<double>> columns) {
  Dataset ds;
  if (!columns.empty()) {
    const std::size_t n = columns.front().size();
    for (const auto& col : columns) {
      if (col.size() != n) {
        return Status::InvalidArgument("columns have unequal lengths");
      }
    }
    ds.num_objects_ = n;
  }
  ds.columns_ = std::move(columns);
  ds.ResetDefaultNames();
  return ds;
}

Result<Dataset> Dataset::FromRows(
    const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Dataset();
  const std::size_t d = rows.front().size();
  for (const auto& row : rows) {
    if (row.size() != d) {
      return Status::InvalidArgument("rows have unequal lengths");
    }
  }
  Dataset ds(rows.size(), d);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t j = 0; j < d; ++j) ds.columns_[j][i] = rows[i][j];
  }
  return ds;
}

Subspace Dataset::FullSpace() const {
  std::vector<std::size_t> dims(num_attributes());
  for (std::size_t i = 0; i < dims.size(); ++i) dims[i] = i;
  return Subspace(std::move(dims));
}

void Dataset::ProjectObject(std::size_t object, const Subspace& subspace,
                            std::vector<double>* out) const {
  HICS_CHECK(out != nullptr);
  out->clear();
  out->reserve(subspace.size());
  for (std::size_t dim : subspace) out->push_back(Get(object, dim));
}

Dataset Dataset::ProjectSubspace(const Subspace& subspace) const {
  Dataset result;
  result.num_objects_ = num_objects_;
  result.columns_.reserve(subspace.size());
  result.names_.reserve(subspace.size());
  for (std::size_t dim : subspace) {
    HICS_CHECK_LT(dim, num_attributes());
    result.columns_.push_back(columns_[dim]);
    result.names_.push_back(names_[dim]);
  }
  result.labels_ = labels_;
  return result;
}

Status Dataset::SetAttributeNames(std::vector<std::string> names) {
  if (names.size() != num_attributes()) {
    return Status::InvalidArgument("expected " +
                                   std::to_string(num_attributes()) +
                                   " names, got " +
                                   std::to_string(names.size()));
  }
  names_ = std::move(names);
  return Status::OK();
}

Status Dataset::SetLabels(std::vector<bool> labels) {
  if (labels.size() != num_objects_) {
    return Status::InvalidArgument(
        "expected " + std::to_string(num_objects_) + " labels, got " +
        std::to_string(labels.size()));
  }
  labels_ = std::move(labels);
  return Status::OK();
}

std::size_t Dataset::CountOutliers() const {
  return static_cast<std::size_t>(
      std::count(labels_.begin(), labels_.end(), true));
}

void Dataset::AppendRow(const std::vector<double>& row, bool label) {
  HICS_CHECK_EQ(row.size(), num_attributes());
  for (std::size_t j = 0; j < row.size(); ++j) columns_[j].push_back(row[j]);
  if (!labels_.empty() || label) {
    labels_.resize(num_objects_, false);
    labels_.push_back(label);
  }
  ++num_objects_;
}

void Dataset::SlideWindow(std::size_t evict,
                          const std::vector<std::vector<double>>& admitted) {
  HICS_CHECK_LE(evict, num_objects_);
  const std::size_t d = num_attributes();
  for (auto& column : columns_) {
    column.erase(column.begin(),
                 column.begin() + static_cast<std::ptrdiff_t>(evict));
  }
  if (!labels_.empty()) {
    labels_.erase(labels_.begin(),
                  labels_.begin() + static_cast<std::ptrdiff_t>(evict));
  }
  num_objects_ -= evict;
  for (const auto& row : admitted) {
    HICS_CHECK_EQ(row.size(), d);
    for (std::size_t j = 0; j < d; ++j) columns_[j].push_back(row[j]);
    if (!labels_.empty()) labels_.push_back(false);
    ++num_objects_;
  }
}

Status Dataset::Validate(bool require_non_constant) const {
  if (num_objects_ < 2) {
    return Status::InvalidArgument(
        "dataset has " + std::to_string(num_objects_) +
        " rows; at least 2 required");
  }
  for (std::size_t j = 0; j < columns_.size(); ++j) {
    const std::vector<double>& col = columns_[j];
    bool constant = true;
    for (std::size_t i = 0; i < col.size(); ++i) {
      if (!std::isfinite(col[i])) {
        return Status::InvalidArgument(
            "non-finite value at row " + std::to_string(i) + ", column " +
            std::to_string(j) + " ('" + names_[j] + "')");
      }
      if (col[i] != col.front()) constant = false;
    }
    if (require_non_constant && constant) {
      return Status::InvalidArgument(
          "column " + std::to_string(j) + " ('" + names_[j] +
          "') is constant (" + std::to_string(col.front()) +
          " in every row)");
    }
  }
  return Status::OK();
}

Dataset& Dataset::NormalizeMinMax() {
  for (auto& col : columns_) {
    if (col.empty()) continue;
    auto [mn_it, mx_it] = std::minmax_element(col.begin(), col.end());
    const double mn = *mn_it, mx = *mx_it;
    const double range = mx - mn;
    for (double& v : col) v = range > 0.0 ? (v - mn) / range : 0.0;
  }
  return *this;
}

Dataset& Dataset::Standardize() {
  for (auto& col : columns_) {
    if (col.empty()) continue;
    double mean = 0.0;
    for (double v : col) mean += v;
    mean /= static_cast<double>(col.size());
    double var = 0.0;
    for (double v : col) var += (v - mean) * (v - mean);
    var /= static_cast<double>(col.size());
    const double sd = std::sqrt(var);
    for (double& v : col) v = sd > 0.0 ? (v - mean) / sd : 0.0;
  }
  return *this;
}

void Dataset::ResetDefaultNames() {
  names_.resize(columns_.size());
  for (std::size_t i = 0; i < names_.size(); ++i) {
    // snprintf rather than string concatenation: GCC 12 inlines the
    // string insert/append and raises a spurious -Wrestrict under -mavx2
    // (PR105329), and warnings are errors in CI.
    char name[2 + sizeof(std::size_t) * 3];
    std::snprintf(name, sizeof(name), "a%zu", i);
    names_[i] = name;
  }
}

}  // namespace hics
