#include "data/arff.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "common/csv.h"
#include "common/parse_number.h"

namespace hics {

namespace {

std::string Trim(const std::string& s) {
  std::size_t begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  std::size_t end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

std::string ToLower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

/// Strips optional single or double quotes around an ARFF token.
std::string Unquote(const std::string& s) {
  if (s.size() >= 2 && ((s.front() == '\'' && s.back() == '\'') ||
                        (s.front() == '"' && s.back() == '"'))) {
    return s.substr(1, s.size() - 2);
  }
  return s;
}

struct ArffAttribute {
  std::string name;
  bool nominal = false;
  std::vector<std::string> values;  // nominal domain

  /// Index of `value` in the nominal domain, or -1.
  int IndexOf(const std::string& value) const {
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (values[i] == value) return static_cast<int>(i);
    }
    return -1;
  }
};

Result<ArffAttribute> ParseAttributeDeclaration(const std::string& line,
                                                std::size_t line_number) {
  // Syntax: @attribute <name> <type>; name may be quoted.
  const std::string body = Trim(line.substr(std::string("@attribute").size()));
  if (body.empty()) {
    return Status::InvalidArgument("line " + std::to_string(line_number) +
                                   ": empty @attribute declaration");
  }
  ArffAttribute attr;
  std::size_t name_end;
  if (body.front() == '\'' || body.front() == '"') {
    name_end = body.find(body.front(), 1);
    if (name_end == std::string::npos) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": unterminated quoted attribute name");
    }
    attr.name = body.substr(1, name_end - 1);
    ++name_end;
  } else {
    name_end = body.find_first_of(" \t");
    if (name_end == std::string::npos) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": @attribute without a type");
    }
    attr.name = body.substr(0, name_end);
  }
  const std::string type = Trim(body.substr(name_end));
  if (type.empty()) {
    return Status::InvalidArgument("line " + std::to_string(line_number) +
                                   ": @attribute without a type");
  }
  if (type.front() == '{') {
    if (type.back() != '}') {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": unterminated nominal domain");
    }
    attr.nominal = true;
    std::istringstream domain(type.substr(1, type.size() - 2));
    std::string value;
    while (std::getline(domain, value, ',')) {
      attr.values.push_back(Unquote(Trim(value)));
    }
    if (attr.values.empty()) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": empty nominal domain");
    }
    return attr;
  }
  const std::string lower = ToLower(type);
  if (lower == "numeric" || lower == "real" || lower == "integer") {
    return attr;
  }
  return Status::NotImplemented("line " + std::to_string(line_number) +
                                ": unsupported attribute type '" + type +
                                "'");
}

}  // namespace

Result<Dataset> ParseArff(const std::string& text,
                          const ArffOptions& options) {
  std::istringstream stream(text);
  std::string line;
  std::vector<ArffAttribute> attributes;
  bool in_data = false;
  std::size_t line_number = 0;
  std::vector<std::vector<std::string>> raw_rows;
  std::vector<std::size_t> row_lines;  // source line of each raw row

  while (std::getline(stream, line)) {
    ++line_number;
    const std::string trimmed = Trim(line);
    if (trimmed.empty() || trimmed.front() == '%') continue;
    if (!in_data) {
      const std::string lower = ToLower(trimmed);
      if (lower.rfind("@relation", 0) == 0) continue;
      if (lower.rfind("@attribute", 0) == 0) {
        HICS_ASSIGN_OR_RETURN(ArffAttribute attr,
                              ParseAttributeDeclaration(trimmed,
                                                        line_number));
        attributes.push_back(std::move(attr));
        continue;
      }
      if (lower.rfind("@data", 0) == 0) {
        if (attributes.empty()) {
          return Status::InvalidArgument("@data before any @attribute");
        }
        in_data = true;
        continue;
      }
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": unrecognized header line");
    }
    // Data row.
    std::vector<std::string> cells;
    std::istringstream row(trimmed);
    std::string cell;
    while (std::getline(row, cell, ',')) cells.push_back(Trim(cell));
    if (cells.size() != attributes.size()) {
      return Status::InvalidArgument(
          "line " + std::to_string(line_number) + ": expected " +
          std::to_string(attributes.size()) + " values, got " +
          std::to_string(cells.size()));
    }
    raw_rows.push_back(std::move(cells));
    row_lines.push_back(line_number);
  }
  if (!in_data) return Status::InvalidArgument("missing @data section");

  // Locate the class attribute.
  int class_index = -1;
  if (!options.class_attribute.empty()) {
    const std::string wanted = ToLower(options.class_attribute);
    for (std::size_t i = 0; i < attributes.size(); ++i) {
      if (ToLower(attributes[i].name) == wanted) {
        class_index = static_cast<int>(i);
        break;
      }
    }
    if (class_index < 0) {
      return Status::NotFound("class attribute '" +
                              options.class_attribute + "' not declared");
    }
    if (!attributes[class_index].nominal) {
      return Status::InvalidArgument("class attribute must be nominal");
    }
  } else {
    for (std::size_t i = attributes.size(); i-- > 0;) {
      if (attributes[i].nominal) {
        class_index = static_cast<int>(i);
        break;
      }
    }
  }

  // Feature columns = everything except the class attribute.
  std::vector<std::size_t> feature_attrs;
  std::vector<std::string> names;
  for (std::size_t i = 0; i < attributes.size(); ++i) {
    if (static_cast<int>(i) == class_index) continue;
    feature_attrs.push_back(i);
    names.push_back(attributes[i].name);
  }
  if (feature_attrs.empty()) {
    return Status::InvalidArgument("no feature attributes");
  }

  // One pass over the rows parses each numeric cell once. strtod's grammar
  // takes "nan"/"inf" spellings, which would silently poison downstream
  // contrast/LOF math, so a row holding a non-finite numeric cell is
  // rejected (with the source line) or dropped before it is filled. That
  // screen outranks every fill error (a nominal value outside its domain,
  // a cell that is no number), so the first fill error of a kept row
  // waits until every row is screened.
  const std::size_t width = feature_attrs.size();
  std::vector<std::vector<double>> columns(width);
  for (std::vector<double>& column : columns) column.reserve(raw_rows.size());
  std::vector<std::size_t> kept;  // raw row of each dataset row
  std::vector<std::pair<std::size_t, std::size_t>> missing;  // (row, col)
  std::vector<double> column_sum(width, 0.0);
  std::vector<std::size_t> column_count(width, 0);
  std::vector<double> row(width);
  Status fill_error;
  for (std::size_t r = 0; r < raw_rows.size(); ++r) {
    Status row_error;
    bool finite = true;
    for (std::size_t c = 0; c < width && finite; ++c) {
      const ArffAttribute& attr = attributes[feature_attrs[c]];
      const std::string& cell = raw_rows[r][feature_attrs[c]];
      if (cell == "?") continue;
      if (attr.nominal) {
        const int idx = attr.IndexOf(Unquote(cell));
        if (idx < 0 && row_error.ok()) {
          row_error = Status::InvalidArgument("value '" + cell +
                                              "' not in nominal domain of '" +
                                              attr.name + "'");
        }
        row[c] = static_cast<double>(idx);
        continue;
      }
      double value = 0.0;
      if (!ParseNumber(cell, &value)) {
        if (row_error.ok()) {
          row_error = Status::InvalidArgument("cannot parse '" + cell +
                                              "' as numeric for attribute '" +
                                              attr.name + "'");
        }
        continue;
      }
      if (!std::isfinite(value) &&
          options.non_finite != NonFinitePolicy::kAllow) {
        if (options.non_finite == NonFinitePolicy::kReject) {
          return Status::InvalidArgument(
              "line " + std::to_string(row_lines[r]) + ": non-finite value '" +
              cell + "' for attribute '" + attr.name +
              "' (set ArffOptions::non_finite to kDropRow or kAllow to "
              "accept)");
        }
        finite = false;
      }
      row[c] = value;
    }
    if (!finite) continue;
    if (!row_error.ok()) {
      if (fill_error.ok()) fill_error = std::move(row_error);
      continue;
    }
    // Fill; "?" cells are collected for mean imputation.
    for (std::size_t c = 0; c < width; ++c) {
      if (raw_rows[r][feature_attrs[c]] == "?") {
        missing.emplace_back(kept.size(), c);
        columns[c].push_back(0.0);
        continue;
      }
      columns[c].push_back(row[c]);
      column_sum[c] += row[c];
      ++column_count[c];
    }
    kept.push_back(r);
  }
  HICS_RETURN_NOT_OK(fill_error);
  for (const auto& [r, c] : missing) {
    columns[c][r] = column_count[c] > 0
                        ? column_sum[c] / static_cast<double>(column_count[c])
                        : 0.0;
  }
  HICS_ASSIGN_OR_RETURN(Dataset ds, Dataset::FromColumns(std::move(columns)));
  HICS_RETURN_NOT_OK(ds.SetAttributeNames(std::move(names)));

  // Labels from the class attribute.
  if (class_index >= 0) {
    const ArffAttribute& cls = attributes[class_index];
    std::string outlier_value = options.outlier_value;
    if (outlier_value.empty()) {
      // Minority class = outliers (paper convention).
      std::map<std::string, std::size_t> frequency;
      for (std::size_t r : kept) ++frequency[Unquote(raw_rows[r][class_index])];
      std::size_t best = std::numeric_limits<std::size_t>::max();
      for (const auto& [value, count] : frequency) {
        if (value == "?") continue;
        if (count < best) {
          best = count;
          outlier_value = value;
        }
      }
    } else if (cls.IndexOf(outlier_value) < 0) {
      return Status::NotFound("outlier value '" + outlier_value +
                              "' not in the class domain");
    }
    std::vector<bool> labels(kept.size(), false);
    for (std::size_t i = 0; i < kept.size(); ++i) {
      labels[i] = Unquote(raw_rows[kept[i]][class_index]) == outlier_value;
    }
    HICS_RETURN_NOT_OK(ds.SetLabels(std::move(labels)));
  }
  return ds;
}

Result<Dataset> ReadArffFile(const std::string& path,
                             const ArffOptions& options) {
  HICS_ASSIGN_OR_RETURN(const std::string text, ReadTextFile(path));
  return ParseArff(text, options);
}

}  // namespace hics
