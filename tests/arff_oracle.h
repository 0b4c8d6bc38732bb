// Reference ARFF parser: the loader that src/data/arff.cc replaced, kept
// byte for byte apart from its name. It runs std::strtod twice on each
// numeric cell (the non-finite screen, then the fill). ParseArff must
// return the same Status text, or a dataset with the same column bytes,
// labels and names, on every input (arff_test's
// ArffParseTest.MatchesStrtodOracleOnMutatedInputs). Header-only so tests
// and benches share one oracle.

#ifndef HICS_TESTS_ARFF_ORACLE_H_
#define HICS_TESTS_ARFF_ORACLE_H_

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/dataset.h"
#include "common/status.h"
#include "data/arff.h"

namespace hics {

namespace arff_oracle {

inline std::string Trim(const std::string& s) {
  std::size_t begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  std::size_t end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

inline std::string ToLower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

/// Strips optional single or double quotes around an ARFF token.
inline std::string Unquote(const std::string& s) {
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

inline Result<ArffAttribute> ParseAttributeDeclaration(const std::string& line,
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

inline Result<Dataset> OracleParseArff(const std::string& text,
                                       const ArffOptions& options = {}) {
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

  // Non-finite screening pass: strtod accepts "nan"/"inf" spellings, which
  // would silently poison downstream contrast/LOF math. Reject (with the
  // source line) or drop such rows before the dataset is built.
  if (options.non_finite != NonFinitePolicy::kAllow) {
    std::vector<std::vector<std::string>> kept_rows;
    std::vector<std::size_t> kept_lines;
    kept_rows.reserve(raw_rows.size());
    kept_lines.reserve(raw_rows.size());
    for (std::size_t r = 0; r < raw_rows.size(); ++r) {
      bool finite = true;
      for (std::size_t c = 0; c < feature_attrs.size() && finite; ++c) {
        const ArffAttribute& attr = attributes[feature_attrs[c]];
        const std::string& cell = raw_rows[r][feature_attrs[c]];
        if (attr.nominal || cell == "?") continue;
        char* end = nullptr;
        const double value = std::strtod(cell.c_str(), &end);
        if (end == cell.c_str() + cell.size() && !std::isfinite(value)) {
          if (options.non_finite == NonFinitePolicy::kReject) {
            return Status::InvalidArgument(
                "line " + std::to_string(row_lines[r]) +
                ": non-finite value '" + cell + "' for attribute '" +
                attr.name + "' (set ArffOptions::non_finite to kDropRow or "
                "kAllow to accept)");
          }
          finite = false;
        }
      }
      if (finite) {
        kept_rows.push_back(std::move(raw_rows[r]));
        kept_lines.push_back(row_lines[r]);
      }
    }
    raw_rows = std::move(kept_rows);
    row_lines = std::move(kept_lines);
  }

  Dataset ds(raw_rows.size(), feature_attrs.size());
  HICS_RETURN_NOT_OK(ds.SetAttributeNames(std::move(names)));

  // Fill features; collect missing cells for mean imputation.
  std::vector<std::pair<std::size_t, std::size_t>> missing;  // (row, col)
  std::vector<double> column_sum(feature_attrs.size(), 0.0);
  std::vector<std::size_t> column_count(feature_attrs.size(), 0);
  for (std::size_t r = 0; r < raw_rows.size(); ++r) {
    for (std::size_t c = 0; c < feature_attrs.size(); ++c) {
      const ArffAttribute& attr = attributes[feature_attrs[c]];
      const std::string& cell = raw_rows[r][feature_attrs[c]];
      if (cell == "?") {
        missing.emplace_back(r, c);
        continue;
      }
      double value = 0.0;
      if (attr.nominal) {
        const int idx = attr.IndexOf(Unquote(cell));
        if (idx < 0) {
          return Status::InvalidArgument("value '" + cell +
                                         "' not in nominal domain of '" +
                                         attr.name + "'");
        }
        value = static_cast<double>(idx);
      } else {
        char* end = nullptr;
        value = std::strtod(cell.c_str(), &end);
        if (cell.empty() || end != cell.c_str() + cell.size()) {
          return Status::InvalidArgument("cannot parse '" + cell +
                                         "' as numeric for attribute '" +
                                         attr.name + "'");
        }
      }
      ds.Set(r, c, value);
      column_sum[c] += value;
      ++column_count[c];
    }
  }
  for (const auto& [r, c] : missing) {
    const double mean =
        column_count[c] > 0
            ? column_sum[c] / static_cast<double>(column_count[c])
            : 0.0;
    ds.Set(r, c, mean);
  }

  // Labels from the class attribute.
  if (class_index >= 0) {
    const ArffAttribute& cls = attributes[class_index];
    std::string outlier_value = options.outlier_value;
    if (outlier_value.empty()) {
      // Minority class = outliers (paper convention).
      std::map<std::string, std::size_t> frequency;
      for (const auto& row : raw_rows) ++frequency[Unquote(row[class_index])];
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
    std::vector<bool> labels(raw_rows.size(), false);
    for (std::size_t r = 0; r < raw_rows.size(); ++r) {
      labels[r] = Unquote(raw_rows[r][class_index]) == outlier_value;
    }
    HICS_RETURN_NOT_OK(ds.SetLabels(std::move(labels)));
  }
  return ds;
}

}  // namespace arff_oracle

using arff_oracle::OracleParseArff;

}  // namespace hics

#endif  // HICS_TESTS_ARFF_ORACLE_H_
