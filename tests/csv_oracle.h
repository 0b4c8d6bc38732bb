// Reference CSV parser: the strtod loader that src/common/csv.cc replaced,
// kept byte for byte apart from its name. Every cell goes through
// std::strtod on a terminated copy and every line and cell is found with
// std::string_view::find. ParseCsv must return the same Status text, or
// a dataset with the same column bytes, labels and names, on every input
// (csv_test's CsvParseTest.MatchesStrtodOracleOnMutatedInputs; bench_micro
// times both in BM_ParseCsv). Header-only so tests and benches share one
// oracle.

#ifndef HICS_TESTS_CSV_ORACLE_H_
#define HICS_TESTS_CSV_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/csv.h"
#include "common/dataset.h"
#include "common/status.h"

namespace hics {

namespace csv_oracle {

inline std::string_view Trim(std::string_view s) {
  constexpr std::string_view kBlank = " \t\r\n";
  const std::size_t begin = s.find_first_not_of(kBlank);
  if (begin == std::string_view::npos) return {};
  const std::size_t end = s.find_last_not_of(kBlank);
  return s.substr(begin, end - begin + 1);
}

/// True when the whole trimmed cell is one strtod number. strtod needs a
/// terminated string, so the cell is copied: onto the stack when it fits,
/// else into a heap string.
inline bool ParseDouble(std::string_view cell, double* out) {
  const std::string_view trimmed = Trim(cell);
  if (trimmed.empty()) return false;
  char stack[64];
  std::string heap;
  const char* text = stack;
  if (trimmed.size() < sizeof(stack)) {
    std::memcpy(stack, trimmed.data(), trimmed.size());
    stack[trimmed.size()] = '\0';
  } else {
    heap.assign(trimmed);
    text = heap.c_str();
  }
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end == text + trimmed.size();
}

inline Result<Dataset> OracleParseCsv(const std::string& text,
                                      const CsvOptions& options = {}) {
  const std::string_view input(text);
  // Every row lands straight in its column; the line count bounds the
  // rows, so no column reallocates.
  const std::size_t max_rows =
      static_cast<std::size_t>(std::count(input.begin(), input.end(), '\n')) +
      1;
  std::vector<std::string> header;
  std::vector<std::vector<double>> columns;
  std::vector<bool> labels;
  labels.reserve(max_rows);
  std::vector<std::string_view> cells;
  std::vector<double> row;
  std::size_t num_rows = 0;
  bool saw_header = !options.has_header;
  std::size_t line_number = 0;

  for (std::size_t pos = 0; pos < input.size();) {
    // Lines end at '\n' (a '\r' before it trims away with the cell), so
    // the last line needs no newline and line numbers count blank lines.
    std::size_t eol = input.find('\n', pos);
    if (eol == std::string_view::npos) eol = input.size();
    const std::string_view line = input.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_number;
    if (Trim(line).empty()) continue;
    // Cells are split on every delimiter, so "a," has an empty last cell.
    cells.clear();
    for (std::size_t begin = 0;;) {
      const std::size_t end = line.find(options.delimiter, begin);
      if (end == std::string_view::npos) {
        cells.push_back(line.substr(begin));
        break;
      }
      cells.push_back(line.substr(begin, end - begin));
      begin = end + 1;
    }
    if (!saw_header) {
      header.reserve(cells.size());
      for (std::string_view cell : cells) header.emplace_back(Trim(cell));
      saw_header = true;
      continue;
    }
    const int label_col = options.label_column;
    if (label_col >= 0 && static_cast<std::size_t>(label_col) >= cells.size()) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": label column out of range");
    }
    row.clear();
    bool label = false;
    bool drop_row = false;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (label_col >= 0 && i == static_cast<std::size_t>(label_col)) {
        double numeric = 0.0;
        if (ParseDouble(cells[i], &numeric)) {
          label = numeric != 0.0;
        } else {
          label = Trim(cells[i]) == options.outlier_label;
        }
        continue;
      }
      double value = 0.0;
      if (!ParseDouble(cells[i], &value)) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_number) + ", column " +
            std::to_string(i) + ": cannot parse '" +
            std::string(Trim(cells[i])) + "' as a number");
      }
      if (!std::isfinite(value) &&
          options.non_finite != NonFinitePolicy::kAllow) {
        if (options.non_finite == NonFinitePolicy::kReject) {
          return Status::InvalidArgument(
              "line " + std::to_string(line_number) + ", column " +
              std::to_string(i) + ": non-finite value '" +
              std::string(Trim(cells[i])) +
              "' (set CsvOptions::non_finite to kDropRow or kAllow to "
              "accept)");
        }
        drop_row = true;
        break;
      }
      row.push_back(value);
    }
    if (drop_row) continue;
    if (num_rows == 0) {
      columns.resize(row.size());
      for (std::vector<double>& column : columns) column.reserve(max_rows);
    } else if (row.size() != columns.size()) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": ragged row");
    }
    for (std::size_t j = 0; j < row.size(); ++j) columns[j].push_back(row[j]);
    labels.push_back(label);
    ++num_rows;
  }

  // A file whose rows hold only labels is N objects x 0 attributes.
  Dataset ds(num_rows, 0);
  if (!columns.empty()) {
    HICS_ASSIGN_OR_RETURN(ds, Dataset::FromColumns(std::move(columns)));
  }
  if (options.label_column >= 0) {
    HICS_RETURN_NOT_OK(ds.SetLabels(std::move(labels)));
  }
  if (!header.empty()) {
    std::vector<std::string> names;
    for (std::size_t i = 0; i < header.size(); ++i) {
      if (options.label_column >= 0 &&
          i == static_cast<std::size_t>(options.label_column)) {
        continue;
      }
      names.push_back(std::move(header[i]));
    }
    if (names.size() == ds.num_attributes()) {
      HICS_RETURN_NOT_OK(ds.SetAttributeNames(std::move(names)));
    }
  }
  return ds;
}

}  // namespace csv_oracle

using csv_oracle::OracleParseCsv;

}  // namespace hics

#endif  // HICS_TESTS_CSV_ORACLE_H_
