#include "common/csv.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string_view>

namespace hics {

namespace {

std::string_view Trim(std::string_view s) {
  constexpr std::string_view kBlank = " \t\r\n";
  const std::size_t begin = s.find_first_not_of(kBlank);
  if (begin == std::string_view::npos) return {};
  const std::size_t end = s.find_last_not_of(kBlank);
  return s.substr(begin, end - begin + 1);
}

/// True when the whole trimmed cell is one strtod number. strtod needs a
/// terminated string, so the cell is copied: onto the stack when it fits,
/// else into a heap string.
bool ParseDouble(std::string_view cell, double* out) {
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

}  // namespace

Result<Dataset> ParseCsv(const std::string& text, const CsvOptions& options) {
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

Result<Dataset> ReadCsvFile(const std::string& path,
                            const CsvOptions& options) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::IOError("cannot open '" + path + "'");
  // One read into an exact-size string when the file can seek; a pipe is
  // read to its end instead.
  std::string text;
  if (file.seekg(0, std::ios::end)) {
    const std::streamoff size = file.tellg();
    file.seekg(0, std::ios::beg);
    text.resize(static_cast<std::size_t>(size));
    file.read(text.data(), size);
    text.resize(static_cast<std::size_t>(file.gcount()));
  } else {
    file.clear();
    text.assign(std::istreambuf_iterator<char>(file),
                std::istreambuf_iterator<char>());
  }
  return ParseCsv(text, options);
}

std::string WriteCsv(const Dataset& dataset, char delimiter) {
  std::ostringstream out;
  // max_digits10 so written values parse back bit-exact.
  out.precision(17);
  const auto& names = dataset.attribute_names();
  for (std::size_t j = 0; j < names.size(); ++j) {
    if (j > 0) out << delimiter;
    out << names[j];
  }
  if (dataset.has_labels()) {
    if (!names.empty()) out << delimiter;
    out << "label";
  }
  out << "\n";
  for (std::size_t i = 0; i < dataset.num_objects(); ++i) {
    for (std::size_t j = 0; j < dataset.num_attributes(); ++j) {
      if (j > 0) out << delimiter;
      out << dataset.Get(i, j);
    }
    if (dataset.has_labels()) {
      if (dataset.num_attributes() > 0) out << delimiter;
      out << (dataset.labels()[i] ? 1 : 0);
    }
    out << "\n";
  }
  return out.str();
}

Status WriteCsvFile(const Dataset& dataset, const std::string& path,
                    char delimiter) {
  std::ofstream file(path);
  if (!file) return Status::IOError("cannot open '" + path + "' for writing");
  file << WriteCsv(dataset, delimiter);
  if (!file) return Status::IOError("write to '" + path + "' failed");
  return Status::OK();
}

}  // namespace hics
