#include "common/csv.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string_view>

#include "common/parse_number.h"

namespace hics {

namespace {

bool IsBlank(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

std::string_view Trim(std::string_view s) {
  const char* begin = s.data();
  const char* end = begin + s.size();
  while (begin != end && IsBlank(*begin)) ++begin;
  while (end != begin && IsBlank(end[-1])) --end;
  return {begin, static_cast<std::size_t>(end - begin)};
}

/// The first `c` in [from, to), or `to` when there is none.
const char* Find(const char* from, const char* to, char c) {
  const void* hit = std::memchr(from, c, static_cast<std::size_t>(to - from));
  return hit != nullptr ? static_cast<const char*>(hit) : to;
}

}  // namespace

Result<Dataset> ParseCsv(const std::string& text, const CsvOptions& options) {
  const char* const input_end = text.data() + text.size();
  // Every row lands straight in its column; the line count bounds the
  // rows, so no column reallocates.
  const std::size_t max_rows =
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')) +
      1;
  std::vector<std::string> header;
  std::vector<std::vector<double>> columns;
  std::vector<bool> labels;
  labels.reserve(max_rows);
  std::vector<std::string_view> cells;
  std::size_t num_rows = 0;
  bool saw_header = !options.has_header;
  std::size_t line_number = 0;
  const int label_col = options.label_column;

  for (const char* pos = text.data(); pos < input_end;) {
    // Lines end at '\n' (a '\r' before it trims away with the cell), so
    // the last line needs no newline and line numbers count blank lines.
    const char* const eol = Find(pos, input_end, '\n');
    const std::string_view line(pos, static_cast<std::size_t>(eol - pos));
    pos = eol < input_end ? eol + 1 : input_end;
    ++line_number;
    if (Trim(line).empty()) continue;
    // Cells are split on every delimiter, so "a," has an empty last cell.
    cells.clear();
    for (const char* begin = line.data();;) {
      const char* const end = Find(begin, eol, options.delimiter);
      cells.emplace_back(begin, static_cast<std::size_t>(end - begin));
      if (end == eol) break;
      begin = end + 1;
    }
    if (!saw_header) {
      header.reserve(cells.size());
      for (std::string_view cell : cells) header.emplace_back(Trim(cell));
      saw_header = true;
      continue;
    }
    if (label_col >= 0 && static_cast<std::size_t>(label_col) >= cells.size()) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": label column out of range");
    }
    // The first kept row fixes the width. Values go straight into their
    // columns; cells past the width are still parsed, so a bad cell is
    // reported before the ragged row, and a dropped row takes its values
    // back out.
    if (num_rows == 0) {
      columns.resize(cells.size() - (label_col >= 0 ? 1 : 0));
      for (std::vector<double>& column : columns) column.reserve(max_rows);
    }
    const std::size_t width = columns.size();
    std::size_t j = 0;
    bool label = false;
    bool drop_row = false;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const std::string_view cell = Trim(cells[i]);
      if (label_col >= 0 && i == static_cast<std::size_t>(label_col)) {
        double numeric = 0.0;
        if (ParseNumber(cell, &numeric)) {
          label = numeric != 0.0;
        } else {
          label = cell == options.outlier_label;
        }
        continue;
      }
      double value = 0.0;
      if (!ParseNumber(cell, &value)) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_number) + ", column " +
            std::to_string(i) + ": cannot parse '" + std::string(cell) +
            "' as a number");
      }
      if (!std::isfinite(value) &&
          options.non_finite != NonFinitePolicy::kAllow) {
        if (options.non_finite == NonFinitePolicy::kReject) {
          return Status::InvalidArgument(
              "line " + std::to_string(line_number) + ", column " +
              std::to_string(i) + ": non-finite value '" + std::string(cell) +
              "' (set CsvOptions::non_finite to kDropRow or kAllow to "
              "accept)");
        }
        drop_row = true;
        break;
      }
      if (j < width) columns[j].push_back(value);
      ++j;
    }
    if (drop_row) {
      for (std::size_t c = 0; c < std::min(j, width); ++c) {
        columns[c].pop_back();
      }
      continue;
    }
    if (j != width) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": ragged row");
    }
    labels.push_back(label);
    ++num_rows;
  }

  // A file whose rows hold only labels is N objects x 0 attributes, and
  // one with no kept row is 0 x 0 whatever width its dropped rows had.
  Dataset ds(num_rows, 0);
  if (num_rows > 0 && !columns.empty()) {
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

Result<std::string> ReadTextFile(const std::string& path) {
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
  return text;
}

Result<Dataset> ReadCsvFile(const std::string& path,
                            const CsvOptions& options) {
  HICS_ASSIGN_OR_RETURN(const std::string text, ReadTextFile(path));
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
