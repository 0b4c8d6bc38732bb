#ifndef HICS_COMMON_CSV_H_
#define HICS_COMMON_CSV_H_

#include <string>
#include <vector>

#include "common/dataset.h"
#include "common/status.h"

namespace hics {

/// Options controlling CSV parsing.
struct CsvOptions {
  char delimiter = ',';
  /// If true, the first non-empty line holds attribute names.
  bool has_header = true;
  /// Index of the label column, or -1 when the file is unlabeled. A label
  /// cell is an outlier iff it parses to a nonzero number or equals
  /// `outlier_label` (case-sensitive).
  int label_column = -1;
  std::string outlier_label = "outlier";
  /// Handling of NaN/inf feature cells.
  NonFinitePolicy non_finite = NonFinitePolicy::kReject;
};

/// Parses CSV text into a dataset. Returns InvalidArgument on ragged rows or
/// non-numeric feature cells. A cell is numeric when ParseNumber
/// (common/parse_number.h) accepts it trimmed: strtod's grammar and bits in
/// the C locale.
Result<Dataset> ParseCsv(const std::string& text,
                         const CsvOptions& options = {});

/// Reads the whole file at `path` into one string, the loaders' only
/// file-sized buffer. IOError when the file cannot be opened.
Result<std::string> ReadTextFile(const std::string& path);

/// Reads and parses a CSV file.
Result<Dataset> ReadCsvFile(const std::string& path,
                            const CsvOptions& options = {});

/// Serializes `dataset` to CSV text (header + rows; a final "label" column
/// is appended when the dataset is labeled).
std::string WriteCsv(const Dataset& dataset, char delimiter = ',');

/// Writes `dataset` to a file at `path`.
Status WriteCsvFile(const Dataset& dataset, const std::string& path,
                    char delimiter = ',');

}  // namespace hics

#endif  // HICS_COMMON_CSV_H_
