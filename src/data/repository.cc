#include "data/repository.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <string_view>

#include "common/csv.h"
#include "data/synthetic.h"
#include "data/uci_like.h"

namespace hics {

namespace {

constexpr std::size_t kSweepDims[] = {10, 20, 30, 40, 50, 75, 100};
constexpr std::size_t kSizeSweep[] = {500, 1000, 1500, 2000, 2500};
constexpr int kRepetitions = 2;

std::string DimName(std::size_t dims, int rep) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "synthetic_d%03zu_rep%d", dims, rep);
  return buffer;
}

std::string SizeName(std::size_t n) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "synthetic_n%05zu_d25", n);
  return buffer;
}

std::string StandInName(const std::string& dataset) {
  std::string name = "standin_";
  for (char c : dataset) {
    name += c == '-' ? '_' : static_cast<char>(std::tolower(c));
  }
  return name;
}

/// Scale the harness uses per stand-in (bounds the quadratic LOF cost).
double StandInScale(const std::string& dataset) {
  if (dataset == "Ann-Thyroid") return 0.5;
  if (dataset == "Pendigits") return 0.3;
  return 1.0;
}

Result<Dataset> GenerateDimSweep(std::size_t dims, int rep) {
  SyntheticParams params;
  params.num_objects = 1000;
  params.num_attributes = dims;
  params.seed = 100 * dims + rep;  // matches bench_fig4_auc_vs_dim
  HICS_ASSIGN_OR_RETURN(SyntheticDataset generated,
                        GenerateSynthetic(params));
  return std::move(generated.data);
}

Result<Dataset> GenerateSizeSweep(std::size_t n) {
  SyntheticParams params;
  params.num_objects = n;
  params.num_attributes = 25;
  params.seed = n;  // matches bench_fig6_runtime_vs_dbsize
  HICS_ASSIGN_OR_RETURN(SyntheticDataset generated,
                        GenerateSynthetic(params));
  return std::move(generated.data);
}

/// Index of the last cell of the first non-blank line (a cached file's
/// header), or -1 when the text has none.
int LastColumn(std::string_view text) {
  while (!text.empty()) {
    const std::size_t eol = std::min(text.find('\n'), text.size());
    const std::string_view line = text.substr(0, eol);
    text.remove_prefix(std::min(eol + 1, text.size()));
    if (line.find_first_not_of(" \t\r\n") == std::string_view::npos) continue;
    return static_cast<int>(std::count(line.begin(), line.end(), ','));
  }
  return -1;
}

}  // namespace

std::vector<RepositoryEntry> RepositoryEntries() {
  std::vector<RepositoryEntry> entries;
  for (std::size_t dims : kSweepDims) {
    for (int rep = 0; rep < kRepetitions; ++rep) {
      entries.push_back({DimName(dims, rep),
                         "Fig.4/5 dimensionality sweep (N=1000, D=" +
                             std::to_string(dims) + ", rep " +
                             std::to_string(rep) + ")",
                         1000, dims});
    }
  }
  for (std::size_t n : kSizeSweep) {
    entries.push_back({SizeName(n),
                       "Fig.6 size sweep (N=" + std::to_string(n) +
                           ", D=25)",
                       n, 25});
  }
  for (const UciLikeSpec& spec : UciLikeSpecs()) {
    const double scale = StandInScale(spec.name);
    const std::size_t n = std::max<std::size_t>(
        50, static_cast<std::size_t>(spec.num_objects * scale));
    entries.push_back({StandInName(spec.name),
                       "Fig.10/11 stand-in for UCI " + spec.name +
                           (scale < 1.0 ? " (scaled)" : ""),
                       n, spec.num_attributes});
  }
  return entries;
}

Result<Dataset> GenerateRepositoryDataset(const std::string& name) {
  for (std::size_t dims : kSweepDims) {
    for (int rep = 0; rep < kRepetitions; ++rep) {
      if (name == DimName(dims, rep)) return GenerateDimSweep(dims, rep);
    }
  }
  for (std::size_t n : kSizeSweep) {
    if (name == SizeName(n)) return GenerateSizeSweep(n);
  }
  for (const UciLikeSpec& spec : UciLikeSpecs()) {
    if (name == StandInName(spec.name)) {
      return MakeUciLike(spec, 1234, StandInScale(spec.name));
    }
  }
  return Status::NotFound("no repository dataset named '" + name + "'");
}

Result<std::size_t> MaterializeRepository(const std::string& dir) {
  std::size_t written = 0;
  for (const RepositoryEntry& entry : RepositoryEntries()) {
    HICS_ASSIGN_OR_RETURN(Dataset ds, GenerateRepositoryDataset(entry.name));
    HICS_RETURN_NOT_OK(WriteCsvFile(ds, dir + "/" + entry.name + ".csv"));
    ++written;
  }
  return written;
}

Result<Dataset> LoadOrGenerate(const std::string& dir,
                               const std::string& name, bool cache) {
  const std::string path = dir + "/" + name + ".csv";
  if (Result<std::string> text = ReadTextFile(path); text.ok()) {
    // Labeled CSV: the label is the final column.
    CsvOptions options;
    options.label_column = LastColumn(*text);
    return ParseCsv(*text, options);
  }
  HICS_ASSIGN_OR_RETURN(Dataset ds, GenerateRepositoryDataset(name));
  if (cache) {
    HICS_RETURN_NOT_OK(WriteCsvFile(ds, path));
  }
  return ds;
}

}  // namespace hics
