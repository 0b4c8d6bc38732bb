#include "common/csv.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/parse_number.h"
#include "common/random.h"
#include "csv_oracle.h"
#include "loader_fuzz.h"

namespace hics {
namespace {

TEST(CsvTest, ParsesHeaderAndRows) {
  const std::string text = "x,y\n1.5,2\n3,4.25\n";
  auto ds = ParseCsv(text);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->num_objects(), 2u);
  EXPECT_EQ(ds->num_attributes(), 2u);
  EXPECT_EQ(ds->attribute_names()[0], "x");
  EXPECT_DOUBLE_EQ(ds->Get(1, 1), 4.25);
}

TEST(CsvTest, ParsesWithoutHeader) {
  CsvOptions options;
  options.has_header = false;
  auto ds = ParseCsv("1,2\n3,4\n", options);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->num_objects(), 2u);
  EXPECT_EQ(ds->attribute_names()[0], "a0");
}

TEST(CsvTest, SkipsBlankLines) {
  auto ds = ParseCsv("x,y\n\n1,2\n\n3,4\n\n");
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->num_objects(), 2u);
}

TEST(CsvTest, NumericLabelColumn) {
  CsvOptions options;
  options.label_column = 2;
  auto ds = ParseCsv("x,y,label\n1,2,0\n3,4,1\n", options);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->num_attributes(), 2u);
  ASSERT_TRUE(ds->has_labels());
  EXPECT_FALSE(ds->labels()[0]);
  EXPECT_TRUE(ds->labels()[1]);
}

TEST(CsvTest, TextualLabelColumn) {
  CsvOptions options;
  options.label_column = 0;
  options.outlier_label = "anomaly";
  auto ds = ParseCsv("class,x\nanomaly,1\nnormal,2\n", options);
  ASSERT_TRUE(ds.ok());
  EXPECT_TRUE(ds->labels()[0]);
  EXPECT_FALSE(ds->labels()[1]);
  EXPECT_EQ(ds->attribute_names()[0], "x");
}

TEST(CsvTest, RejectsNonNumericCell) {
  auto ds = ParseCsv("x\nfoo\n");
  ASSERT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvTest, RejectsRaggedRows) {
  auto ds = ParseCsv("x,y\n1,2\n3\n");
  ASSERT_FALSE(ds.ok());
}

TEST(CsvTest, RejectsLabelColumnOutOfRange) {
  CsvOptions options;
  options.label_column = 9;
  auto ds = ParseCsv("x,y\n1,2\n", options);
  EXPECT_FALSE(ds.ok());
}

TEST(CsvTest, CustomDelimiter) {
  CsvOptions options;
  options.delimiter = ';';
  auto ds = ParseCsv("x;y\n1;2\n", options);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->Get(0, 1), 2.0);
}

TEST(CsvTest, WhitespaceTrimmed) {
  auto ds = ParseCsv(" x , y \n 1 , 2 \r\n");
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->attribute_names()[0], "x");
  EXPECT_EQ(ds->Get(0, 1), 2.0);
}

TEST(CsvTest, WriteReadRoundTrip) {
  auto ds = *Dataset::FromRows({{1.25, -3.0}, {0.5, 9.0}});
  ASSERT_TRUE(ds.SetAttributeNames({"u", "v"}).ok());
  ASSERT_TRUE(ds.SetLabels({true, false}).ok());
  const std::string text = WriteCsv(ds);

  CsvOptions options;
  options.label_column = 2;
  auto parsed = ParseCsv(text, options);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_objects(), 2u);
  EXPECT_EQ(parsed->attribute_names()[1], "v");
  EXPECT_DOUBLE_EQ(parsed->Get(0, 0), 1.25);
  EXPECT_TRUE(parsed->labels()[0]);
  EXPECT_FALSE(parsed->labels()[1]);
}

TEST(CsvTest, FileRoundTrip) {
  auto ds = *Dataset::FromRows({{1.0, 2.0}});
  const std::string path = testing::TempDir() + "/hics_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(ds, path).ok());
  auto loaded = ReadCsvFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_objects(), 1u);
  EXPECT_EQ(loaded->Get(0, 1), 2.0);
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileIsIOError) {
  auto loaded = ReadCsvFile("/nonexistent/definitely/missing.csv");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST(CsvTest, EmptyTextYieldsEmptyDataset) {
  auto ds = ParseCsv("", CsvOptions{.has_header = false});
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->num_objects(), 0u);
}

TEST(CsvTest, RejectsNanCellByDefault) {
  // strtod happily parses "nan"/"inf"; the loader must not let them
  // through silently.
  const auto ds =
      ParseCsv("a,b\n1,2\n3,nan\n", CsvOptions{});
  ASSERT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(ds.status().message().find("line 3"), std::string::npos)
      << ds.status().ToString();
  EXPECT_NE(ds.status().message().find("non-finite"), std::string::npos);
}

TEST(CsvTest, RejectsInfinityCellByDefault) {
  const auto ds =
      ParseCsv("1,2\n-inf,4\n", CsvOptions{.has_header = false});
  ASSERT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(ds.status().message().find("line 2"), std::string::npos);
}

TEST(CsvTest, DropRowPolicySkipsPoisonedRows) {
  CsvOptions options;
  options.has_header = false;
  options.non_finite = NonFinitePolicy::kDropRow;
  const auto ds = ParseCsv("1,2\n3,nan\ninf,6\n7,8\n", options);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  ASSERT_EQ(ds->num_objects(), 2u);
  EXPECT_EQ(ds->Get(0, 0), 1.0);
  EXPECT_EQ(ds->Get(1, 1), 8.0);
  EXPECT_TRUE(ds->Validate(/*require_non_constant=*/false).ok());
}

TEST(CsvTest, AllowPolicyKeepsNonFiniteValues) {
  CsvOptions options;
  options.has_header = false;
  options.non_finite = NonFinitePolicy::kAllow;
  const auto ds = ParseCsv("1,nan\n3,4\n", options);
  ASSERT_TRUE(ds.ok());
  EXPECT_TRUE(std::isnan(ds->Get(0, 1)));
  // ...and Validate() is the backstop that still catches them.
  EXPECT_FALSE(ds->Validate().ok());
}

TEST(CsvTest, NanLabelCellDoesNotTriggerRejection) {
  // Only *feature* cells are screened; the label column is not numeric
  // data.
  CsvOptions options;
  options.has_header = false;
  options.label_column = 2;
  options.outlier_label = "nan";
  const auto ds = ParseCsv("1,2,nan\n3,4,ok\n", options);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ(ds->num_objects(), 2u);
}

// ---------------------------------------------------------------------------
// Line and cell boundaries

TEST(CsvTest, CrlfLineEndingsParseLikeLf) {
  auto crlf = ParseCsv("x,y\r\n1.5,2\r\n\r\n3,4.25\r\n");
  auto lf = ParseCsv("x,y\n1.5,2\n\n3,4.25\n");
  ASSERT_TRUE(crlf.ok()) << crlf.status().ToString();
  ASSERT_TRUE(lf.ok());
  ASSERT_EQ(crlf->num_objects(), 2u);
  EXPECT_EQ(crlf->attribute_names(), lf->attribute_names());
  EXPECT_EQ(crlf->attribute_names()[1], "y");
  for (std::size_t j = 0; j < 2; ++j) {
    EXPECT_EQ(crlf->Column(j), lf->Column(j));
  }
}

TEST(CsvTest, TrailingDelimiterIsAnEmptyLastCell) {
  // "1,2," has three cells, the last empty: a parse error naming it.
  auto ds = ParseCsv("1,2,\n", CsvOptions{.has_header = false});
  ASSERT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().message(),
            "line 1, column 2: cannot parse '' as a number");
  // As a label column the empty cell is simply not an outlier.
  CsvOptions labeled{.has_header = false, .label_column = 2};
  auto with_label = ParseCsv("1,2,\n3,4,1\n", labeled);
  ASSERT_TRUE(with_label.ok()) << with_label.status().ToString();
  EXPECT_EQ(with_label->num_attributes(), 2u);
  EXPECT_EQ(with_label->labels(), (std::vector<bool>{false, true}));
}

TEST(CsvTest, LabelOnlyRowsYieldObjectsWithoutAttributes) {
  CsvOptions options;
  options.label_column = 0;
  auto ds = ParseCsv("label\n1\n0\noutlier\n", options);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ(ds->num_objects(), 3u);
  EXPECT_EQ(ds->num_attributes(), 0u);
  EXPECT_EQ(ds->labels(), (std::vector<bool>{true, false, true}));
}

TEST(CsvTest, CellLongerThanAnyStackBuffer) {
  // 4 KiB of leading zeros, then the value: the cell is parsed whole.
  const std::string zeros(4096, '0');
  auto ds = ParseCsv("x,y\n" + zeros + "1.25,2\n3," + zeros + "\n");
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ(ds->Get(0, 0), 1.25);
  EXPECT_EQ(ds->Get(1, 1), 0.0);
  // A long cell that is not one number still fails, quoted in full.
  const std::string bad = zeros + "x";
  auto rejected = ParseCsv("x\n" + bad + "\n");
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().message(),
            "line 2, column 0: cannot parse '" + bad + "' as a number");
}

TEST(CsvTest, FinalLineNeedsNoNewline) {
  auto ds = ParseCsv("x,y\n1,2\n3,4");
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  ASSERT_EQ(ds->num_objects(), 2u);
  EXPECT_EQ(ds->Get(1, 0), 3.0);
  EXPECT_EQ(ds->Get(1, 1), 4.0);
}

TEST(CsvTest, ErrorLineNumbersCountBlankLines) {
  // Line 1 header, 2 blank, 3 data, 4 blank (spaces), 5 the bad row.
  const std::string text = "x,y\n\n1,2\n   \n3,oops\n";
  auto bad_cell = ParseCsv(text);
  ASSERT_FALSE(bad_cell.ok());
  EXPECT_EQ(bad_cell.status().message(),
            "line 5, column 1: cannot parse 'oops' as a number");
  auto ragged = ParseCsv("x,y\n\n1,2\n\n\n3\n");
  ASSERT_FALSE(ragged.ok());
  EXPECT_EQ(ragged.status().message(), "line 6: ragged row");
}

TEST(CsvTest, FileLoadMatchesParsedText) {
  const std::string text = "x,y,label\r\n0.1,2e3,0\n\n-4,5.5,1";
  const std::string path = testing::TempDir() + "/hics_csv_one_pass.csv";
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  const CsvOptions options{.label_column = 2};
  auto loaded = ReadCsvFile(path, options);
  auto parsed = ParseCsv(text, options);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(loaded->num_objects(), 2u);
  EXPECT_EQ(loaded->attribute_names(), parsed->attribute_names());
  EXPECT_EQ(loaded->labels(), parsed->labels());
  for (std::size_t j = 0; j < 2; ++j) {
    EXPECT_EQ(loaded->Column(j), parsed->Column(j));
  }
}

// ---------------------------------------------------------------------------
// ParseNumber: strtod's grammar and bits

std::uint64_t Bits(double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

std::uint64_t ParsedBits(std::string_view cell) {
  double value = 0.0;
  EXPECT_TRUE(ParseNumber(cell, &value)) << "'" << cell << "'";
  return Bits(value);
}

TEST(ParseNumberTest, DecimalCellsTakeFromCharsWithStrtodBits) {
  EXPECT_EQ(ParsedBits("1.5"), Bits(1.5));
  EXPECT_EQ(ParsedBits(".5"), Bits(0.5));
  EXPECT_EQ(ParsedBits("5."), Bits(5.0));
  EXPECT_EQ(ParsedBits("-.5"), Bits(-0.5));
  EXPECT_EQ(ParsedBits("-0"), Bits(-0.0));
  EXPECT_EQ(ParsedBits("1E5"), Bits(1e5));
  EXPECT_EQ(ParsedBits("0.1"), Bits(0.1));
  EXPECT_EQ(ParsedBits("4.9e-324"), 1u);  // the smallest subnormal
  EXPECT_EQ(ParsedBits("1.7976931348623157e308"),
            Bits(std::numeric_limits<double>::max()));
}

TEST(ParseNumberTest, OtherSpellingsTakeStrtod) {
  EXPECT_EQ(ParsedBits("+1"), Bits(1.0));
  EXPECT_EQ(ParsedBits("0x1p3"), Bits(8.0));
  EXPECT_EQ(ParsedBits("-0X1P-2"), Bits(-0.25));
  EXPECT_EQ(ParsedBits("\v7"), Bits(7.0));  // strtod skips any isspace
  EXPECT_EQ(ParsedBits("inf"), Bits(std::numeric_limits<double>::infinity()));
  EXPECT_EQ(ParsedBits("-Infinity"),
            Bits(-std::numeric_limits<double>::infinity()));
  // Out of range: from_chars reports an error, strtod rounds.
  EXPECT_EQ(ParsedBits("1e400"),
            Bits(std::numeric_limits<double>::infinity()));
  EXPECT_EQ(ParsedBits("-1e400"),
            Bits(-std::numeric_limits<double>::infinity()));
  EXPECT_EQ(ParsedBits("1e-400"), Bits(0.0));
  EXPECT_EQ(ParsedBits("-1e-400"), Bits(-0.0));
  EXPECT_EQ(ParsedBits("2.4e-324"), Bits(0.0));
  // Longer than the stack copy: strtod reads a heap copy.
  EXPECT_EQ(ParsedBits("+" + std::string(100, '0') + "2"), Bits(2.0));
  EXPECT_EQ(ParsedBits(std::string(100, '0') + "1.25"), Bits(1.25));
}

TEST(ParseNumberTest, NanKeepsStrtodPayloadAndSign) {
  EXPECT_EQ(ParsedBits("nan(123)"), 0x7ff800000000007bu);
  EXPECT_EQ(ParsedBits("nan(0x7b)"), 0x7ff800000000007bu);
  EXPECT_EQ(ParsedBits("-nan"), 0xfff8000000000000u);
}

TEST(ParseNumberTest, RejectsWhatStrtodRejects) {
  for (std::string_view cell :
       {std::string_view(""), std::string_view("-"), std::string_view("."),
        std::string_view("-."), std::string_view("1e"),
        std::string_view("1e+"), std::string_view("--1"),
        std::string_view("1 2"), std::string_view("1 "),
        std::string_view("0x"), std::string_view("abc"),
        std::string_view("1,5"), std::string_view("nan("),
        std::string_view("1\0", 2)}) {
    double value = 0.0;
    EXPECT_FALSE(ParseNumber(cell, &value))
        << "'" << loader_fuzz::Escaped(cell) << "'";
  }
  double value = 0.0;
  EXPECT_FALSE(ParseNumber(std::string(100, '0') + "1x", &value));
}

TEST(ParseNumberTest, CsvKeepsNanPayloadUnderAllow) {
  const CsvOptions options{.has_header = false,
                           .non_finite = NonFinitePolicy::kAllow};
  auto ds = ParseCsv("nan(123),-nan\n", options);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ(Bits(ds->Get(0, 0)), 0x7ff800000000007bu);
  EXPECT_EQ(Bits(ds->Get(0, 1)), 0xfff8000000000000u);
}

// ---------------------------------------------------------------------------
// Equivalence with the strtod oracle (tests/csv_oracle.h)

/// One CSV input and its options: 0-5 rows of 1-4 cells, ragged rows,
/// blank lines, LF or CRLF endings, one of four delimiters, every
/// non-finite policy, label columns -1..cols, then byte mutations.
std::string MakeCsvInput(Rng& rng, CsvOptions* options) {
  static constexpr char kDelimiters[] = {',', ';', '\t', ' '};
  static constexpr NonFinitePolicy kPolicies[] = {
      NonFinitePolicy::kReject, NonFinitePolicy::kDropRow,
      NonFinitePolicy::kAllow};
  const std::size_t cols = 1 + rng.UniformIndex(4);
  *options = CsvOptions{};
  options->delimiter = kDelimiters[rng.UniformIndex(4)];
  options->has_header = rng.UniformIndex(2) == 0;
  options->label_column = rng.UniformInt(-1, static_cast<int>(cols));
  options->non_finite = kPolicies[rng.UniformIndex(3)];
  const std::string eol = rng.UniformIndex(3) == 0 ? "\r\n" : "\n";
  std::string text;
  const auto blank_lines = [&] {
    while (rng.UniformIndex(6) == 0) {
      text += rng.UniformIndex(2) == 0 ? "" : "  ";
      text += eol;
    }
  };
  blank_lines();
  if (options->has_header) {
    for (std::size_t j = 0; j < cols; ++j) {
      if (j > 0) text += options->delimiter;
      text += "x" + std::to_string(j);
    }
    text += eol;
  }
  const std::size_t rows = rng.UniformIndex(6);
  for (std::size_t r = 0; r < rows; ++r) {
    blank_lines();
    std::size_t cells = cols;
    if (rng.UniformIndex(10) == 0) cells = rng.UniformIndex(cols + 2);
    for (std::size_t j = 0; j < cells; ++j) {
      if (j > 0) text += options->delimiter;
      text += loader_fuzz::Cell(rng);
    }
    if (r + 1 < rows || rng.UniformIndex(2) == 0) text += eol;
  }
  blank_lines();
  if (rng.UniformIndex(2) == 0) loader_fuzz::Mutate(rng, &text);
  return text;
}

TEST(CsvParseTest, MatchesStrtodOracleOnMutatedInputs) {
  constexpr std::size_t kInputs = 20000;
  Rng rng(20261020);
  std::size_t loaded = 0;
  for (std::size_t i = 0; i < kInputs; ++i) {
    CsvOptions options;
    const std::string text = MakeCsvInput(rng, &options);
    const Result<Dataset> got = ParseCsv(text, options);
    ASSERT_TRUE(loader_fuzz::SameLoad(got, OracleParseCsv(text, options)))
        << "input " << i << ": '" << loader_fuzz::Escaped(text)
        << "' delimiter '" << options.delimiter << "' header "
        << options.has_header << " label " << options.label_column
        << " policy " << static_cast<int>(options.non_finite);
    loaded += got.ok();
  }
  // Both outcomes are well represented, so neither side is vacuous.
  EXPECT_GT(loaded, kInputs / 5);
  EXPECT_LT(loaded, kInputs - kInputs / 5);
}

}  // namespace
}  // namespace hics
