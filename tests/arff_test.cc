#include "data/arff.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "arff_oracle.h"
#include "common/random.h"
#include "loader_fuzz.h"

namespace hics {
namespace {

constexpr char kBasicArff[] = R"(% UCI-style toy file
@relation toy

@attribute width numeric
@attribute height real
@attribute class {good, bad}

@data
1.5, 2.0, good
3.0, 4.0, good
9.0, 9.5, bad
)";

TEST(ArffTest, ParsesNumericAttributesAndMinorityClass) {
  auto ds = ParseArff(kBasicArff);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->num_objects(), 3u);
  EXPECT_EQ(ds->num_attributes(), 2u);
  EXPECT_EQ(ds->attribute_names()[0], "width");
  EXPECT_EQ(ds->attribute_names()[1], "height");
  EXPECT_DOUBLE_EQ(ds->Get(2, 1), 9.5);
  ASSERT_TRUE(ds->has_labels());
  // "bad" is the minority class -> the outlier.
  EXPECT_FALSE(ds->labels()[0]);
  EXPECT_FALSE(ds->labels()[1]);
  EXPECT_TRUE(ds->labels()[2]);
}

TEST(ArffTest, ExplicitOutlierValue) {
  ArffOptions options;
  options.outlier_value = "good";
  auto ds = ParseArff(kBasicArff, options);
  ASSERT_TRUE(ds.ok());
  EXPECT_TRUE(ds->labels()[0]);
  EXPECT_FALSE(ds->labels()[2]);
}

TEST(ArffTest, ExplicitClassAttributeByName) {
  const char text[] = R"(
@relation r
@attribute type {a, b}
@attribute x numeric
@data
a, 1.0
b, 2.0
b, 3.0
)";
  ArffOptions options;
  options.class_attribute = "TYPE";  // case-insensitive
  auto ds = ParseArff(text, options);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->num_attributes(), 1u);
  EXPECT_TRUE(ds->labels()[0]);  // 'a' is minority
}

TEST(ArffTest, NonClassNominalAttributesIndexEncoded) {
  const char text[] = R"(
@relation r
@attribute color {red, green, blue}
@attribute x numeric
@attribute class {in, out}
@data
green, 1.0, in
red, 2.0, in
blue, 3.0, out
)";
  auto ds = ParseArff(text);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->num_attributes(), 2u);
  EXPECT_DOUBLE_EQ(ds->Get(0, 0), 1.0);  // green -> 1
  EXPECT_DOUBLE_EQ(ds->Get(1, 0), 0.0);  // red -> 0
  EXPECT_DOUBLE_EQ(ds->Get(2, 0), 2.0);  // blue -> 2
}

TEST(ArffTest, MissingValuesImputedWithMean) {
  const char text[] = R"(
@relation r
@attribute x numeric
@attribute class {in, out}
@data
1.0, in
?, in
3.0, out
)";
  auto ds = ParseArff(text);
  ASSERT_TRUE(ds.ok());
  EXPECT_DOUBLE_EQ(ds->Get(1, 0), 2.0);
}

TEST(ArffTest, QuotedNamesAndValues) {
  const char text[] = R"(
@relation r
@attribute 'sepal length' numeric
@attribute class {'Iris-setosa', 'Iris-virginica'}
@data
5.1, 'Iris-setosa'
6.0, 'Iris-virginica'
6.1, 'Iris-virginica'
)";
  auto ds = ParseArff(text);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->attribute_names()[0], "sepal length");
  EXPECT_TRUE(ds->labels()[0]);
}

TEST(ArffTest, NoNominalAttributeMeansUnlabeled) {
  const char text[] = R"(
@relation r
@attribute x numeric
@attribute y numeric
@data
1, 2
3, 4
)";
  auto ds = ParseArff(text);
  ASSERT_TRUE(ds.ok());
  EXPECT_FALSE(ds->has_labels());
  EXPECT_EQ(ds->num_attributes(), 2u);
}

TEST(ArffTest, ErrorCases) {
  EXPECT_FALSE(ParseArff("@relation r\n@data\n1\n").ok());  // no attributes
  EXPECT_FALSE(ParseArff("@relation r\n@attribute x numeric\n").ok());
  EXPECT_FALSE(
      ParseArff("@relation r\n@attribute x numeric\n@data\n1,2\n").ok());
  EXPECT_FALSE(
      ParseArff("@relation r\n@attribute x date\n@data\n1\n").ok());
  EXPECT_FALSE(
      ParseArff("@relation r\n@attribute x numeric\n@data\nfoo\n").ok());
  // Unknown class attribute name.
  ArffOptions options;
  options.class_attribute = "nope";
  EXPECT_FALSE(ParseArff(kBasicArff, options).ok());
  // Outlier value outside the domain.
  options = ArffOptions{};
  options.outlier_value = "ugly";
  EXPECT_FALSE(ParseArff(kBasicArff, options).ok());
}

TEST(ArffTest, RejectsNonFiniteNumericCellByDefault) {
  const char text[] = R"(@relation r
@attribute x numeric
@attribute y numeric
@data
1, 2
nan, 4
)";
  auto ds = ParseArff(text);
  ASSERT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().code(), StatusCode::kInvalidArgument);
  // Line 6 of the source text holds the poisoned row; the attribute is
  // named too.
  EXPECT_NE(ds.status().message().find("line 6"), std::string::npos)
      << ds.status().ToString();
  EXPECT_NE(ds.status().message().find("x"), std::string::npos);
}

TEST(ArffTest, RejectsAnEmptyOrBlankNumericCell) {
  // An empty cell is no number: it must not load as 0. A blank one is
  // trimmed to empty first.
  for (const char* row : {"1,,3", "2, ,4"}) {
    const std::string text = std::string(
        "@relation r\n@attribute x numeric\n@attribute y numeric\n"
        "@attribute z numeric\n@data\n") + row + "\n";
    auto ds = ParseArff(text);
    ASSERT_FALSE(ds.ok()) << row;
    EXPECT_EQ(ds.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(ds.status().message(),
              "cannot parse '' as numeric for attribute 'y'")
        << row;
  }
}

TEST(ArffTest, DropRowPolicySkipsNonFiniteRows) {
  const char text[] = R"(@relation r
@attribute x numeric
@attribute class {in, out}
@data
1.0, in
inf, in
2.0, in
3.0, out
)";
  ArffOptions options;
  options.non_finite = NonFinitePolicy::kDropRow;
  auto ds = ParseArff(text, options);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ(ds->num_objects(), 3u);
  EXPECT_DOUBLE_EQ(ds->Get(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(ds->Get(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(ds->Get(2, 0), 3.0);
  // Labels stay aligned with the surviving rows; "out" is still the
  // minority class after the drop.
  ASSERT_TRUE(ds->has_labels());
  EXPECT_FALSE(ds->labels()[0]);
  EXPECT_FALSE(ds->labels()[1]);
  EXPECT_TRUE(ds->labels()[2]);
}

TEST(ArffTest, AllowPolicyAdmitsNonFiniteValues) {
  const char text[] = R"(@relation r
@attribute x numeric
@attribute y numeric
@data
1, nan
3, 4
)";
  ArffOptions options;
  options.non_finite = NonFinitePolicy::kAllow;
  auto ds = ParseArff(text, options);
  ASSERT_TRUE(ds.ok());
  EXPECT_TRUE(std::isnan(ds->Get(0, 1)));
}

TEST(ArffTest, MissingValueMarkerIsNotScreened) {
  // '?' goes through mean imputation, not the non-finite screen.
  const char text[] = R"(@relation r
@attribute x numeric
@attribute class {in, out}
@data
1.0, in
?, in
3.0, out
)";
  auto ds = ParseArff(text);  // default kReject
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_DOUBLE_EQ(ds->Get(1, 0), 2.0);
}

TEST(ArffTest, MissingFileIsIOError) {
  auto ds = ReadArffFile("/does/not/exist.arff");
  ASSERT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().code(), StatusCode::kIOError);
}

TEST(ArffParseTest, KeepsNanPayloadUnderAllow) {
  const char text[] = R"(@relation r
@attribute x numeric
@attribute y numeric
@data
nan(123), -nan
)";
  ArffOptions options;
  options.non_finite = NonFinitePolicy::kAllow;
  auto ds = ParseArff(text, options);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  std::uint64_t bits[2];
  for (std::size_t c = 0; c < 2; ++c) {
    const double value = ds->Get(0, c);
    std::memcpy(&bits[c], &value, sizeof(value));
  }
  EXPECT_EQ(bits[0], 0x7ff800000000007bu);
  EXPECT_EQ(bits[1], 0xfff8000000000000u);
}

TEST(ArffParseTest, FileLoadMatchesParsedText) {
  const std::string path = testing::TempDir() + "/hics_arff_one_read.arff";
  {
    std::ofstream out(path, std::ios::binary);
    out << kBasicArff;
  }
  auto loaded = ReadArffFile(path);
  std::remove(path.c_str());
  EXPECT_TRUE(loader_fuzz::SameLoad(loaded, ParseArff(kBasicArff)));
}

/// One ARFF input and its options: 1-4 numeric or nominal attributes
/// (among them the class, by name, by default or missing), comments,
/// blank lines, "?" cells, values outside a nominal domain, ragged rows,
/// every non-finite policy, then byte mutations.
std::string MakeArffInput(Rng& rng, ArffOptions* options) {
  static constexpr const char* kNumericTypes[] = {"numeric", "REAL",
                                                  "integer"};
  static constexpr const char* kNominal[] = {"a", "b", "'c d'", "zz"};
  static constexpr NonFinitePolicy kPolicies[] = {
      NonFinitePolicy::kReject, NonFinitePolicy::kDropRow,
      NonFinitePolicy::kAllow};
  const std::size_t attrs = 1 + rng.UniformIndex(4);
  std::vector<bool> nominal(attrs);
  std::string text = "% fuzz\n@relation r\n";
  for (std::size_t i = 0; i < attrs; ++i) {
    nominal[i] = rng.UniformIndex(3) == 0;
    text += "@attribute v" + std::to_string(i) + " " +
            (nominal[i] ? "{a, b, 'c d'}"
                        : kNumericTypes[rng.UniformIndex(3)]) +
            "\n";
  }
  text += "@data\n";
  const std::size_t rows = rng.UniformIndex(7);
  for (std::size_t r = 0; r < rows; ++r) {
    if (rng.UniformIndex(8) == 0) {
      text += rng.UniformIndex(2) == 0 ? "\n" : "% c\n";
    }
    std::size_t cells = attrs;
    if (rng.UniformIndex(12) == 0) cells = rng.UniformIndex(attrs + 2);
    for (std::size_t i = 0; i < cells; ++i) {
      if (i > 0) text += ",";
      if (rng.UniformIndex(10) == 0) {
        text += "?";
      } else if (i < attrs && nominal[i]) {
        text += kNominal[rng.UniformIndex(rng.UniformIndex(8) == 0 ? 4 : 3)];
      } else if (rng.UniformIndex(2) == 0) {
        text += loader_fuzz::Cell(rng);
      } else {
        text += std::to_string(rng.UniformDouble());  // a plain number
      }
    }
    text += rng.UniformIndex(3) == 0 ? "\r\n" : "\n";
  }
  *options = ArffOptions{};
  switch (rng.UniformIndex(4)) {
    case 0:
      options->class_attribute = "V" + std::to_string(rng.UniformIndex(attrs));
      break;
    case 1:
      options->class_attribute = "missing";
      break;
    default:
      break;
  }
  if (rng.UniformIndex(3) == 0) {
    options->outlier_value = kNominal[rng.UniformIndex(4)];
  }
  options->non_finite = kPolicies[rng.UniformIndex(3)];
  if (rng.UniformIndex(2) == 0) loader_fuzz::Mutate(rng, &text);
  return text;
}

TEST(ArffParseTest, MatchesStrtodOracleOnMutatedInputs) {
  constexpr std::size_t kInputs = 20000;
  Rng rng(20261021);
  std::size_t loaded = 0;
  for (std::size_t i = 0; i < kInputs; ++i) {
    ArffOptions options;
    const std::string text = MakeArffInput(rng, &options);
    const Result<Dataset> got = ParseArff(text, options);
    ASSERT_TRUE(loader_fuzz::SameLoad(got, OracleParseArff(text, options)))
        << "input " << i << ": '" << loader_fuzz::Escaped(text)
        << "' class '" << options.class_attribute << "' outlier '"
        << options.outlier_value << "' policy "
        << static_cast<int>(options.non_finite);
    loaded += got.ok();
  }
  // Both outcomes are well represented, so neither side is vacuous.
  EXPECT_GT(loaded, kInputs / 5);
  EXPECT_LT(loaded, kInputs - kInputs / 5);
}

}  // namespace
}  // namespace hics
