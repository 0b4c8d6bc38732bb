// Deterministic hostile-input generator for the text-loader equivalence
// tests: number-like and malformed cells, byte-level mutations of whole
// inputs, and a comparison of two load results down to the bits. The
// tests draw a fixed count of inputs from a fixed seed, so every run (and
// every sanitizer build) sees the same inputs.

#ifndef HICS_TESTS_LOADER_FUZZ_H_
#define HICS_TESTS_LOADER_FUZZ_H_

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <string_view>

#include "common/dataset.h"
#include "common/random.h"
#include "common/status.h"

namespace hics::loader_fuzz {

/// One cell: a formatted double (%.17g, %g or %e, of a scaled value or of
/// raw bits, so NaNs, infinities and subnormals come up), a small integer,
/// a spelling strtod and from_chars disagree on or reject, or a cell longer
/// than the parser's stack buffer; sometimes padded with blanks.
inline std::string Cell(Rng& rng) {
  static constexpr const char* kTokens[] = {
      "+1",      ".5",       "5.",        "-.5",      "0x1p3",   "-0X1P-2",
      "1e400",   "-1e400",   "1e-400",    "-1e-400",  "4.9e-324", "2.4e-324",
      "inf",     "-inf",     "Infinity",  "-nan",     "nan",     "NAN",
      "nan(123)", "nan(0x7b)", "nan(",    "1e",       "1e+",     "--1",
      "-",       ".",        "-.",        "1 2",      "0x",      "-0",
      "00012",   "1E5",      "outlier",   "normal",   "abc",     "",
      "?",       "+.5e-3",   "\v7",       "1.5e+308", "0e99999999999",
  };
  char buffer[64];
  std::string cell;
  switch (rng.UniformIndex(8)) {
    case 0:
    case 1:
    case 2: {
      static constexpr const char* kFormats[] = {"%.17g", "%g", "%e"};
      const double value = (rng.UniformDouble() - 0.5) *
                           std::pow(10.0, rng.UniformInt(-12, 12));
      std::snprintf(buffer, sizeof(buffer), kFormats[rng.UniformIndex(3)],
                    value);
      cell = buffer;
      break;
    }
    case 3: {
      const std::uint64_t bits = rng.NextUint64();
      double value;
      std::memcpy(&value, &bits, sizeof(value));
      std::snprintf(buffer, sizeof(buffer), "%.17g", value);
      cell = buffer;
      break;
    }
    case 4:
    case 5:
      cell = kTokens[rng.UniformIndex(std::size(kTokens))];
      break;
    case 6:
      cell = std::to_string(rng.UniformInt(-3, 3));
      break;
    default:
      cell = (rng.UniformIndex(2) == 0 ? "-" : "") +
             std::string(40 + rng.UniformIndex(60), '0') + "1.25" +
             (rng.UniformIndex(4) == 0 ? "x" : "");
      break;
  }
  static constexpr const char* kPads[] = {" ", "\t", "\r", "  "};
  if (rng.UniformIndex(8) == 0) cell = kPads[rng.UniformIndex(4)] + cell;
  if (rng.UniformIndex(8) == 0) cell += kPads[rng.UniformIndex(4)];
  return cell;
}

/// Zero to three byte edits (insert, delete or overwrite) with characters
/// that mean something to a loader.
inline void Mutate(Rng& rng, std::string* text) {
  static constexpr std::string_view kBytes(
      "0123456789.,;-+eE \t\r\n?%{}'\"@xn");
  const std::size_t edits = rng.UniformIndex(4);
  for (std::size_t e = 0; e < edits; ++e) {
    const char byte = kBytes[rng.UniformIndex(kBytes.size())];
    const std::size_t at = rng.UniformIndex(text->size() + 1);
    switch (rng.UniformIndex(3)) {
      case 0:
        text->insert(text->begin() + static_cast<std::ptrdiff_t>(at), byte);
        break;
      case 1:
        if (at < text->size()) text->erase(at, 1);
        break;
      default:
        if (at < text->size()) (*text)[at] = byte;
        break;
    }
  }
}

/// The input with control bytes escaped, for failure messages.
inline std::string Escaped(std::string_view text) {
  std::string out;
  for (char c : text) {
    if (c == '\n') out += "\\n";
    else if (c == '\r') out += "\\r";
    else if (c == '\t') out += "\\t";
    else if (c == '\v') out += "\\v";
    else out += c;
  }
  return out;
}

/// Success when both results carry the same Status text, or both hold
/// datasets with the same shape, names, labels and column bytes.
inline ::testing::AssertionResult SameLoad(const Result<Dataset>& got,
                                           const Result<Dataset>& want) {
  if (got.ok() != want.ok() ||
      (!got.ok() && got.status().ToString() != want.status().ToString())) {
    return ::testing::AssertionFailure()
           << "got " << (got.ok() ? "OK" : got.status().ToString())
           << ", want " << (want.ok() ? "OK" : want.status().ToString());
  }
  if (!got.ok()) return ::testing::AssertionSuccess();
  const Dataset& a = *got;
  const Dataset& b = *want;
  if (a.num_objects() != b.num_objects() ||
      a.num_attributes() != b.num_attributes()) {
    return ::testing::AssertionFailure()
           << "shape " << a.num_objects() << "x" << a.num_attributes()
           << " vs " << b.num_objects() << "x" << b.num_attributes();
  }
  if (a.attribute_names() != b.attribute_names()) {
    return ::testing::AssertionFailure() << "attribute names differ";
  }
  if (a.labels() != b.labels()) {
    return ::testing::AssertionFailure() << "labels differ";
  }
  const std::size_t bytes = a.num_objects() * sizeof(double);
  for (std::size_t j = 0; j < a.num_attributes(); ++j) {
    // An empty column's data() may be null, which memcmp must not see.
    if (bytes > 0 &&
        std::memcmp(a.Column(j).data(), b.Column(j).data(), bytes) != 0) {
      return ::testing::AssertionFailure() << "column " << j << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace hics::loader_fuzz

#endif  // HICS_TESTS_LOADER_FUZZ_H_
