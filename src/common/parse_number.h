#ifndef HICS_COMMON_PARSE_NUMBER_H_
#define HICS_COMMON_PARSE_NUMBER_H_

#include <string_view>

namespace hics {

/// True when the whole of `cell` is one number in std::strtod's grammar,
/// which is then stored in `*out` with strtod's bits; an empty cell is
/// false. The text loaders call it on each trimmed cell.
///
/// A cell that is an optional '-' followed by a digit or a '.' is parsed
/// with std::from_chars (correctly rounded, like strtod) and kept when it
/// consumed the whole cell without a range error. Every other cell (a
/// leading '+' or blank, hex floats, inf/nan spellings with their NaN
/// payloads, overflow and underflow, trailing junk) takes the strtod
/// path. So the accepted grammar and every value are strtod's in the C
/// locale; from_chars ignores LC_NUMERIC, so under a locale whose decimal
/// point is not '.' a cell like "0.5" still parses.
bool ParseNumber(std::string_view cell, double* out);

}  // namespace hics

#endif  // HICS_COMMON_PARSE_NUMBER_H_
