#include "common/parse_number.h"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <string>
#include <system_error>

namespace hics {

bool ParseNumber(std::string_view cell, double* out) {
  if (cell.empty()) return false;
  const char* const first = cell.data();
  const char* const last = first + cell.size();
  const char* const lead = first + (*first == '-');
  if (lead != last && ((*lead >= '0' && *lead <= '9') || *lead == '.')) {
    const auto [end, ec] = std::from_chars(first, last, *out);
    if (ec == std::errc{} && end == last) return true;
  }
  // strtod needs a terminated string, so the cell is copied: onto the
  // stack when it fits, else into a heap string.
  char stack[64];
  std::string heap;
  const char* text = stack;
  if (cell.size() < sizeof(stack)) {
    std::memcpy(stack, first, cell.size());
    stack[cell.size()] = '\0';
  } else {
    heap.assign(cell);
    text = heap.c_str();
  }
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end == text + cell.size();
}

}  // namespace hics
