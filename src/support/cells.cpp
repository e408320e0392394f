#include "support/cells.h"

#include <charconv>
#include <cmath>
#include <exception>

#include "support/error.h"

namespace mpim {

namespace {

[[noreturn]] void bad_cell(const char* kind, const std::string& cell,
                           const std::string& where) {
  fail(std::string("bad ") + kind + " cell '" + cell + "' in " + where);
}

}  // namespace

double finite_cell(const std::string& cell, const std::string& where) {
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(cell, &used);
  } catch (const std::exception&) {
    bad_cell("numeric", cell, where);
  }
  if (used != cell.size() || !std::isfinite(v))
    bad_cell("numeric", cell, where);
  return v;
}

long long integral_cell(const std::string& cell, const std::string& where) {
  const double v = finite_cell(cell, where);
  // Past 2^63 the conversion below is undefined, not merely lossy.
  if (v != std::floor(v) || std::fabs(v) >= 0x1p63)
    bad_cell("integer", cell, where);
  return static_cast<long long>(v);
}

unsigned long count_cell(const std::string& cell, const std::string& where) {
  unsigned long v = 0;
  const char* end = cell.data() + cell.size();
  const auto [ptr, ec] = std::from_chars(cell.data(), end, v);
  if (cell.empty() || ec != std::errc() || ptr != end)
    bad_cell("count", cell, where);
  return v;
}

}  // namespace mpim
