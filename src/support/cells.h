// Strict numeric cells for the text readers (tools/, introspect/): the
// whole cell must parse, so "12abc" and "" are errors rather than 12 and
// 0. Each failure throws mpim::Error naming the cell and `where` (a file
// and line, or the offending row).
#pragma once

#include <string>

namespace mpim {

/// A finite number as std::stod reads it; "nan" and "inf" are corrupt
/// data, not numbers.
double finite_cell(const std::string& cell, const std::string& where);

/// A finite_cell with no fractional part, within long long range.
long long integral_cell(const std::string& cell, const std::string& where);

/// A decimal count in unsigned long range, digits only: "-1" (how the
/// MPI_M_DATA_MISSING sentinel reads when signed) is an error, not
/// 18446744073709551615.
unsigned long count_cell(const std::string& cell, const std::string& where);

}  // namespace mpim
