#include "tools/prof_reader.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>

#include "support/cells.h"
#include "support/error.h"

namespace mpim::tools {

namespace {

/// The whitespace-separated cells of one line.
std::vector<std::string> cells_of(const std::string& line) {
  std::istringstream ls(line);
  std::vector<std::string> out;
  std::string cell;
  while (ls >> cell) out.push_back(cell);
  return out;
}

/// A count cell that fits an int (a rank or a communicator size).
int int_count(const std::string& cell, const std::string& where) {
  const unsigned long v = count_cell(cell, where);
  check(v <= static_cast<unsigned long>(std::numeric_limits<int>::max()),
        "count cell '" + cell + "' out of range in " + where);
  return static_cast<int>(v);
}

}  // namespace

RankProfile read_rank_profile(const std::string& path) {
  std::ifstream is(path);
  check(is.good(), "cannot open profile file: " + path);
  RankProfile out;
  std::string line;
  for (std::size_t lineno = 1; std::getline(is, line); ++lineno) {
    if (line.empty()) continue;
    const std::string where = path + ":" + std::to_string(lineno);
    const std::vector<std::string> c = cells_of(line);
    if (line[0] == '#') {
      // "# rank R of N, flags f" header carries the metadata.
      for (std::size_t i = 0; i + 1 < c.size(); ++i) {
        if (c[i] == "rank") {
          out.rank = int_count(c[++i], where);
        } else if (c[i] == "of") {
          std::string n = c[++i];
          if (n.back() == ',') n.pop_back();
          out.comm_size = int_count(n, where);
          check(out.comm_size > 0, "empty communicator in " + where);
        } else if (c[i] == "flags") {
          out.flags = c[++i];
        }
      }
      continue;
    }
    check(c.size() == 3, "malformed profile row (want: peer count bytes) in " +
                             where);
    check(count_cell(c[0], where) == out.counts.size(),
          "non-sequential peer index in " + where);
    out.counts.push_back(count_cell(c[1], where));
    out.sizes.push_back(count_cell(c[2], where));
  }
  check(!out.counts.empty(), "empty profile file: " + path);
  if (out.comm_size == 0) out.comm_size = static_cast<int>(out.counts.size());
  check(out.counts.size() == static_cast<std::size_t>(out.comm_size),
        "row count does not match communicator size in " + path);
  check(out.rank < out.comm_size,
        "rank outside its communicator in " + path);
  return out;
}

CommMatrix read_matrix_profile(const std::string& path) {
  std::ifstream is(path);
  check(is.good(), "cannot open profile file: " + path);
  std::vector<std::vector<unsigned long>> rows;
  std::string line;
  for (std::size_t lineno = 1; std::getline(is, line); ++lineno) {
    if (line.empty() || line[0] == '#') continue;
    const std::string where = path + ":" + std::to_string(lineno);
    std::vector<unsigned long> row;
    for (const std::string& cell : cells_of(line))
      row.push_back(count_cell(cell, where));
    check(!row.empty(), "empty matrix row in " + where);
    const auto missing = std::count(row.begin(), row.end(), kMissingCell);
    check(missing == 0 || static_cast<std::size_t>(missing) == row.size(),
          "row mixes MPI_M_DATA_MISSING cells with counts in " + where);
    rows.push_back(std::move(row));
  }
  check(!rows.empty(), "no matrix rows in " + path);
  const std::size_t n = rows.size();
  for (const auto& row : rows)
    check(row.size() == n, "matrix in " + path + " is not square");
  CommMatrix m = CommMatrix::square(n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) m(i, j) = rows[i][j];
  return m;
}

bool missing_row(const CommMatrix& m, std::size_t i) {
  return std::ranges::find(m.row(i), kMissingCell) != m.row(i).end();
}

MatrixSummary summarize(const CommMatrix& m) {
  MatrixSummary out;
  std::size_t nonzero = 0;
  const std::size_t n = m.rows();
  for (std::size_t i = 0; i < n; ++i) {
    if (missing_row(m, i)) {
      out.missing_rows.push_back(i);
      continue;
    }
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const unsigned long v = m(i, j);
      out.total += v;
      if (v > 0) ++nonzero;
      if (v > out.heaviest_value) {
        out.heaviest_value = v;
        out.heaviest_src = i;
        out.heaviest_dst = j;
      }
    }
  }
  const std::size_t off_diag = (n - out.missing_rows.size()) * (n - 1);
  out.density = off_diag == 0
                    ? 0.0
                    : static_cast<double>(nonzero) /
                          static_cast<double>(off_diag);
  return out;
}

}  // namespace mpim::tools
