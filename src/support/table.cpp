#include "support/table.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "support/error.h"

namespace mpim {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  check(!header_.empty(), "Table needs at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  check(cells.size() == header_.size(), "Table row arity mismatch");
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << row[c];
      if (c + 1 < row.size())
        os << std::string(widths[c] - row[c].size() + 2, ' ');
    }
    os << '\n';
  };
  emit(header_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w + 2;
  os << std::string(total > 2 ? total - 2 : total, '-') << '\n';
  for (const auto& row : rows_) emit(row);
}

namespace {
std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (char ch : cell) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}
}  // namespace

void Table::write_csv(std::ostream& os) const {
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << csv_escape(row[c]);
      if (c + 1 < row.size()) os << ',';
    }
    os << '\n';
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
}

void Table::write_csv_file(const std::string& path) const {
  std::ofstream os(path);
  check(os.good(), "cannot open CSV output file: " + path);
  write_csv(os);
}

std::string format_sig(double v, int digits) {
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", digits, v);
  return buf;
}

std::string format_bytes(double bytes) {
  static constexpr const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  int u = 0;
  while (std::abs(bytes) >= 1000.0 && u < 4) {
    bytes /= 1000.0;
    ++u;
  }
  return format_sig(bytes, 4) + " " + units[u];
}

std::string format_seconds(double s) {
  const double a = std::abs(s);
  if (a >= 1.0) return format_sig(s, 4) + " s";
  if (a >= 1e-3) return format_sig(s * 1e3, 4) + " ms";
  if (a >= 1e-6) return format_sig(s * 1e6, 4) + " us";
  return format_sig(s * 1e9, 4) + " ns";
}

}  // namespace mpim
