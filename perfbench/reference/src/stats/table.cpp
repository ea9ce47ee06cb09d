#include "stats/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/check.hpp"

namespace axihc {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  AXIHC_CHECK(!headers_.empty());
}

void Table::add_row(std::vector<std::string> cells) {
  AXIHC_CHECK_MSG(cells.size() == headers_.size(),
                  "row arity " << cells.size() << " != header arity "
                               << headers_.size());
  rows_.push_back(std::move(cells));
}

void Table::print_markdown(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) widths[c] = std::max(widths[c], row[c].size());
  }
  auto emit_row = [&](const std::vector<std::string>& cells) {
    os << '|';
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << ' ' << std::left << std::setw(static_cast<int>(widths[c]))
         << cells[c] << " |";
    }
    os << '\n';
  };
  emit_row(headers_);
  os << '|';
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << std::string(widths[c] + 2, '-') << '|';
  }
  os << '\n';
  for (const auto& row : rows_) emit_row(row);
}

void Table::print_csv(std::ostream& os) const {
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c) os << ',';
      os << cells[c];
    }
    os << '\n';
  };
  emit_row(headers_);
  for (const auto& row : rows_) emit_row(row);
}

std::string Table::num(double value, int digits) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(digits) << value;
  return os.str();
}

}  // namespace axihc
