// Markdown/CSV table printer for bench output. Benches print the same rows
// the paper's tables/figures report, so results diff cleanly run-to-run.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace axihc {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Appends a row; must have the same arity as the header.
  void add_row(std::vector<std::string> cells);

  /// Renders as a GitHub-flavored markdown table.
  void print_markdown(std::ostream& os) const;

  /// Renders as CSV.
  void print_csv(std::ostream& os) const;

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }

  /// Formats a double with `digits` decimal places.
  static std::string num(double value, int digits = 2);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace axihc
