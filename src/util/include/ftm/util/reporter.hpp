// Table/CSV reporter used by every benchmark binary so figures are printed
// in a consistent, parseable format: an aligned console table plus an
// optional CSV file per experiment.
#pragma once

#include <fstream>
#include <string>
#include <vector>

namespace ftm {

/// Collects rows of string cells and renders an aligned text table.
/// Numeric convenience overloads format with fixed precision.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  Table& begin_row();
  Table& cell(const std::string& v);
  Table& cell(const char* v) { return cell(std::string(v)); }
  Table& cell(double v, int precision = 2);
  Table& cell(std::size_t v);
  Table& cell(long long v);
  Table& cell(int v) { return cell(static_cast<long long>(v)); }

  /// Render to stdout with a title banner.
  void print(const std::string& title) const;
  /// Write rows as CSV (header first). Overwrites the file.
  void write_csv(const std::string& path) const;

  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Section banner helper shared by bench mains.
void print_banner(const std::string& text);

}  // namespace ftm
