#pragma once
// ASCII table rendering for bench/experiment output.
//
// Every bench prints paper-style rows; Table keeps the formatting in one
// place so the harness output is uniform and diffable.

#include <string>
#include <vector>

namespace greenhpc::util {

class Table {
 public:
  /// Table with the given column headers.
  explicit Table(std::vector<std::string> headers);

  /// Append a row of already-formatted cells (padded/truncated to the
  /// header count).
  void add_row(std::vector<std::string> cells);

  /// Number of data rows.
  [[nodiscard]] std::size_t rows() const { return rows_.size(); }

  /// Render with column-aligned padding, a header separator and an optional
  /// title line.
  [[nodiscard]] std::string str(const std::string& title = {}) const;

  /// Format a double with fixed precision (shared helper).
  [[nodiscard]] static std::string fmt(double v, int precision = 2);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace greenhpc::util
