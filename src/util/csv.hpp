#pragma once
// Minimal CSV emission for experiment data that downstream plotting
// scripts consume. Values are quoted only when needed (comma/quote/newline).

#include <ostream>
#include <string>
#include <vector>

namespace greenhpc::util {

class CsvWriter {
 public:
  /// Writes rows to `out`; the stream must outlive the writer.
  explicit CsvWriter(std::ostream& out) : out_(&out) {}

  /// Emit one row of string cells.
  void write_row(const std::vector<std::string>& cells);

  /// Quote a single cell per RFC 4180 when it contains a delimiter.
  [[nodiscard]] static std::string escape(const std::string& cell);
  /// Format one numeric cell (`%.10g`), for rows mixing text and numbers.
  [[nodiscard]] static std::string fmt(double v);

 private:
  std::ostream* out_;
};

}  // namespace greenhpc::util
