// Aligned-console-table and CSV reporting for the benchmark harnesses.
//
// Every bench binary regenerates one table or figure of the paper; this
// helper keeps their output uniform: a titled, column-aligned table on
// stdout, optionally mirrored to a CSV file for plotting.

#pragma once

#include <string>
#include <vector>

namespace grw {

/// Column-aligned text table with optional CSV export.
class Table {
 public:
  explicit Table(std::string title) : title_(std::move(title)) {}

  /// Sets the header row. Must be called before adding rows.
  void SetHeader(std::vector<std::string> header);

  /// Appends one row; the number of cells should match the header.
  void AddRow(std::vector<std::string> row);

  /// Convenience cell formatters.
  static std::string Num(double v, int precision = 4);
  static std::string Sci(double v, int precision = 3);
  static std::string Int(long long v);
  /// Human-readable duration from seconds, e.g. "19.4 ms", "20.6 s".
  static std::string Duration(double seconds);

  /// Renders the aligned table to a string (including title and rule lines).
  std::string ToString() const;

  /// Prints ToString() to stdout.
  void Print() const;

  /// Writes the table as CSV to `path`. Returns false on I/O failure.
  bool WriteCsv(const std::string& path) const;

  /// Read access for generic exporters (bench_common.h derives JSON
  /// metrics from the rendered table without each bench re-listing them).
  const std::vector<std::string>& header() const { return header_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace grw
