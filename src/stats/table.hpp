// Shared fixed-width stdout table formatting.
//
// One helper behind every aligned table the project prints: the bench
// figure tables (Table::figure), the ccperf host-profile table,
// stats::print_profile's cycle-breakdown rows, and the sharing / advisor
// reports. Two column modes:
//
//   - auto  (width == 0): the column is sized to its widest cell
//     (header included), the figure-table style;
//   - fixed (width > 0): cells are padded to at least `width` but never
//     truncated, matching printf's minimum-field-width semantics.
//
// Each column carries its own alignment and the separator string printed
// before it, so existing printf format strings translate byte-for-byte.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace ccsim::stats {

/// One column of a Table.
struct Column {
  std::string header;
  int width = 0;           ///< minimum cell width; 0 = size to content
  bool left = false;       ///< left-align (default: right-align)
  std::string gap = "  ";  ///< separator printed before this column
};

class Table {
public:
  /// Columns given explicitly; `rule` draws a dashed line under the header
  /// spanning the full row width. A table whose headers are all empty
  /// prints no header line.
  explicit Table(std::vector<Column> columns, bool rule = false);

  /// The bench-figure style: every column auto-width, first column
  /// left-aligned with no leading gap, the rest right-aligned behind
  /// two-space gaps, dashed rule under the header.
  static Table figure(const std::vector<std::string>& headers);

  void add_row(std::vector<std::string> cells);
  void print(std::ostream& os) const;
  void print_csv(std::ostream& os) const;

  [[nodiscard]] static std::string num(double v, int precision = 1);
  [[nodiscard]] static std::string num(std::uint64_t v);

private:
  std::vector<Column> cols_;
  bool rule_;
  std::vector<std::vector<std::string>> rows_;
};

} // namespace ccsim::stats
