// Table output for the bench binaries.
//
// Every figure bench prints a human-readable fixed-width table shaped like
// the paper's plot — one row per message size, one column per series
// (paquet size, direction, system...). The machine-readable record is the
// bench's BENCH_<name>.json (harness/json_report.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace mad::fwd {
class VirtualChannel;
struct ReliabilityStats;
}  // namespace mad::fwd

namespace mad::harness {

class ReportTable {
 public:
  struct Row {
    std::string label;
    std::vector<double> values;
  };

  /// `row_header` names the first column (e.g. "msg size").
  ReportTable(std::string title, std::string row_header,
              std::vector<std::string> series);

  void add_row(const std::string& label, const std::vector<double>& values);

  /// Prints the table to stdout.
  void print() const;

  // Accessors for machine-readable emitters (JsonReport).
  const std::string& title() const { return title_; }
  const std::string& row_header() const { return row_header_; }
  const std::vector<std::string>& series() const { return series_; }
  const std::vector<Row>& rows() const { return rows_; }

 private:
  std::string title_;
  std::string row_header_;
  std::vector<std::string> series_;
  std::vector<Row> rows_;
};

/// "16 KB" style labels for power-of-two byte counts.
std::string size_label(std::uint64_t bytes);

/// One ReliabilityStats counter as the reports show it: its JSON key (the
/// field's name), its print_reliability column and the field itself.
struct ReliabilityField {
  const char* key;
  const char* column;
  std::uint64_t fwd::ReliabilityStats::*member;
};

/// Every ReliabilityStats counter in declaration order: what
/// reliability_totals sums and both reports print.
extern const std::array<ReliabilityField, 12> kReliabilityFields;

/// Sum of the per-member reliable-mode counters of `vc` — the figure the
/// "total" row of print_reliability (and the JSON report) shows.
fwd::ReliabilityStats reliability_totals(const fwd::VirtualChannel& vc);

/// Per-member reliable-mode counters of `vc` (every kReliabilityFields
/// column) as a fixed-width table; all-zero members are skipped, a
/// "total" row (== reliability_totals) always prints.
void print_reliability(const fwd::VirtualChannel& vc);

}  // namespace mad::harness
