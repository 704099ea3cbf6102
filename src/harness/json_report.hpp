// Machine-readable bench reports (BENCH_<name>.json).
//
// Every figure bench prints a human table; JsonReport collects the same
// tables — plus the metrics registry and the reliable-mode counters when
// the bench uses them — into one JSON document written as
// BENCH_<name>.json in the working directory. EXPERIMENTS.md
// documents the regeneration workflow; tests parse the output back with
// util::parse_json, so there is no Python in the loop.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace mad::sim {
class MetricsRegistry;
}  // namespace mad::sim

namespace mad::fwd {
class VirtualChannel;
}  // namespace mad::fwd

namespace mad::harness {

class ReportTable;

class JsonReport {
 public:
  /// `name` is the bench's short name ("fig7", "abl_mtu", ...): it becomes
  /// both the "bench" field and the BENCH_<name>.json file name.
  explicit JsonReport(std::string name);

  const std::string& name() const { return name_; }

  /// Free-form commentary (the paper-shape note the bench prints).
  void set_note(std::string note);

  /// Snapshots a table: {title, row_header, series, rows:[{label,
  /// values}]}. Call once per table, after its rows are complete.
  void add_table(const ReportTable& table);

  /// Embeds the registry snapshot (MetricsRegistry::write_json) under
  /// "metrics".
  void add_metrics(const sim::MetricsRegistry& metrics);

  /// Embeds per-node reliable-mode counters plus their total under
  /// "reliability" (total == harness::reliability_totals).
  void add_reliability(const fwd::VirtualChannel& vc);

  /// Writes the whole document: {"bench", "note"?, "tables", "metrics"?,
  /// "reliability"?}.
  void write(std::ostream& out) const;

  /// Writes "<dir>/BENCH_<name>.json" and returns the path; prints a one-
  /// line pointer to stdout so bench logs say where the artifact went.
  std::string write_file(const std::string& dir = ".") const;

 private:
  std::string name_;
  std::string note_;
  std::vector<std::string> tables_;  // pre-rendered JSON objects
  std::string metrics_;              // pre-rendered JSON object
  std::string reliability_;          // pre-rendered JSON object
};

}  // namespace mad::harness
