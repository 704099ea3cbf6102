#include "harness/report.hpp"

#include <algorithm>
#include <cstdio>

#include "fwd/virtual_channel.hpp"
#include "util/panic.hpp"
#include "util/stats.hpp"

namespace mad::harness {

ReportTable::ReportTable(std::string title, std::string row_header,
                         std::vector<std::string> series)
    : title_(std::move(title)),
      row_header_(std::move(row_header)),
      series_(std::move(series)) {}

void ReportTable::add_row(const std::string& label,
                          const std::vector<double>& values) {
  MAD_ASSERT(values.size() == series_.size(),
             "row width does not match series count");
  rows_.push_back({label, values});
}

void ReportTable::print() const {
  std::printf("\n=== %s ===\n", title_.c_str());
  std::printf("%-14s", row_header_.c_str());
  for (const auto& name : series_) {
    std::printf(" %14s", name.c_str());
  }
  std::printf("\n");
  for (const auto& row : rows_) {
    std::printf("%-14s", row.label.c_str());
    for (const double value : row.values) {
      std::printf(" %14.2f", value);
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

std::string size_label(std::uint64_t bytes) {
  return util::format_bytes(bytes);
}

using Stats = fwd::ReliabilityStats;
const std::array<ReliabilityField, 12> kReliabilityFields = {{
    {"paquets_acked", "acked", &Stats::paquets_acked},
    {"retransmits", "retransmits", &Stats::retransmits},
    {"fast_retransmits", "fast_rtx", &Stats::fast_retransmits},
    {"timeouts", "timeouts", &Stats::timeouts},
    {"congestion_marks", "marks", &Stats::congestion_marks},
    {"window_decreases", "win_decr", &Stats::window_decreases},
    {"flow_rejects", "rejects", &Stats::flow_rejects},
    {"dup_drops", "dup_drops", &Stats::dup_drops},
    {"corrupt_drops", "corrupt", &Stats::corrupt_drops},
    {"stale_drops", "stale", &Stats::stale_drops},
    {"failovers", "failovers", &Stats::failovers},
    {"peers_declared_dead", "dead_peers", &Stats::peers_declared_dead},
}};

fwd::ReliabilityStats reliability_totals(const fwd::VirtualChannel& vc) {
  fwd::ReliabilityStats total;
  for (NodeRank rank = 0;
       static_cast<std::size_t>(rank) < vc.domain().node_count(); ++rank) {
    if (!vc.is_member(rank)) {
      continue;
    }
    const fwd::ReliabilityStats& r = vc.gateway_stats(rank).reliability;
    for (const ReliabilityField& field : kReliabilityFields) {
      total.*field.member += r.*field.member;
    }
  }
  return total;
}

void print_reliability(const fwd::VirtualChannel& vc) {
  const auto row = [&](const char* label, const fwd::ReliabilityStats& r) {
    std::printf("%-6s", label);
    for (const ReliabilityField& field : kReliabilityFields) {
      std::printf(" %12llu",
                  static_cast<unsigned long long>(r.*field.member));
    }
    std::printf("\n");
  };
  std::printf("\n=== reliability: %s ===\n", vc.name().c_str());
  std::printf("%-6s", "node");
  for (const ReliabilityField& field : kReliabilityFields) {
    std::printf(" %12s", field.column);
  }
  std::printf("\n");
  for (NodeRank rank = 0;
       static_cast<std::size_t>(rank) < vc.domain().node_count(); ++rank) {
    if (!vc.is_member(rank)) {
      continue;
    }
    const fwd::ReliabilityStats& r = vc.gateway_stats(rank).reliability;
    if (std::all_of(kReliabilityFields.begin(), kReliabilityFields.end(),
                    [&](const ReliabilityField& field) {
                      return r.*field.member == 0;
                    })) {
      continue;
    }
    row(std::to_string(rank).c_str(), r);
  }
  row("total", reliability_totals(vc));
  std::fflush(stdout);
}

}  // namespace mad::harness
