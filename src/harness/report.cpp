#include "harness/report.hpp"

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
  // CSV mirror.
  std::printf("csv,%s", row_header_.c_str());
  for (const auto& name : series_) {
    std::printf(",%s", name.c_str());
  }
  std::printf("\n");
  for (const auto& row : rows_) {
    std::printf("csv,%s", row.label.c_str());
    for (const double value : row.values) {
      std::printf(",%.4f", value);
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

std::string size_label(std::uint64_t bytes) {
  return util::format_bytes(bytes);
}

fwd::ReliabilityStats reliability_totals(const fwd::VirtualChannel& vc) {
  fwd::ReliabilityStats total;
  for (NodeRank rank = 0;
       static_cast<std::size_t>(rank) < vc.domain().node_count(); ++rank) {
    if (!vc.is_member(rank)) {
      continue;
    }
    const fwd::ReliabilityStats& r = vc.gateway_stats(rank).reliability;
    total.paquets_acked += r.paquets_acked;
    total.retransmits += r.retransmits;
    total.fast_retransmits += r.fast_retransmits;
    total.timeouts += r.timeouts;
    total.congestion_marks += r.congestion_marks;
    total.window_decreases += r.window_decreases;
    total.flow_rejects += r.flow_rejects;
    total.dup_drops += r.dup_drops;
    total.corrupt_drops += r.corrupt_drops;
    total.stale_drops += r.stale_drops;
    total.failovers += r.failovers;
    total.peers_declared_dead += r.peers_declared_dead;
  }
  return total;
}

void print_reliability(const fwd::VirtualChannel& vc) {
  const char* const header_fmt =
      "%-6s %12s %12s %12s %12s %12s %12s %12s %12s %12s\n";
  const char* const row_fmt =
      "%-6s %12llu %12llu %12llu %12llu %12llu %12llu %12llu %12llu %12llu\n";
  const auto row = [&](const char* label, const fwd::ReliabilityStats& r) {
    std::printf(row_fmt, label,
                static_cast<unsigned long long>(r.paquets_acked),
                static_cast<unsigned long long>(r.retransmits),
                static_cast<unsigned long long>(r.fast_retransmits),
                static_cast<unsigned long long>(r.timeouts),
                static_cast<unsigned long long>(r.dup_drops),
                static_cast<unsigned long long>(r.corrupt_drops),
                static_cast<unsigned long long>(r.stale_drops),
                static_cast<unsigned long long>(r.failovers),
                static_cast<unsigned long long>(r.peers_declared_dead));
    std::printf(
        "csv,reliability,%s,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu\n",
        label, static_cast<unsigned long long>(r.paquets_acked),
        static_cast<unsigned long long>(r.retransmits),
        static_cast<unsigned long long>(r.fast_retransmits),
        static_cast<unsigned long long>(r.timeouts),
        static_cast<unsigned long long>(r.dup_drops),
        static_cast<unsigned long long>(r.corrupt_drops),
        static_cast<unsigned long long>(r.stale_drops),
        static_cast<unsigned long long>(r.failovers),
        static_cast<unsigned long long>(r.peers_declared_dead));
  };
  std::printf("\n=== reliability: %s ===\n", vc.name().c_str());
  std::printf(header_fmt, "node", "acked", "retransmits", "fast_rtx",
              "timeouts", "dup_drops", "corrupt", "stale", "failovers",
              "dead_peers");
  for (NodeRank rank = 0;
       static_cast<std::size_t>(rank) < vc.domain().node_count(); ++rank) {
    if (!vc.is_member(rank)) {
      continue;
    }
    const fwd::ReliabilityStats& r = vc.gateway_stats(rank).reliability;
    if (r.paquets_acked == 0 && r.retransmits == 0 &&
        r.fast_retransmits == 0 && r.timeouts == 0 && r.dup_drops == 0 &&
        r.corrupt_drops == 0 && r.stale_drops == 0 && r.failovers == 0 &&
        r.peers_declared_dead == 0) {
      continue;
    }
    row(std::to_string(rank).c_str(), r);
  }
  row("total", reliability_totals(vc));
  std::fflush(stdout);
}

}  // namespace mad::harness
