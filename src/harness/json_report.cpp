#include "harness/json_report.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "fwd/virtual_channel.hpp"
#include "harness/report.hpp"
#include "sim/metrics.hpp"
#include "util/json.hpp"
#include "util/panic.hpp"

namespace mad::harness {

namespace {

std::string quoted(const std::string& text) {
  return "\"" + util::json_escape(text) + "\"";
}

std::string reliability_object(const fwd::ReliabilityStats& r) {
  std::ostringstream os;
  const char* separator = "{";
  for (const ReliabilityField& field : kReliabilityFields) {
    os << separator << quoted(field.key) << ":" << r.*field.member;
    separator = ",";
  }
  os << "}";
  return os.str();
}

}  // namespace

JsonReport::JsonReport(std::string name) : name_(std::move(name)) {
  MAD_ASSERT(!name_.empty(), "JsonReport needs a bench name");
}

void JsonReport::set_note(std::string note) { note_ = std::move(note); }

void JsonReport::add_table(const ReportTable& table) {
  std::ostringstream os;
  os << "{\"title\":" << quoted(table.title())
     << ",\"row_header\":" << quoted(table.row_header()) << ",\"series\":[";
  for (std::size_t i = 0; i < table.series().size(); ++i) {
    os << (i == 0 ? "" : ",") << quoted(table.series()[i]);
  }
  os << "],\"rows\":[";
  for (std::size_t i = 0; i < table.rows().size(); ++i) {
    const ReportTable::Row& row = table.rows()[i];
    os << (i == 0 ? "" : ",") << "{\"label\":" << quoted(row.label)
       << ",\"values\":[";
    for (std::size_t j = 0; j < row.values.size(); ++j) {
      os << (j == 0 ? "" : ",") << util::json_number(row.values[j]);
    }
    os << "]}";
  }
  os << "]}";
  tables_.push_back(os.str());
}

void JsonReport::add_metrics(const sim::MetricsRegistry& metrics) {
  std::ostringstream os;
  metrics.write_json(os);
  metrics_ = os.str();
}

void JsonReport::add_reliability(const fwd::VirtualChannel& vc) {
  std::ostringstream os;
  os << "{\"nodes\":[";
  bool first = true;
  for (NodeRank rank = 0;
       static_cast<std::size_t>(rank) < vc.domain().node_count(); ++rank) {
    if (!vc.is_member(rank)) {
      continue;
    }
    os << (first ? "" : ",") << "{\"node\":" << rank << ",\"stats\":"
       << reliability_object(vc.gateway_stats(rank).reliability) << "}";
    first = false;
  }
  os << "],\"total\":" << reliability_object(reliability_totals(vc)) << "}";
  reliability_ = os.str();
}

void JsonReport::write(std::ostream& out) const {
  out << "{\"bench\":" << quoted(name_);
  if (!note_.empty()) {
    out << ",\"note\":" << quoted(note_);
  }
  out << ",\"tables\":[";
  for (std::size_t i = 0; i < tables_.size(); ++i) {
    out << (i == 0 ? "" : ",") << tables_[i];
  }
  out << "]";
  if (!metrics_.empty()) {
    out << ",\"metrics\":" << metrics_;
  }
  if (!reliability_.empty()) {
    out << ",\"reliability\":" << reliability_;
  }
  out << "}\n";
}

std::string JsonReport::write_file(const std::string& dir) const {
  const std::string path = dir + "/BENCH_" + name_ + ".json";
  std::ofstream out(path);
  MAD_ASSERT(static_cast<bool>(out), "cannot write " + path);
  write(out);
  std::printf("json report: %s\n", path.c_str());
  return path;
}

}  // namespace mad::harness
