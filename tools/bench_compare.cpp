// Regression gate over committed bench artifacts.
//
// Compares two directories of BENCH_*.json reports (the schema
// harness::JsonReport emits) and fails when a bandwidth series in the
// candidate dropped more than `--threshold` (default 10%) below the
// baseline. Only series whose table title or series name mentions "MB/s"
// are gated — latency-style series have the opposite "better" direction
// and are reported informationally only. Benches are virtual-time
// deterministic, so any drift at all is a code change, and the threshold
// exists purely to separate "retuned a model constant" from "broke the
// pipeline".
//
// Fairness-index series (names mentioning "Jain" or "fairness index") are
// gated on ABSOLUTE drop instead: the index lives in [0, 1] and is
// near-saturated when healthy, so a ratio threshold tuned for bandwidth
// is far too loose there (1.00 -> 0.91 is a 9% ratio drop but a broken
// scheduler). The candidate fails when it falls more than
// `--fairness-drop` (default 0.02) below the baseline.
//
// Latency-percentile series (names mentioning "p99"/"p95"/"p50" or
// "latency ms") are gated on ABSOLUTE RISE: lower is better, and a ratio
// threshold is the wrong shape near zero (2 ms -> 2.4 ms is a 20% ratio
// but harmless; 100 ms -> 109 ms passes a 10% ratio but is a broken
// priority path). The candidate fails when it rises more than
// `--latency-slack` milliseconds (default 10.0) above the baseline.
//
// Cache-hit-rate series (names mentioning "hit rate" or "hit %") are
// gated on ABSOLUTE drop in percentage points: like the fairness index
// they are near-saturated when healthy (a registration cache in the
// nineties), so the bandwidth ratio gate would accept 96% -> 87% — a
// broken pin-down cache — as a mere 9% drift. The candidate fails when
// it falls more than `--hitrate-drop` points (default 2.0) below the
// baseline.
//
// Wall-clock throughput series (names mentioning "events/sec" or
// "per wall") — the engine self-benchmark — are reported with their
// candidate/baseline ratio and never gated: they measure host wall time,
// which varies with the machine and its load, and a gate that fails on a
// healthy host is a bug. They are exempt from the bandwidth ratio gate
// even when their table mentions MB. The bench that produces them gates
// itself on deterministic counts and a same-run calibration ratio.
//
// Usage: bench_compare <baseline_dir> <candidate_dir> [--threshold 0.10]
//        [--fairness-drop 0.02] [--latency-slack 10.0]
//        [--hitrate-drop 2.0]
// Exit status: 0 = no regression, 1 = regression found, 2 = usage/IO error
// (an unknown option included),
// a baseline report missing from the candidate directory, or a malformed
// report (missing/empty/non-numeric fields). Missing or malformed input
// is never silently skipped: a gate that quietly compares nothing would
// pass exactly when the artifacts it guards are broken.
//
// CI runs this against the previous checkout's results/; the ctest target
// self-compares results/ with itself as a schema smoke test.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace fs = std::filesystem;
using mad::util::JsonValue;

namespace {

bool mentions_bandwidth(const std::string& text) {
  return text.find("MB/s") != std::string::npos ||
         text.find("bandwidth") != std::string::npos;
}

bool mentions_fairness(const std::string& text) {
  return text.find("Jain") != std::string::npos ||
         text.find("fairness index") != std::string::npos;
}

bool mentions_latency(const std::string& text) {
  return text.find("p99") != std::string::npos ||
         text.find("p95") != std::string::npos ||
         text.find("p50") != std::string::npos ||
         text.find("latency ms") != std::string::npos;
}

bool mentions_hitrate(const std::string& text) {
  return text.find("hit rate") != std::string::npos ||
         text.find("hit %") != std::string::npos;
}

bool mentions_throughput(const std::string& text) {
  return text.find("events/sec") != std::string::npos ||
         text.find("per wall") != std::string::npos;
}

std::string read_file(const fs::path& path, bool& ok) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ok = false;
    return {};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  ok = true;
  return buf.str();
}

/// Flat view of one report: (table title, row label, series name) -> value.
struct Cell {
  std::string table;
  std::string row;
  std::string series;
  double value = 0.0;
  bool bandwidth = false;
  bool fairness = false;    // gated on absolute drop, not ratio
  bool latency = false;     // gated on absolute rise (lower is better)
  bool hitrate = false;     // gated on absolute drop in percentage points
  bool throughput = false;  // wall-clock rate: reported, never gated
};

/// Flattens one report, validating the schema as it goes: a missing or
/// non-string title/label, a missing series/rows/values array, a
/// series/values length mismatch, or a non-finite (NaN, null, string...)
/// value appends a diagnostic to `errors` instead of being dropped.
std::vector<Cell> flatten(const JsonValue& doc, const std::string& file,
                          std::vector<std::string>& errors) {
  std::vector<Cell> cells;
  const auto complain = [&](const std::string& what) {
    errors.push_back(file + ": " + what);
  };
  const JsonValue* tables = doc.find("tables");
  if (tables == nullptr || !tables->is_array()) {
    complain("no \"tables\" array");
    return cells;
  }
  if (tables->array.empty()) {
    complain("\"tables\" is empty — the report gates nothing");
    return cells;
  }
  for (const JsonValue& table : tables->array) {
    const JsonValue* title = table.find("title");
    const JsonValue* series = table.find("series");
    const JsonValue* rows = table.find("rows");
    if (title == nullptr || !title->is_string() || series == nullptr ||
        !series->is_array() || rows == nullptr || !rows->is_array()) {
      complain("table missing \"title\"/\"series\"/\"rows\"");
      continue;
    }
    const bool table_bw = mentions_bandwidth(title->string);
    if (rows->array.empty()) {
      complain("[" + title->string + "] has no rows");
    }
    for (const JsonValue& row : rows->array) {
      const JsonValue* label = row.find("label");
      const JsonValue* values = row.find("values");
      if (label == nullptr || !label->is_string() || values == nullptr ||
          !values->is_array()) {
        complain("[" + title->string + "] row missing \"label\"/\"values\"");
        continue;
      }
      if (values->array.size() != series->array.size()) {
        complain("[" + title->string + "] @ " + label->string + ": " +
                 std::to_string(values->array.size()) + " values for " +
                 std::to_string(series->array.size()) + " series");
        continue;
      }
      for (std::size_t i = 0; i < series->array.size(); ++i) {
        const JsonValue& name = series->array[i];
        const JsonValue& value = values->array[i];
        if (!name.is_string()) {
          complain("[" + title->string + "] series name " +
                   std::to_string(i) + " is not a string");
          continue;
        }
        if (!value.is_number() || !std::isfinite(value.number)) {
          complain("[" + title->string + "] " + name.string + " @ " +
                   label->string + " is not a finite number");
          continue;
        }
        // Precedence: a fairness, latency or hit-rate series is never
        // treated as bandwidth, even inside a table whose title mentions
        // MB/s — the "better" direction and scale are per series, not
        // per table.
        const bool fairness = mentions_fairness(name.string);
        const bool latency = !fairness && mentions_latency(name.string);
        const bool hitrate =
            !fairness && !latency && mentions_hitrate(name.string);
        const bool throughput = !fairness && !latency && !hitrate &&
                                mentions_throughput(name.string);
        cells.push_back({title->string, label->string, name.string,
                         value.number,
                         !fairness && !latency && !hitrate && !throughput &&
                             (table_bw || mentions_bandwidth(name.string)),
                         fairness, latency, hitrate, throughput});
      }
    }
  }
  return cells;
}

const Cell* find_cell(const std::vector<Cell>& cells, const Cell& key) {
  for (const Cell& c : cells) {
    if (c.table == key.table && c.row == key.row && c.series == key.series) {
      return &c;
    }
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  double threshold = 0.10;
  double fairness_drop = 0.02;
  double latency_slack = 10.0;   // milliseconds
  double hitrate_drop = 2.0;    // percentage points
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool is_threshold = arg == "--threshold";
    const bool is_fairness = arg == "--fairness-drop";
    const bool is_latency = arg == "--latency-slack";
    const bool is_hitrate = arg == "--hitrate-drop";
    if ((is_threshold || is_fairness || is_latency || is_hitrate) &&
        i + 1 < argc) {
      double parsed = std::nan("");
      try {
        parsed = std::stod(argv[++i]);
      } catch (const std::exception&) {
      }
      // Thresholds over ratios/indices live in [0, 1); the latency slack
      // (ms) and hit-rate drop (percentage points) are absolute budgets
      // in the series' own units, so they only have to be finite and
      // non-negative.
      const bool absolute = is_latency || is_hitrate;
      const bool bad = absolute
                           ? (!std::isfinite(parsed) || parsed < 0.0)
                           : (!std::isfinite(parsed) || parsed < 0.0 ||
                              parsed >= 1.0);
      if (bad) {
        std::fprintf(stderr, "bench_compare: %s must be %s\n", arg.c_str(),
                     absolute ? "a finite non-negative number"
                              : "in [0, 1)");
        return 2;
      }
      if (is_threshold) {
        threshold = parsed;
      } else if (is_fairness) {
        fairness_drop = parsed;
      } else if (is_latency) {
        latency_slack = parsed;
      } else {
        hitrate_drop = parsed;
      }
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "bench_compare: unknown option or missing value: %s\n", arg.c_str());
      return 2;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2) {
    std::fprintf(stderr,
                 "usage: bench_compare <baseline_dir> <candidate_dir> "
                 "[--threshold 0.10] [--fairness-drop 0.02] "
                 "[--latency-slack 10.0] [--hitrate-drop 2.0]\n");
    return 2;
  }
  const fs::path base_dir = positional[0];
  const fs::path cand_dir = positional[1];
  if (!fs::is_directory(base_dir) || !fs::is_directory(cand_dir)) {
    std::fprintf(stderr, "bench_compare: both arguments must be directories\n");
    return 2;
  }

  std::vector<fs::path> reports;
  for (const auto& entry : fs::directory_iterator(base_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) == 0 && entry.path().extension() == ".json") {
      reports.push_back(entry.path().filename());
    }
  }
  std::sort(reports.begin(), reports.end());
  if (reports.empty()) {
    std::fprintf(stderr, "bench_compare: no BENCH_*.json in %s\n",
                 base_dir.string().c_str());
    return 2;
  }

  int regressions = 0;
  int compared = 0;
  for (const fs::path& name : reports) {
    const fs::path cand_path = cand_dir / name;
    if (!fs::exists(cand_path)) {
      // A report the candidate no longer produces (renamed binary, glob
      // drift, a bench that crashed before writing) would otherwise thin
      // the gate silently.
      std::fprintf(stderr, "bench_compare: %s is missing from %s\n",
                   name.string().c_str(), cand_dir.string().c_str());
      return 2;
    }
    bool ok_base = false;
    bool ok_cand = false;
    const std::string base_text = read_file(base_dir / name, ok_base);
    const std::string cand_text = read_file(cand_path, ok_cand);
    std::string err;
    bool parsed_base = false;
    bool parsed_cand = false;
    const JsonValue base = mad::util::parse_json(base_text, &err, &parsed_base);
    const JsonValue cand = mad::util::parse_json(cand_text, &err, &parsed_cand);
    if (!ok_base || !ok_cand || !parsed_base || !parsed_cand) {
      std::fprintf(stderr, "bench_compare: cannot parse %s: %s\n",
                   name.string().c_str(), err.c_str());
      return 2;
    }
    std::vector<std::string> errors;
    const std::vector<Cell> base_cells =
        flatten(base, (base_dir / name).string(), errors);
    const std::vector<Cell> cand_cells =
        flatten(cand, cand_path.string(), errors);
    for (const Cell& b : base_cells) {
      if (!b.bandwidth && !b.fairness && !b.latency && !b.hitrate &&
          !b.throughput) {
        continue;
      }
      const Cell* c = find_cell(cand_cells, b);
      if (c == nullptr) {
        errors.push_back(cand_path.string() + ": [" + b.table + "] " +
                         b.series + " @ " + b.row +
                         " missing from candidate");
        continue;
      }
      if (b.fairness) {
        // Absolute-drop gate: the index is already normalized to [0, 1],
        // so the meaningful question is how many index points were lost,
        // not the ratio.
        ++compared;
        const double drop = b.value - c->value;
        if (drop > fairness_drop) {
          std::printf(
              "REGRESSION %s: [%s] %s @ %s: %.4f -> %.4f "
              "(fairness drop %.4f > %.4f)\n",
              name.string().c_str(), b.table.c_str(), b.series.c_str(),
              b.row.c_str(), b.value, c->value, drop, fairness_drop);
          ++regressions;
        }
        continue;
      }
      if (b.latency) {
        // Absolute-rise gate, in the series' own milliseconds: latency
        // regressions matter by how much real delay was added, not by
        // their ratio to an (often tiny) baseline.
        ++compared;
        const double rise = c->value - b.value;
        if (rise > latency_slack) {
          std::printf(
              "REGRESSION %s: [%s] %s @ %s: %.4f -> %.4f "
              "(latency rise %.4f ms > %.4f ms)\n",
              name.string().c_str(), b.table.c_str(), b.series.c_str(),
              b.row.c_str(), b.value, c->value, rise, latency_slack);
          ++regressions;
        }
        continue;
      }
      if (b.hitrate) {
        // Absolute-drop gate in percentage points: a healthy registration
        // cache sits in the nineties, where the bandwidth ratio threshold
        // would shrug off a broken cache as drift.
        ++compared;
        const double drop = b.value - c->value;
        if (drop > hitrate_drop) {
          std::printf(
              "REGRESSION %s: [%s] %s @ %s: %.2f -> %.2f "
              "(hit-rate drop %.2f points > %.2f)\n",
              name.string().c_str(), b.table.c_str(), b.series.c_str(),
              b.row.c_str(), b.value, c->value, drop, hitrate_drop);
          ++regressions;
        }
        continue;
      }
      if (b.value <= 0.0) {
        continue;
      }
      if (b.throughput) {
        // Wall clock: shown for the reader, never a regression.
        std::printf("report %s: [%s] %s @ %s: %.4g -> %.4g (ratio %.2f, "
                    "wall clock, not gated)\n",
                    name.string().c_str(), b.table.c_str(), b.series.c_str(),
                    b.row.c_str(), b.value, c->value, c->value / b.value);
        continue;
      }
      ++compared;
      const double ratio = c->value / b.value;
      if (ratio < 1.0 - threshold) {
        std::printf("REGRESSION %s: [%s] %s @ %s: %.4g -> %.4g (%.1f%%)\n",
                    name.string().c_str(), b.table.c_str(), b.series.c_str(),
                    b.row.c_str(), b.value, c->value, (ratio - 1.0) * 100.0);
        ++regressions;
      }
    }
    if (!errors.empty()) {
      for (const std::string& e : errors) {
        std::fprintf(stderr, "bench_compare: malformed report: %s\n",
                     e.c_str());
      }
      return 2;
    }
  }
  if (compared == 0) {
    std::fprintf(stderr,
                 "bench_compare: no bandwidth, fairness, latency or "
                 "hit-rate cells compared — the gate checked nothing\n");
    return 2;
  }
  std::printf(
      "bench_compare: %d bandwidth/fairness/latency/hit-rate cells "
      "compared, %d regressions (threshold %.0f%%, fairness drop %.2f, "
      "latency slack %.1f ms, hit-rate drop %.1f points)\n",
      compared, regressions, threshold * 100.0, fairness_drop,
      latency_slack, hitrate_drop);
  return regressions > 0 ? 1 : 0;
}
