// Figure 5 — "The paquet-forwarding pipeline on the gateway node."
//
// The ideal schedule: while buffer 1 is being retransmitted, buffer 2
// receives the next paquet; the pipeline period is
// max(recv step, send step) + software switch overhead. This bench traces
// the actual gateway steps in the well-behaved SCI→Myrinet direction and
// prints the per-paquet schedule plus the overlap ratio (sum of step
// durations ÷ wall time — ≈2 means full double-buffer overlap).
#include <algorithm>
#include <cstdio>

#include "harness/json_report.hpp"
#include "harness/pingpong.hpp"
#include "harness/report.hpp"
#include "harness/scenario.hpp"
#include "sim/trace.hpp"

int main() {
  using namespace mad;
  sim::TraceSink trace;
  trace.enable();
  fwd::VcOptions options;
  options.paquet_size = 32 * 1024;
  options.trace = &trace;
  harness::PaperWorld world(options);
  world.fabric->metrics().enable();
  const std::size_t message = 512 * 1024;  // 16 paquets
  const auto result = harness::measure_vc_oneway(
      world.engine, *world.vc, world.sci_node(), world.myri_node(), message,
      /*repeats=*/1, /*warmup=*/0);

  const auto recvs = trace.by_name("gw.recv");
  const auto sends = trace.by_name("gw.send");
  const auto switches = trace.by_name("gw.switch");

  std::printf("=== Fig 5: gateway pipeline trace (SCI->Myrinet, 512 KB "
              "message, 32 KB paquets) ===\n");
  std::printf("%-8s %14s %14s %14s %14s\n", "paquet", "recv begin us",
              "recv us", "send begin us", "send us");
  const std::size_t n = std::min(recvs.size(), sends.size());
  for (std::size_t i = 0; i < n; ++i) {
    std::printf("%-8zu %14.1f %14.1f %14.1f %14.1f\n", i,
                sim::to_microseconds(recvs[i].begin),
                sim::to_microseconds(recvs[i].duration()),
                sim::to_microseconds(sends[i].begin),
                sim::to_microseconds(sends[i].duration()));
  }

  sim::Time busy = 0;
  sim::Time first = INT64_MAX;
  sim::Time last = 0;
  for (const auto* set : {&recvs, &sends, &switches}) {
    for (const auto& span : *set) {
      busy += span.duration();
      first = std::min(first, span.begin);
      last = std::max(last, span.end);
    }
  }
  const double overlap =
      sim::to_seconds(busy) / sim::to_seconds(last - first);
  std::printf("\noverlap ratio (busy time / wall time): %.2f "
              "(1.0 = store-and-forward, ~2.0 = ideal double buffering)\n",
              overlap);
  std::printf("message one-way: %.1f us, %.1f MB/s\n",
              sim::to_microseconds(result.one_way), result.mbps);

  // Verify the pipeline actually overlaps: recv of paquet k+1 must start
  // before send of paquet k finishes.
  int overlapping = 0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (recvs[i + 1].begin < sends[i].end) {
      ++overlapping;
    }
  }
  std::printf("paquets whose receive overlapped the previous send: %d/%zu\n",
              overlapping, n - 1);
  harness::ReportTable schedule(
      "Fig 5: gateway pipeline schedule (SCI->Myrinet, 512 KB, 32 KB "
      "paquets, us)",
      "paquet", {"recv begin", "recv", "send begin", "send"});
  for (std::size_t i = 0; i < n; ++i) {
    schedule.add_row(std::to_string(i),
                     {sim::to_microseconds(recvs[i].begin),
                      sim::to_microseconds(recvs[i].duration()),
                      sim::to_microseconds(sends[i].begin),
                      sim::to_microseconds(sends[i].duration())});
  }
  harness::JsonReport json("fig5_pipeline_trace");
  json.set_note("overlap ratio (busy/wall) " + std::to_string(overlap) +
                "; ~2.0 = ideal double buffering");
  json.add_table(schedule);
  json.add_metrics(world.fabric->metrics());
  json.write_file();

  return 0;
}
