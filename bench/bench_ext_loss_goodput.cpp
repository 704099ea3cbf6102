// Extension — reliable GTM goodput under paquet loss.
//
// The paper assumes perfect links (§4 leaves fault handling as future
// work). With the reliable mode on at its default window of one paquet,
// this bench sweeps the drop rate of the SCI hop from 0 to 5% and reports
// the goodput of a 4 MB forwarded Myrinet → SCI message, plus the
// retransmit/timeout work of the recovery. The gateway cuts through, so
// the loss-free row runs at the unreliable relay's rate. Expected shape:
// goodput degrades gracefully — a one-paquet window has no later paquet
// to sack, so each lost paquet costs one retransmit timeout (at least the
// 5 ms ack_timeout) plus one resend, and a few percent loss already
// dominates the transfer time.
#include <cstdio>
#include <string>
#include <vector>

#include "harness/json_report.hpp"
#include "harness/pingpong.hpp"
#include "harness/report.hpp"
#include "harness/scenario.hpp"
#include "net/fault.hpp"

int main() {
  using namespace mad;
  const std::size_t message = 4 * 1024 * 1024;
  const std::vector<double> drop_rates = {0.0, 0.005, 0.01, 0.02, 0.05};
  harness::ReportTable table(
      "Ext: reliable forwarding goodput vs drop rate (4 MB, Myrinet -> SCI)",
      "drop %", {"goodput MB/s", "retransmits", "timeouts"});
  harness::JsonReport json("ext_loss_goodput");

  for (const double drop : drop_rates) {
    fwd::VcOptions options;
    options.paquet_size = 64 * 1024;
    options.reliable.enabled = true;
    harness::PaperWorld world(options);
    net::FaultPlan plan;
    plan.seed = 7;
    plan.drop_rate = drop;
    world.sci->set_fault_plan(plan);
    const auto result = harness::measure_vc_oneway(
        world.engine, *world.vc, world.myri_node(), world.sci_node(),
        message);
    fwd::ReliabilityStats total;
    for (NodeRank rank = 0;
         static_cast<std::size_t>(rank) < world.domain->node_count();
         ++rank) {
      const fwd::ReliabilityStats& r =
          world.vc->gateway_stats(rank).reliability;
      total.retransmits += r.retransmits;
      total.timeouts += r.timeouts;
    }
    char label[32];
    std::snprintf(label, sizeof(label), "%.1f", drop * 100.0);
    table.add_row(label, {result.mbps, static_cast<double>(total.retransmits),
                          static_cast<double>(total.timeouts)});
    if (drop == drop_rates.back()) {
      harness::print_reliability(*world.vc);
      json.add_reliability(*world.vc);
    }
  }
  table.print();
  std::printf(
      "\nthe gateway cuts through at window 1; each dropped paquet costs "
      "one retransmit timeout (at least 5 ms) + resend, so goodput falls "
      "steeply with loss while payloads stay intact\n");
  json.set_note(
      "the gateway cuts through at window 1; each dropped paquet costs one "
      "retransmit timeout (at least 5 ms) + resend, so goodput falls "
      "steeply with loss while payloads stay intact");
  json.add_table(table);
  json.write_file();

  return 0;
}
