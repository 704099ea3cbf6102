// Figure 8 / §3.4.1 — "PCI bus conflicts and software overhead may
// strongly decrease the performance of the pipeline."
//
// The paper instrumented the Myrinet receive and SCI send with rdtsc and
// found that, during a (Myrinet) DMA receive, the concurrent (SCI) PIO
// send was slowed down by a factor of two: "for 16 KB paquets the sending
// operation lasts 400 µs instead of 270 µs".
//
// This bench reproduces the measurement on the virtual clock: it traces
// gateway send steps in the Myrinet→SCI direction and compares them with
// (a) the same steps in the conflict-free SCI→Myrinet direction and
// (b) a raw uncontended SCI PIO transfer of one paquet.
#include <cstdio>

#include "harness/json_report.hpp"
#include "harness/pingpong.hpp"
#include "harness/report.hpp"
#include "harness/scenario.hpp"
#include "sim/trace.hpp"
#include "util/stats.hpp"

namespace {

/// Mean gateway send-step duration (µs) for one forwarded 512 KB message.
double mean_send_step_us(bool myri_to_sci, std::uint32_t paquet) {
  using namespace mad;
  sim::TraceSink trace;
  trace.enable();
  fwd::VcOptions options;
  options.paquet_size = paquet;
  options.trace = &trace;
  harness::PaperWorld world(options);
  const NodeRank src =
      myri_to_sci ? world.myri_node() : world.sci_node();
  const NodeRank dst =
      myri_to_sci ? world.sci_node() : world.myri_node();
  (void)harness::measure_vc_oneway(world.engine, *world.vc, src, dst,
                                   512 * 1024, 1, 0);
  util::RunningStats stats;
  for (const auto& span : trace.by_name("gw.send")) {
    stats.add(sim::to_microseconds(span.duration()));
  }
  return stats.mean();
}

/// Uncontended PIO transfer of one paquet across a gateway-class bus.
double uncontended_pio_us(std::uint32_t paquet) {
  using namespace mad;
  sim::Engine engine;
  net::PciBus bus(engine, net::pci_33mhz_32bit(), "pci");
  sim::Time duration = 0;
  engine.spawn("pio", [&] {
    duration = bus.transfer(net::PciOp::Pio, paquet);
  });
  engine.run();
  return sim::to_microseconds(duration);
}

}  // namespace

int main() {
  mad::harness::ReportTable table(
      "Fig 8: the gateway send step under PCI conflicts (us)", "paquet",
      {"send step M->S", "send step S->M", "raw PIO alone"});
  std::printf("=== Fig 8: the gateway send step under PCI conflicts ===\n");
  std::printf("%-10s %22s %22s %20s\n", "paquet", "send step M->S (us)",
              "send step S->M (us)", "raw PIO alone (us)");
  for (const std::uint32_t paquet : {8192u, 16384u, 32768u, 65536u}) {
    const double conflicted = mean_send_step_us(/*myri_to_sci=*/true, paquet);
    const double clean = mean_send_step_us(/*myri_to_sci=*/false, paquet);
    const double raw = uncontended_pio_us(paquet);
    std::printf("%-10s %22.1f %22.1f %20.1f\n",
                mad::harness::size_label(paquet).c_str(), conflicted, clean,
                raw);
    table.add_row(mad::harness::size_label(paquet),
                  {conflicted, clean, raw});
  }
  std::printf(
      "\npaper (16 KB): send lasts ~400 us instead of ~270 us because "
      "Myrinet DMA PCI transactions have priority over the CPU's PIO "
      "transactions; our bus model halves PIO while any DMA flow is "
      "active.\n");
  mad::harness::JsonReport json("fig8_pci_conflict");
  json.set_note(
      "paper (16 KB): send lasts ~400 us instead of ~270 us; Myrinet DMA "
      "PCI transactions have priority over the CPU's PIO transactions");
  json.add_table(table);
  json.write_file();

  return 0;
}
