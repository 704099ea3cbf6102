// Engine self-benchmark — events/sec of wall clock at 100/1k/10k actors.
//
// Every other bench in this directory measures *virtual* time, which is
// deterministic and machine-independent. This one measures the opposite:
// how fast the discrete-event engine itself turns — context switches per
// wall-clock second — because the ROADMAP scenarios (thousands of
// concurrent flows, 3–5-tier topologies under churn) are gated on engine
// throughput, not on model fidelity. An engine regression (an O(n) timer
// peek, a reintroduced wakeup storm) shows up here the way a protocol
// regression shows up in the bandwidth benches.
//
// Two workloads:
//   * token rings: N actors in rings of 50, several tokens in flight per
//     ring, each hop = one mailbox send + one timer (the simulator's two
//     event sources, mixed 50/50). Swept at 100 / 1000 / 10000 actors.
//   * forwarding: the paper's Myrinet -> SCI 8 MB transfer, reported as
//     simulated bytes moved per wall-clock second.
//
// Self-gates (exit 1) hold on any healthy host. Every scenario is run
// twice and must reproduce its context-switch count, timer-fire tally, hop
// count and final virtual clock exactly: wall clock may vary, the
// simulation may not. Speed is gated as a ratio, never as an absolute
// rate: the 1k-actor ring's events/sec over the rate of bare ucontext
// switches measured in the same run (a fixed yardstick of this host's
// speed; the engine's own switch is cheaper). The committed artifact's "events/sec" and "per wall" cells
// are wall clock, so tools/bench_compare reports them without gating;
// "switches" and "virtual ms" cells are deterministic and the
// "virtual MB/s" cell rides the normal bandwidth gate.
#include <ucontext.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness/json_report.hpp"
#include "harness/pingpong.hpp"
#include "harness/report.hpp"
#include "harness/scenario.hpp"
#include "sim/condition.hpp"
#include "sim/engine.hpp"
#include "sim/mailbox.hpp"

namespace {

using mad::sim::Condition;
using mad::sim::Engine;
using mad::sim::Mailbox;
using mad::sim::Time;

double wall_seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct RingRun {
  std::uint64_t switches = 0;     // deterministic
  std::uint64_t timer_fires = 0;  // deterministic
  std::uint64_t hops = 0;         // deterministic token-hop count
  Time virtual_end = 0;           // deterministic
  double wall_s = 0.0;            // machine-dependent
};

constexpr int kRingSize = 50;

/// Least 1k-actor events/sec, as a fraction of bare switches/sec.
constexpr double kMinRelativeRate = 0.05;

/// `actors` daemon actors in rings of kRingSize, `tokens_per_ring` tokens
/// circulating in each. On every hop the holder charges a small
/// deterministic virtual delay — so half the wakeups come from the timer
/// queue, half from mailbox notifies — then passes the token on. Each
/// token retires after `hops_per_token` hops; a non-daemon controller
/// waits for the last retirement and lets shutdown unwind the ring.
RingRun run_rings(int actors, int tokens_per_ring, int hops_per_token) {
  Engine eng;
  const int rings = actors / kRingSize;
  const int total_tokens = rings * tokens_per_ring;
  std::vector<std::unique_ptr<Mailbox<int>>> boxes;
  boxes.reserve(static_cast<std::size_t>(actors));
  for (int i = 0; i < actors; ++i) {
    boxes.push_back(
        std::make_unique<Mailbox<int>>(eng, 0, "box" + std::to_string(i)));
  }
  RingRun out;
  int retired = 0;
  Condition all_retired(eng, "all_retired");
  for (int r = 0; r < rings; ++r) {
    for (int i = 0; i < kRingSize; ++i) {
      const int self = r * kRingSize + i;
      const int next = r * kRingSize + (i + 1) % kRingSize;
      Mailbox<int>& in = *boxes[static_cast<std::size_t>(self)];
      Mailbox<int>& to = *boxes[static_cast<std::size_t>(next)];
      eng.spawn(
          "actor" + std::to_string(self),
          [&in, &to, &eng, &out, &retired, &all_retired, self] {
            for (;;) {
              // Reliable-receive idiom from the forwarding layer: every
              // receive is guarded by a retransmission timeout, armed on
              // entry and cancelled when the paquet arrives. The 5 ms RTO
              // never fires here (hops take nanoseconds of virtual time) —
              // the point is the arm+cancel pair the timer queue pays per
              // hop, which is its dominant real-world duty cycle.
              std::optional<int> token;
              while (!(token = in.recv_until(
                           eng.now() + mad::sim::milliseconds(5)))) {
              }
              const int hops_left = *token;
              // Deterministic per-hop service time, varied per actor so
              // the timer wheel sees scattered deadlines, not one bucket.
              eng.sleep_for(mad::sim::nanoseconds(200 + (self % 97) * 13));
              ++out.hops;
              if (hops_left <= 1) {
                ++retired;
                all_retired.notify_one();
              } else {
                to.send(hops_left - 1);
              }
            }
          },
          /*daemon=*/true);
    }
  }
  eng.spawn("controller", [&] {
    while (retired < total_tokens) {
      all_retired.wait();
    }
  });
  for (int r = 0; r < rings; ++r) {
    for (int t = 0; t < tokens_per_ring; ++t) {
      // Stagger token origins so rings are not in lockstep.
      boxes[static_cast<std::size_t>(r * kRingSize + t * 5)]->send(
          hops_per_token);
    }
  }
  const auto start = std::chrono::steady_clock::now();
  eng.run();
  out.wall_s = wall_seconds_since(start);
  out.switches = eng.context_switches();
  out.timer_fires = eng.stats().timer_fires;
  out.virtual_end = eng.now();
  return out;
}

ucontext_t g_calibration_main;
ucontext_t g_calibration_peer;

void calibration_peer() {
  for (;;) {
    swapcontext(&g_calibration_peer, &g_calibration_main);
  }
}

/// Bare ucontext switches per second between two contexts that do nothing
/// else: the host's floor for a fiber switch. Best of three.
double bare_switches_per_sec() {
  constexpr int kRoundTrips = 100000;
  std::vector<char> stack(64 * 1024);
  getcontext(&g_calibration_peer);
  g_calibration_peer.uc_stack.ss_sp = stack.data();
  g_calibration_peer.uc_stack.ss_size = stack.size();
  g_calibration_peer.uc_link = nullptr;
  makecontext(&g_calibration_peer, &calibration_peer, 0);
  double best = 0.0;
  for (int attempt = 0; attempt < 3; ++attempt) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kRoundTrips; ++i) {
      swapcontext(&g_calibration_main, &g_calibration_peer);
    }
    const double rate = 2.0 * kRoundTrips / wall_seconds_since(start);
    best = rate > best ? rate : best;
  }
  return best;
}

}  // namespace

int main() {
  using namespace mad;

  harness::ReportTable ring_table(
      "Engine self-benchmark: token rings (events/sec of wall clock)",
      "actors",
      {"events/sec", "switches", "timer fires", "virtual ms", "wall ms"});

  bool ok = true;
  struct Sweep {
    int actors;
    int tokens_per_ring;
    int hops_per_token;
  };
  // Budgets sized so every row does >= ~30k context switches (enough to
  // swamp actor spawn and stack mapping in the rate) while the whole bench
  // stays about two seconds of wall clock.
  const std::vector<Sweep> sweeps = {
      {100, 8, 1000},
      {1000, 8, 500},
      {10000, 4, 100},
  };
  double events_per_sec_at_1k = 0.0;
  std::uint64_t switches_at_1k = 0;
  for (const Sweep& s : sweeps) {
    const RingRun a = run_rings(s.actors, s.tokens_per_ring, s.hops_per_token);
    const RingRun b = run_rings(s.actors, s.tokens_per_ring, s.hops_per_token);
    if (a.switches != b.switches || a.virtual_end != b.virtual_end ||
        a.hops != b.hops || a.timer_fires != b.timer_fires) {
      std::fprintf(stderr,
                   "FAIL: %d-actor ring not deterministic: switches %llu vs "
                   "%llu, hops %llu vs %llu, t %lld vs %lld\n",
                   s.actors, static_cast<unsigned long long>(a.switches),
                   static_cast<unsigned long long>(b.switches),
                   static_cast<unsigned long long>(a.hops),
                   static_cast<unsigned long long>(b.hops),
                   static_cast<long long>(a.virtual_end),
                   static_cast<long long>(b.virtual_end));
      ok = false;
    }
    // Rate over the faster of the two runs: the second run usually wins
    // (warm allocator), and the gate cares about capability, not variance.
    const double wall = a.wall_s < b.wall_s ? a.wall_s : b.wall_s;
    const double rate = static_cast<double>(a.switches) / wall;
    if (s.actors == 1000) {
      events_per_sec_at_1k = rate;
      switches_at_1k = a.switches;
    }
    ring_table.add_row(
        std::to_string(s.actors),
        {rate, static_cast<double>(a.switches),
         static_cast<double>(a.timer_fires),
         sim::to_microseconds(a.virtual_end) / 1000.0, wall * 1000.0});
    std::printf(
        "rings %5d actors: %.0f events/sec (%llu switches, %.0f ms wall)\n",
        s.actors, rate, static_cast<unsigned long long>(a.switches),
        wall * 1000.0);
  }

  // Forwarding workload: how many simulated bytes the full stack moves per
  // wall-clock second. This is the number the ROADMAP cares about — it
  // folds in paquet allocation, trace plumbing and mailbox signalling,
  // not just raw context-switch latency.
  harness::ReportTable fwd_table(
      "Engine self-benchmark: Myrinet -> SCI forwarding of wall clock",
      "message", {"sim MB per wall s", "virtual MB/s"});
  double fwd_rows[2][2] = {};
  for (int attempt = 0; attempt < 2; ++attempt) {
    harness::PaperWorld world;
    const std::size_t bytes = 8 * 1024 * 1024;
    const auto start = std::chrono::steady_clock::now();
    const harness::PingResult r = harness::measure_vc_oneway(
        world.engine, *world.vc, world.myri_node(), world.sci_node(), bytes,
        /*repeats=*/8, /*warmup=*/1);
    const double wall = wall_seconds_since(start);
    // 9 transfers (8 measured + 1 warmup) of 8 MB, in decimal MB as the
    // paper reports.
    const double sim_mb = 9.0 * static_cast<double>(bytes) / 1e6;
    fwd_rows[attempt][0] = sim_mb / wall;
    fwd_rows[attempt][1] = r.mbps;
  }
  if (fwd_rows[0][1] != fwd_rows[1][1]) {
    std::fprintf(stderr,
                 "FAIL: forwarding run not deterministic: %.4f vs %.4f "
                 "virtual MB/s\n",
                 fwd_rows[0][1], fwd_rows[1][1]);
    ok = false;
  }
  const int faster = fwd_rows[0][0] > fwd_rows[1][0] ? 0 : 1;
  fwd_table.add_row("8 MB x 9", {fwd_rows[faster][0], fwd_rows[faster][1]});
  std::printf("forwarding: %.1f sim MB per wall s (virtual %.1f MB/s)\n",
              fwd_rows[faster][0], fwd_rows[faster][1]);

  ring_table.print();
  fwd_table.print();

  // Speed gate, relative to this host. A ring hop is a mailbox send, a
  // timer arm and cancel and a switch. The engine's register-only switch
  // is an order of magnitude cheaper than swapcontext, so the fiber
  // engine runs the 1k-actor ring at about 1.2x the bare swapcontext rate
  // (0.8-1.7 over ten runs, 4-core x86-64 VM); on swapcontext it ran at
  // 0.35-0.5. Engines with an OS thread per actor ran it at about 0.02;
  // those, or an O(n) scheduler scan, fall under the floor.
  const double bare_rate = bare_switches_per_sec();
  const double relative_1k = events_per_sec_at_1k / bare_rate;
  std::printf("calibration: %.0f bare switches/sec; 1k-actor ring at %.3f "
              "of that\n",
              bare_rate, relative_1k);
  if (relative_1k < kMinRelativeRate) {
    std::fprintf(stderr,
                 "FAIL: 1k-actor ring ran at %.3f of the bare switch rate "
                 "(< %.3f)\n",
                 relative_1k, kMinRelativeRate);
    ok = false;
  }
  if (switches_at_1k == 0) {
    std::fprintf(stderr, "FAIL: 1k-actor ring did no work\n");
    ok = false;
  }

  harness::JsonReport json("ext_engine");
  json.set_note(
      "engine throughput self-benchmark; events/sec and per-wall cells are "
      "wall clock and reported, not gated; switches and virtual-time cells "
      "are deterministic");
  json.add_table(ring_table);
  json.add_table(fwd_table);
  json.write_file();

  if (!ok) {
    std::fprintf(stderr, "bench_ext_engine: FAILED\n");
    return 1;
  }
  std::printf("bench_ext_engine: OK\n");
  return 0;
}
