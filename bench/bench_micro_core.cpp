// Microbenchmarks (google-benchmark) — real-time cost of the simulation
// substrate and library hot paths. These measure the HOST cost of running
// the reproduction (how much wall time a simulated experiment takes), not
// virtual-time results; the figure benches report those.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstring>
#include <vector>

#include "fwd/generic_tm.hpp"
#include "harness/pingpong.hpp"
#include "harness/scenario.hpp"
#include "mad/madeleine.hpp"
#include "sim/fiber.hpp"
#include "sim/mailbox.hpp"
#include "sim/timer_queue.hpp"
#include "util/rng.hpp"

namespace {

using namespace mad;

void BM_EngineContextSwitches(benchmark::State& state) {
  const int switches = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    engine.spawn("a", [&engine, switches] {
      for (int i = 0; i < switches; ++i) {
        engine.yield();
      }
    });
    engine.spawn("b", [&engine, switches] {
      for (int i = 0; i < switches; ++i) {
        engine.yield();
      }
    });
    engine.run();
    benchmark::DoNotOptimize(engine.context_switches());
  }
  state.SetItemsProcessed(state.iterations() * switches * 2);
}
BENCHMARK(BM_EngineContextSwitches)->Arg(256)->Arg(1024);

sim::FiberContext g_switch_main;
sim::FiberContext g_switch_peer;

void switch_back_forever() {
  for (;;) {
    sim::fiber_switch(g_switch_peer, g_switch_main);
  }
}

// One round trip between two bare fibers: the floor under every engine
// switch, without the scheduler.
void BM_FiberSwitch(benchmark::State& state) {
  std::vector<std::byte> stack(64 * 1024);
  sim::fiber_init(g_switch_peer, stack.data(), stack.size(),
                  &switch_back_forever);
  for (auto _ : state) {
    sim::fiber_switch(g_switch_main, g_switch_peer);
  }
  state.SetItemsProcessed(state.iterations() * 2);  // switches
}
BENCHMARK(BM_FiberSwitch);

// The engine's timer duty cycle at a given number of live timers: each
// step cancels one receiver's RTO (its paquet arrived) and re-arms it, and
// every eighth step one timer fires and is re-armed. fwdbench peaks at 4
// live timers on paper_fwd, about 200 on reliable_fwd and about 2 000 on
// flow_mix (seed 1).
void BM_TimerQueueRtoCycle(benchmark::State& state) {
  const int live = static_cast<int>(state.range(0));
  util::Rng rng(7);
  std::vector<sim::Time> jitter(4096);
  for (sim::Time& j : jitter) {
    j = static_cast<sim::Time>(rng.next_u64() % sim::microseconds(500));
  }
  const sim::Time rto = sim::milliseconds(5);
  sim::TimerQueue timers;
  sim::Time now = 0;
  std::size_t step = 0;
  const auto deadline = [&] {
    return now + rto + jitter[step % jitter.size()];
  };
  for (int id = 0; id < live; ++id, ++step) {
    timers.arm(deadline(), id);
  }
  for (auto _ : state) {
    const int id = static_cast<int>(step % static_cast<std::size_t>(live));
    timers.cancel(id);
    timers.arm(deadline(), id);
    if (++step % 8 == 0) {
      const sim::TimerQueue::Entry fired = timers.pop_min();
      now = fired.deadline;
      timers.arm(deadline(), fired.id);
    }
  }
  benchmark::DoNotOptimize(now);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimerQueueRtoCycle)->Arg(4)->Arg(200)->Arg(2000);

void BM_MailboxThroughput(benchmark::State& state) {
  const int items = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    sim::Mailbox<int> box(engine, 8);
    engine.spawn("producer", [&box, items] {
      for (int i = 0; i < items; ++i) {
        box.send(i);
      }
    });
    engine.spawn("consumer", [&box, items] {
      for (int i = 0; i < items; ++i) {
        benchmark::DoNotOptimize(box.recv());
      }
    });
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * items);
}
BENCHMARK(BM_MailboxThroughput)->Arg(1024);

void BM_PciBusContendedTransfers(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    net::PciBus bus(engine, net::pci_33mhz_32bit(), "pci");
    for (int a = 0; a < 4; ++a) {
      engine.spawn("flow" + std::to_string(a), [&bus, a] {
        for (int i = 0; i < 64; ++i) {
          bus.transfer(a % 2 == 0 ? net::PciOp::Dma : net::PciOp::Pio,
                       32 * 1024);
        }
      });
    }
    engine.run();
    benchmark::DoNotOptimize(bus.bytes_transferred());
  }
  state.SetItemsProcessed(state.iterations() * 4 * 64);
}
BENCHMARK(BM_PciBusContendedTransfers);

// The reliable-paquet trailer checksum, run once per paquet at every
// sending and verifying endpoint of each hop.
void BM_PaquetChecksum(benchmark::State& state) {
  const std::vector<std::byte> payload =
      util::Rng(1).bytes(static_cast<std::size_t>(state.range(0)));
  std::uint32_t seq = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fwd::gtm_paquet_checksum(payload, ++seq, 1));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PaquetChecksum)
    ->Arg(8 * 1024)
    ->Arg(64 * 1024)
    ->Arg(128 * 1024);

// The same loop storing every word it loads: the reliable sender's pass
// into its wire buffer and the receiver's verifying pass into the
// destination. Compare with BM_PaquetChecksum plus a memcpy.
void BM_PaquetCopyChecksum(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  const std::vector<std::byte> payload = util::Rng(1).bytes(size);
  std::vector<std::byte> dst(size);
  std::uint32_t seq = 0;
  benchmark::DoNotOptimize(dst.data());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fwd::gtm_copy_checksum(dst, payload, ++seq, 1));
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PaquetCopyChecksum)
    ->Arg(8 * 1024)
    ->Arg(64 * 1024)
    ->Arg(128 * 1024);

// A reliable gateway's egress fill of a stored fragment: a memcpy into the
// wire buffer plus a trailer sealed from the digest its ingress
// verification computed (Arg 1), against the fused copy-and-checksum pass
// it would otherwise run (Arg 0). Report only.
void BM_GatewayEgressFill(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  const bool sealed = state.range(1) != 0;
  const std::vector<std::byte> payload = util::Rng(1).bytes(size);
  const std::uint64_t digest = fwd::gtm_digest(payload);
  std::vector<std::byte> wire(size);
  std::uint32_t seq = 0;
  benchmark::DoNotOptimize(wire.data());
  for (auto _ : state) {
    if (sealed) {
      std::memcpy(wire.data(), payload.data(), size);
      benchmark::DoNotOptimize(fwd::gtm_seal(digest, ++seq, 1));
    } else {
      benchmark::DoNotOptimize(
          fwd::gtm_copy_checksum(wire, payload, ++seq, 1));
    }
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GatewayEgressFill)
    ->ArgNames({"bytes", "sealed"})
    ->ArgsProduct({{8 * 1024, 128 * 1024}, {0, 1}});

void BM_NativeMessage(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    net::Fabric fabric(engine);
    net::Network& network = fabric.add_network("n", net::bip_myrinet());
    net::Host& a = fabric.add_host("a");
    a.add_nic(network);
    net::Host& b = fabric.add_host("b");
    b.add_nic(network);
    Domain domain(fabric);
    domain.add_node(a);
    domain.add_node(b);
    const ChannelId ch = domain.create_channel("main", network);
    benchmark::DoNotOptimize(harness::measure_native_oneway(
        engine, domain.endpoint(ch, 0), domain.endpoint(ch, 1), 0, 1, bytes,
        1, 0));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * bytes));
}
BENCHMARK(BM_NativeMessage)->Arg(64)->Arg(64 * 1024);

void BM_ForwardedMessage(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    fwd::VcOptions options;
    options.paquet_size = 32 * 1024;
    harness::PaperWorld world(options);
    benchmark::DoNotOptimize(harness::measure_vc_oneway(
        world.engine, *world.vc, world.sci_node(), world.myri_node(), bytes,
        1, 0));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * bytes));
}
BENCHMARK(BM_ForwardedMessage)->Arg(32 * 1024)->Arg(1024 * 1024);

}  // namespace

BENCHMARK_MAIN();
