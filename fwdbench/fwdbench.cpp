// One leg of the forwarding benchmark (see README.md in this directory).
//
//   fwdbench --workload paper_fwd|reliable_fwd|flow_mix --seed N --leg K
//            [--scale full|tiny] [--trace-dir DIR]
//
// A workload is one or more legs, each a fresh world. This program builds
// leg K's world, runs it, byte-checks every delivered message and prints
// one JSON object of raw measurements on stdout. With --trace-dir it also
// attaches a trace sink to the engine and the fabric, enables the fabric's
// metrics registry and writes Chrome JSON traces into DIR. run.py runs the
// legs, repeats them, checks them against each other and reduces them to
// the benchmark's metrics. Only the library's public API is used.
//
// Each leg runs in its own process, so that no leg starts from a heap that
// another world left behind. Actor threads that exit free memory while the
// next actor runs, so that heap differs from run to run, and state keyed by
// buffer address (the one-sided pin-down cache) then makes virtual-time
// results differ too.
#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fwd/virtual_channel.hpp"
#include "mad/madeleine.hpp"
#include "net/fabric.hpp"
#include "sim/condition.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace mad;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kKiB = 1024;
constexpr std::size_t kMiB = 1024 * kKiB;
// Bounds each leg's trace to its newest events; an untruncated trace of a
// full pass would hold millions of actor and packet events.
constexpr std::size_t kTraceCapacity = 100'000;
// Building a world takes about a millisecond, so each leg builds it this
// many times (running only the last) and counts the median build.
constexpr int kSetupBuilds = 5;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct CpuTime {
  double user = 0.0;
  double sys = 0.0;
};

CpuTime cpu_time() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {s(ru.ru_utime), s(ru.ru_stime)};
}

/// CPU time of the whole process (every actor thread), in seconds.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---------------------------------------------------------------------------
// Workload description

/// Message counts of a workload; `tiny` is the smoke-test size.
struct Scale {
  int small_per_leg;    // acked 4 KB pings per paper leg
  int bulk_per_leg;     // acked 4 MB messages per paper leg
  int bulk_per_origin;  // back-to-back 1 MB messages per flow_mix bulk origin
  int control_msgs;     // open-loop 4 KB flow_mix control messages
};
constexpr Scale kFullScale{250, 6, 12, 1000};
constexpr Scale kTinyScale{12, 1, 2, 40};

struct Message {
  std::size_t offset = 0;  // slice of the seeded payload pool
  std::size_t size = 0;
  bool small = false;      // latency-class message (4 KB ping or control)
  sim::Time due = -1;      // open loop: scheduled send time; -1 = closed loop
};

struct Flow {
  int src_index = 0;  // origin endpoint, on the leg's source network
  int dst_index = 0;  // sink endpoint, on the other network
  /// Closed loop: each message is sent only after the previous one was
  /// delivered (the paper's acked ping). Otherwise messages go back to back
  /// (or on their due times when they have one).
  bool acked = false;
  std::vector<Message> messages;
};

struct Leg {
  std::string name;
  bool sci_to_myri = true;  // origins on SCI, sinks on Myrinet
  int endpoints = 1;        // endpoints per cluster
  fwd::VcOptions options;
  double ingress_drop_rate = 0.0;  // seeded drops on the origins' network
  std::vector<Flow> flows;
};

/// Message sizes are drawn within 1/8 of their nominal size, so the seed
/// reaches the virtual-time results of every workload, not only the lossy
/// ones.
std::size_t jittered(util::Rng& rng, std::size_t nominal) {
  return nominal - nominal / 8 + 8 * rng.next_below(nominal / 32 + 1);
}

Message make_message(util::Rng& rng, std::size_t pool_size,
                     std::size_t nominal, bool small) {
  Message m;
  m.size = jittered(rng, nominal);
  m.offset = 8 * rng.next_below((pool_size - m.size) / 8 + 1);
  m.small = small;
  return m;
}

fwd::VcOptions reliable_options() {
  fwd::VcOptions options;
  options.reliable.enabled = true;
  options.reliable.window = 16;
  options.reliable.adaptive = true;
  options.flow.enabled = true;
  return options;
}

/// paper_fwd / reliable_fwd: both directions at 8 KB and 128 KB paquets,
/// one acked client per leg sending 4 KB pings, then 4 MB messages.
std::vector<Leg> relay_legs(bool reliable, const Scale& scale,
                            util::Rng& rng, std::size_t pool_size) {
  std::vector<Leg> legs;
  for (const bool sci_to_myri : {true, false}) {
    for (const std::uint32_t paquet : {8 * kKiB, 128 * kKiB}) {
      Leg leg;
      leg.name = std::string(sci_to_myri ? "sci-myri-" : "myri-sci-") +
                 std::to_string(paquet / kKiB) + "K";
      leg.sci_to_myri = sci_to_myri;
      if (reliable) {
        leg.options = reliable_options();
        leg.ingress_drop_rate = 0.005;
      }
      leg.options.paquet_size = paquet;
      Flow flow;
      flow.acked = true;
      for (int i = 0; i < scale.small_per_leg; ++i) {
        flow.messages.push_back(make_message(rng, pool_size, 4 * kKiB, true));
      }
      for (int i = 0; i < scale.bulk_per_leg; ++i) {
        flow.messages.push_back(
            make_message(rng, pool_size, 4 * kMiB, false));
      }
      leg.flows.push_back(std::move(flow));
      legs.push_back(std::move(leg));
    }
  }
  return legs;
}

/// flow_mix: 8 bulk SCI origins and one control origin, each with its own
/// Myrinet sink, through the one gateway.
std::vector<Leg> flow_mix_legs(const Scale& scale, util::Rng& rng,
                               std::size_t pool_size) {
  constexpr int kBulkOrigins = 8;
  constexpr sim::Time kControlPeriod = sim::microseconds(1500);
  Leg leg;
  leg.name = "flow-mix";
  leg.sci_to_myri = true;
  leg.endpoints = kBulkOrigins + 1;
  leg.options = reliable_options();
  leg.options.flow.admission.enabled = true;
  // Nine streams queue at the gateway's SCI ingress and stretch hop round
  // trips far past the 5 ms default ack deadline, which then fires about a
  // thousand spurious retransmit timeouts per pass.
  leg.options.reliable.ack_timeout = sim::milliseconds(50);
  // Ranks: Myrinet endpoints, the gateway, then the SCI origins; the last
  // SCI origin is the control one.
  const int control_rank = leg.endpoints + 1 + kBulkOrigins;
  leg.options.flow.classes.assign(static_cast<std::size_t>(control_rank),
                                  fwd::TrafficClass::Bulk);
  leg.options.flow.classes.push_back(fwd::TrafficClass::Control);
  leg.ingress_drop_rate = 0.005;
  for (int f = 0; f < kBulkOrigins; ++f) {
    Flow flow;
    flow.src_index = f;
    flow.dst_index = f;
    for (int i = 0; i < scale.bulk_per_origin; ++i) {
      flow.messages.push_back(make_message(rng, pool_size, 1 * kMiB, false));
    }
    leg.flows.push_back(std::move(flow));
  }
  Flow control;
  control.src_index = kBulkOrigins;
  control.dst_index = kBulkOrigins;
  for (int i = 0; i < scale.control_msgs; ++i) {
    Message m = make_message(rng, pool_size, 4 * kKiB, true);
    m.due = kControlPeriod * i;
    control.messages.push_back(m);
  }
  leg.flows.push_back(std::move(control));
  return {std::move(leg)};
}

// ---------------------------------------------------------------------------
// World

struct SetupTimes {
  double net_s = 0.0;
  double mad_s = 0.0;
  double fwd_s = 0.0;
};

double median_of(const std::vector<SetupTimes>& builds,
                 double SetupTimes::*field) {
  std::vector<double> values;
  for (const SetupTimes& b : builds) {
    values.push_back(b.*field);
  }
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// The paper's testbed, with the same hosts, NICs and models as
/// harness::PaperWorld: `endpoints` Myrinet nodes, one gateway on both
/// networks, `endpoints` SCI nodes. Built layer by layer so that each
/// layer's set-up time is measured on its own, as process CPU time: on a
/// shared host the wall time of a sub-millisecond build mostly measures
/// other tenants.
struct Testbed {
  Testbed(const fwd::VcOptions& options, int endpoints, sim::TraceSink* trace,
          SetupTimes& setup)
      : endpoints(endpoints) {
    const double t0 = process_cpu_s();
    fabric.emplace(engine);
    if (trace != nullptr) {
      engine.set_trace(trace);
      fabric->set_trace(trace);
      fabric->metrics().enable();
    }
    myri = &fabric->add_network("myri0", net::bip_myrinet());
    sci = &fabric->add_network("sci0", net::sisci_sci());
    std::vector<net::Host*> hosts;
    for (int i = 0; i < endpoints; ++i) {
      hosts.push_back(&fabric->add_host("m" + std::to_string(i)));
      hosts.back()->add_nic(*myri);
    }
    hosts.push_back(&fabric->add_host("gw"));
    hosts.back()->add_nic(*myri);
    hosts.back()->add_nic(*sci);
    for (int i = 0; i < endpoints; ++i) {
      hosts.push_back(&fabric->add_host("s" + std::to_string(i)));
      hosts.back()->add_nic(*sci);
    }
    const double t1 = process_cpu_s();
    domain.emplace(*fabric);
    for (net::Host* h : hosts) {
      domain->add_node(*h);
    }
    const double t2 = process_cpu_s();
    vc.emplace(*domain, "vc", std::vector<net::Network*>{myri, sci}, options);
    setup.net_s = t1 - t0;
    setup.mad_s = t2 - t1;
    setup.fwd_s = process_cpu_s() - t2;
  }

  NodeRank myri_node(int i) const { return i; }
  NodeRank sci_node(int i) const { return endpoints + 1 + i; }

  int endpoints;
  sim::Engine engine;
  std::optional<net::Fabric> fabric;
  net::Network* myri = nullptr;
  net::Network* sci = nullptr;
  std::optional<Domain> domain;
  std::optional<fwd::VirtualChannel> vc;
};

// ---------------------------------------------------------------------------
// Running one leg

/// What happened to one message, in virtual time (-1 = never reached).
struct MessageLog {
  sim::Time due = -1;           // when it should have been sent
  sim::Time pack_begin = -1;    // begin_packing called
  sim::Time pack_end = -1;      // end_packing returned
  sim::Time unpack_begin = -1;  // begin_unpacking returned
  sim::Time delivered = -1;     // end_unpacking returned
  bool ok = false;              // right origin and byte-identical payload
};

void print_times(const char* name, const std::vector<sim::Time>& values) {
  std::printf("\"%s\":[", name);
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::printf("%s%lld", i == 0 ? "" : ",",
                static_cast<long long>(values[i]));
  }
  std::printf("]");
}

/// Prints the counters of the library's public stats interfaces and, when
/// it is enabled, of the fabric's metrics registry.
void print_counts(const Testbed& tb) {
  std::map<std::string, std::uint64_t> counts;
  const sim::Engine::Stats s = tb.engine.stats();
  counts["sim.switches"] = s.switches;
  counts["sim.timer_fires"] = s.timer_fires;
  counts["sim.notifies"] = s.notifies;
  counts["sim.noop_notifies"] = s.noop_notifies;
  counts["sim.direct_handoffs"] = s.direct_handoffs;
  counts["sim.scheduler_rounds"] = s.scheduler_rounds;

  for (const net::Network* network : {tb.myri, tb.sci}) {
    if (const net::FaultInjector* f = network->fault_injector()) {
      counts["net.fault_drops"] += f->stats().dropped;
    }
  }

  for (NodeRank rank = 0;
       static_cast<std::size_t>(rank) < tb.domain->node_count(); ++rank) {
    const fwd::GatewayStats& g = tb.vc->gateway_stats(rank);
    const fwd::ReliabilityStats& r = g.reliability;
    counts["fwd.gw_paquets"] += g.paquets_forwarded;
    counts["fwd.gw_bytes"] += g.bytes_forwarded;
    counts["fwd.flow_marks"] += g.flow_marks;
    counts["fwd.admission_rejects"] += g.admission_rejects;
    counts["fwd.admission_sheds"] += g.admission_sheds;
    counts["fwd.rel_retransmits"] += r.retransmits;
    counts["fwd.rel_fast_retransmits"] += r.fast_retransmits;
    counts["fwd.rel_timeouts"] += r.timeouts;
    counts["fwd.rel_dup_drops"] += r.dup_drops;
    counts["fwd.rel_stale_drops"] += r.stale_drops;
    counts["fwd.rel_window_decreases"] += r.window_decreases;
  }

  const fwd::RdmaTotals rdma = tb.vc->rdma_totals();
  counts["fwd.rdma_writes"] = rdma.writes;
  counts["fwd.rdma_rendezvous"] = rdma.rendezvous;
  counts["fwd.mr_hits"] = rdma.cache.hits;
  counts["fwd.mr_lookups"] = rdma.cache.hits + rdma.cache.misses;

  const CopyStats& copies = copy_stats();
  counts["mad.copies"] = copies.copies;
  counts["mad.copy_bytes"] = copies.bytes;
  counts["mad.copy_bytes_staged"] = copies.bytes_on(CopyPath::Staged);
  counts["mad.copy_bytes_zero_copy"] = copies.bytes_on(CopyPath::ZeroCopy);
  counts["mad.copy_bytes_one_sided"] = copies.bytes_on(CopyPath::OneSided);

  for (const auto& [key, counter] : tb.fabric->metrics().counters()) {
    counts[key.first] += counter.value;  // summed over labels
  }

  std::printf("\"counts\":{");
  bool first = true;
  for (const auto& [name, value] : counts) {
    std::printf("%s\"%s\":%llu", first ? "" : ",", name.c_str(),
                static_cast<unsigned long long>(value));
    first = false;
  }
  std::printf("}");
}

/// Prints the registry histograms with their buckets, so that run.py can
/// pool them across legs and labels.
void print_histograms(const sim::MetricsRegistry& metrics) {
  std::printf("\"histograms\":[");
  bool first = true;
  for (const auto& [key, h] : metrics.histograms()) {
    const auto& [name, labels] = key;
    std::printf("%s{\"name\":\"%s\",\"labels\":\"%s\",\"count\":%llu,"
                "\"min\":%.17g,\"max\":%.17g,\"buckets\":[",
                first ? "" : ",", name.c_str(),
                util::json_escape(labels).c_str(),
                static_cast<unsigned long long>(h.count()), h.min(), h.max());
    for (std::size_t b = 0; b < h.buckets().size(); ++b) {
      std::printf("%s%llu", b == 0 ? "" : ",",
                  static_cast<unsigned long long>(h.buckets()[b]));
    }
    std::printf("]}");
    first = false;
  }
  std::printf("]");
}

/// Builds, runs and checks one leg, then prints its JSON record.
void run_leg(const std::string& workload, std::uint64_t seed,
             const std::vector<Leg>& legs, std::size_t index,
             const std::vector<std::byte>& pool,
             const std::string& trace_dir) {
  const Leg& leg = legs[index];
  const auto leg_start = Clock::now();
  const auto host_ns = [&] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - leg_start)
        .count();
  };
  std::unique_ptr<sim::Trace> trace;
  // Host-side spans, timestamped in wall-clock ns since the leg began.
  sim::TraceSink host_trace;
  fwd::VcOptions options = leg.options;
  if (!trace_dir.empty()) {
    trace = std::make_unique<sim::Trace>();
    trace->set_capacity(kTraceCapacity);
    trace->enable();
    host_trace.enable();
    options.trace = trace.get();
  }

  const sim::Time setup_begin = host_ns();
  std::vector<SetupTimes> builds(kSetupBuilds);
  for (int b = 0; b + 1 < kSetupBuilds; ++b) {
    Testbed unused(leg.options, leg.endpoints, nullptr, builds[b]);
  }
  Testbed tb(options, leg.endpoints, trace.get(), builds.back());
  host_trace.span("host", setup_begin, host_ns(), "setup", leg.name);
  if (leg.ingress_drop_rate > 0.0) {
    net::FaultPlan plan;
    plan.seed = seed * 1'000'003 + index + 1;
    plan.drop_rate = leg.ingress_drop_rate;
    (leg.sci_to_myri ? tb.sci : tb.myri)->set_fault_plan(plan);
  }
  tb.engine.set_time_horizon(sim::seconds(3600));

  std::vector<std::vector<MessageLog>> logs;
  std::vector<std::unique_ptr<sim::Condition>> delivered_cond;
  std::vector<std::size_t> delivered(leg.flows.size(), 0);
  for (std::size_t fi = 0; fi < leg.flows.size(); ++fi) {
    logs.emplace_back(leg.flows[fi].messages.size());
    delivered_cond.push_back(std::make_unique<sim::Condition>(
        tb.engine, "bench.delivered." + std::to_string(fi)));
  }

  for (std::size_t fi = 0; fi < leg.flows.size(); ++fi) {
    const Flow& flow = leg.flows[fi];
    const NodeRank src = leg.sci_to_myri ? tb.sci_node(flow.src_index)
                                         : tb.myri_node(flow.src_index);
    const NodeRank dst = leg.sci_to_myri ? tb.myri_node(flow.dst_index)
                                         : tb.sci_node(flow.dst_index);
    const std::string id = std::to_string(fi);
    std::vector<MessageLog>& log = logs[fi];
    sim::Condition& cond = *delivered_cond[fi];
    std::size_t& done = delivered[fi];
    sim::Trace* tr = trace.get();

    tb.engine.spawn("bench.tx" + id, [&, src, dst, id, tr] {
      sim::Engine& engine = tb.engine;
      for (std::size_t i = 0; i < flow.messages.size(); ++i) {
        const Message& m = flow.messages[i];
        MessageLog& l = log[i];
        if (m.due >= 0 && engine.now() < m.due) {
          engine.sleep_until(m.due);
        }
        l.due = m.due >= 0 ? m.due : engine.now();
        l.pack_begin = engine.now();
        auto writer = tb.vc->endpoint(src).begin_packing(dst);
        writer.pack(util::ByteSpan(pool.data() + m.offset, m.size));
        writer.end_packing();
        l.pack_end = engine.now();
        if (tr != nullptr) {
          tr->span("bench.tx" + id, l.pack_begin, l.pack_end, "pack",
                   "msg=" + id + "." + std::to_string(i));
        }
        while (flow.acked && done <= i) {
          cond.wait();
        }
      }
    });

    tb.engine.spawn("bench.rx" + id, [&, src, dst, id, tr] {
      sim::Engine& engine = tb.engine;
      std::size_t largest = 0;
      for (const Message& m : flow.messages) {
        largest = std::max(largest, m.size);
      }
      std::vector<std::byte> buffer(largest);
      for (std::size_t i = 0; i < flow.messages.size(); ++i) {
        const Message& m = flow.messages[i];
        MessageLog& l = log[i];
        auto reader = tb.vc->endpoint(dst).begin_unpacking();
        l.unpack_begin = engine.now();
        const bool from_src = reader.source() == src;
        reader.unpack(util::MutByteSpan(buffer.data(), m.size));
        reader.end_unpacking();
        l.delivered = engine.now();
        l.ok = from_src && std::memcmp(buffer.data(), pool.data() + m.offset,
                                       m.size) == 0;
        if (tr != nullptr) {
          tr->span("bench.rx" + id, l.unpack_begin, l.delivered, "unpack",
                   "msg=" + id + "." + std::to_string(i));
        }
        ++done;
        cond.notify_all();
      }
    });
  }

  std::string error;
  const sim::Time run_begin = host_ns();
  const CpuTime cpu0 = cpu_time();
  const auto wall0 = Clock::now();
  try {
    tb.engine.run();
  } catch (const std::exception& e) {
    error = e.what();
  }
  const double run_s = seconds_since(wall0);
  const CpuTime cpu1 = cpu_time();
  host_trace.span("host", run_begin, host_ns(), "engine.run", leg.name);

  std::uint64_t sent = 0, ok = 0, delivered_bytes = 0;
  std::vector<sim::Time> latency, pack, unpack, late, bulk;
  for (std::size_t fi = 0; fi < leg.flows.size(); ++fi) {
    const Flow& flow = leg.flows[fi];
    std::uint64_t flow_bytes = 0;
    sim::Time flow_first = sim::kForever;
    sim::Time flow_last = 0;
    for (std::size_t i = 0; i < flow.messages.size(); ++i) {
      const Message& m = flow.messages[i];
      const MessageLog& l = logs[fi][i];
      ++sent;
      if (!l.ok) {
        continue;
      }
      ++ok;
      delivered_bytes += m.size;
      if (m.small) {
        latency.push_back(l.delivered - l.due);
        pack.push_back(l.pack_end - l.pack_begin);
        unpack.push_back(l.delivered - l.unpack_begin);
        late.push_back(l.pack_begin - l.due);
      } else {
        flow_bytes += m.size;
        flow_first = std::min(flow_first, l.pack_begin);
        flow_last = std::max(flow_last, l.delivered);
      }
    }
    if (flow_bytes > 0) {
      bulk.insert(bulk.end(), {static_cast<sim::Time>(flow_bytes),
                               flow_first, flow_last});
    }
  }

  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"leg\":\"%s\","
              "\"legs\":%zu,\"error\":\"%s\",\"sent\":%llu,\"ok\":%llu,"
              "\"delivered_bytes\":%llu,",
              workload.c_str(), static_cast<unsigned long long>(seed),
              leg.name.c_str(), legs.size(), util::json_escape(error).c_str(),
              static_cast<unsigned long long>(sent),
              static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(delivered_bytes));
  // Virtual times in ns: per latency-class message, and per bulk flow as
  // (bytes, first send, last delivery) triples.
  std::printf("\"virt\":{");
  print_times("latency", latency);
  std::printf(",");
  print_times("pack", pack);
  std::printf(",");
  print_times("unpack", unpack);
  std::printf(",");
  print_times("late", late);
  std::printf(",");
  print_times("bulk", bulk);
  std::printf("},\"host\":{\"net_setup_s\":%.9f,\"mad_setup_s\":%.9f,"
              "\"fwd_setup_s\":%.9f,\"run_s\":%.9f,\"cpu_user_s\":%.6f,"
              "\"cpu_sys_s\":%.6f,\"peak_rss_MB\":%.6f},",
              median_of(builds, &SetupTimes::net_s),
              median_of(builds, &SetupTimes::mad_s),
              median_of(builds, &SetupTimes::fwd_s), run_s,
              cpu1.user - cpu0.user, cpu1.sys - cpu0.sys, peak_rss_mb());
  print_counts(tb);
  std::printf(",");
  print_histograms(tb.fabric->metrics());
  std::printf(",\"trace_events\":%zu,\"trace_dropped\":%llu}\n",
              trace != nullptr ? trace->events().size() : 0,
              static_cast<unsigned long long>(
                  trace != nullptr ? trace->dropped() : 0));

  if (trace != nullptr) {
    const std::string prefix = trace_dir + "/" + workload + "-" + leg.name;
    std::ofstream virtual_out(prefix + ".json");
    trace->write_chrome_json(virtual_out);
    std::ofstream host_out(prefix + "-host.json");
    host_trace.write_chrome_json(host_out);
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: fwdbench --workload paper_fwd|reliable_fwd|flow_mix "
               "--seed N --leg K [--scale full|tiny] [--trace-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string scale_name = "full";
  std::string trace_dir;
  std::optional<std::uint64_t> seed;
  std::optional<std::size_t> leg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::stoull(value);
    } else if (flag == "--leg") {
      leg = std::stoull(value);
    } else if (flag == "--scale") {
      scale_name = value;
    } else if (flag == "--trace-dir") {
      trace_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !seed || !leg ||
      (scale_name != "full" && scale_name != "tiny")) {
    return usage();
  }
  const Scale& scale = scale_name == "tiny" ? kTinyScale : kFullScale;
  // Every actor is an OS thread, and glibc gives threads their own malloc
  // arenas; how many arenas a leg touches varies from run to run, and its
  // peak memory with it. The engine runs one actor at a time, so a single
  // arena adds no lock contention.
  mallopt(M_ARENA_MAX, 1);

  // Inputs: one seeded payload pool; every message is a seeded slice of it
  // with a seeded size. All legs are generated so that a leg's inputs do not
  // depend on which leg runs.
  util::Rng rng(*seed);
  const std::size_t pool_size = 6 * kMiB;
  const std::vector<std::byte> pool = rng.bytes(pool_size);
  std::vector<Leg> legs;
  if (workload == "paper_fwd" || workload == "reliable_fwd") {
    legs = relay_legs(workload == "reliable_fwd", scale, rng, pool_size);
  } else if (workload == "flow_mix") {
    legs = flow_mix_legs(scale, rng, pool_size);
  } else {
    return usage();
  }
  if (*leg >= legs.size()) {
    return usage();
  }
  run_leg(workload, *seed, legs, *leg, pool, trace_dir);
  return 0;
}
