// The whole simulated testbed: hosts + networks.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/host.hpp"
#include "net/link.hpp"
#include "sim/metrics.hpp"
#include "util/arena.hpp"

namespace mad::net {

class Fabric {
 public:
  explicit Fabric(sim::Engine& engine) : engine_(engine) {}

  Host& add_host(std::string name, PciBusParams bus = pci_33mhz_32bit());
  Network& add_network(std::string name, NicModelParams model);

  Host& host(int id) const;
  Network& network(int id) const;

  std::size_t network_count() const { return networks_.size(); }
  sim::Engine& engine() const { return engine_; }

  /// Fabric-wide counters and latency histograms (disabled by default;
  /// enable() to record). Distributed by pointer to every network and bus.
  sim::MetricsRegistry& metrics() { return metrics_; }
  const sim::MetricsRegistry& metrics() const { return metrics_; }

  /// Attaches a structured-trace sink to every network (current and
  /// future) for packet-level events. Does NOT touch the engine's actor
  /// tracing — call Engine::set_trace for that.
  void set_trace(sim::TraceSink* trace);

 private:
  sim::Engine& engine_;
  // The packet buffers of every network (Network::buffer_pool), at the
  // largest max_packet of them: the plain relay sends a paquet on in the
  // buffer it arrived in, so a buffer made for one network may come back
  // through another. Declared before the hosts and networks, whose NICs
  // give buffers back into it.
  util::BufferPool packets_{0};
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<Network>> networks_;
  sim::MetricsRegistry metrics_;
  sim::TraceSink* trace_ = nullptr;
};

}  // namespace mad::net
