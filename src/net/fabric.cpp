#include "net/fabric.hpp"

#include "util/panic.hpp"

namespace mad::net {

Host& Fabric::add_host(std::string name, PciBusParams bus) {
  const int id = static_cast<int>(hosts_.size());
  hosts_.push_back(
      std::make_unique<Host>(engine_, id, std::move(name), bus));
  hosts_.back()->bus().set_metrics(&metrics_);
  return *hosts_.back();
}

Network& Fabric::add_network(std::string name, NicModelParams model) {
  const int id = static_cast<int>(networks_.size());
  packets_.grow(model.max_packet);
  networks_.push_back(std::make_unique<Network>(
      engine_, id, std::move(name), std::move(model), packets_));
  networks_.back()->set_metrics(&metrics_);
  networks_.back()->set_trace(trace_);
  return *networks_.back();
}

void Fabric::set_trace(sim::TraceSink* trace) {
  trace_ = trace;
  for (const auto& network : networks_) {
    network->set_trace(trace);
  }
}

Host& Fabric::host(int id) const {
  MAD_ASSERT(id >= 0 && static_cast<std::size_t>(id) < hosts_.size(),
             "bad host id");
  return *hosts_[static_cast<std::size_t>(id)];
}

Network& Fabric::network(int id) const {
  MAD_ASSERT(id >= 0 && static_cast<std::size_t>(id) < networks_.size(),
             "bad network id");
  return *networks_[static_cast<std::size_t>(id)];
}

}  // namespace mad::net
