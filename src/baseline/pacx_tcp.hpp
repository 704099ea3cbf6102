// Baseline 2: PACX-MPI-style inter-cluster communication.
//
// "Environments such as PACX-MPI use native implementations of MPI to
// handle intra-cluster communication and use TCP for all inter-cluster
// communication. Obviously, this is not acceptable for fast clusters of
// clusters where all the links are able to deliver more than one gigabit
// per second." (paper §1)
//
// The world: a Myrinet cluster and an SCI cluster, each with a dedicated
// gateway daemon node; the two gateways talk TCP over Fast-Ethernet. All
// forwarding is application-level store-and-forward (PACX's in/out relay
// daemons), so this baseline stacks BOTH problems: the slow inter-cluster
// link and the copy/no-pipelining relay.
#pragma once

#include <memory>
#include <optional>

#include "baseline/store_forward.hpp"

namespace mad::baseline {

class PacxWorld {
 public:
  PacxWorld(int myri_endpoints = 1, int sci_endpoints = 1);

  sim::Engine& engine() { return engine_; }
  Domain& domain() { return *domain_; }

  NodeRank myri_node(int i = 0) const { return i; }
  NodeRank sci_node(int i = 0) const { return gw_b_ + 1 + i; }

  /// Sends from `src`'s actor toward `dst` through the relay overlay.
  void send(NodeRank src, NodeRank dst, util::ByteSpan data);

  /// Receives at `self`'s actor.
  SfReceived recv(NodeRank self);

 private:
  sim::Engine engine_;
  std::optional<net::Fabric> fabric_;
  std::optional<Domain> domain_;
  std::optional<StoreForwardRouter> router_;
  NodeRank gw_a_ = -1;
  NodeRank gw_b_ = -1;
};

}  // namespace mad::baseline
