// Per-client network assignment for heterogeneous federation runs. The
// paper's Section VI-C sweeps a single simulated bandwidth shared by every
// client; real edge fleets are nothing like that, and the Eqn (1)
// compress-or-not decision only becomes interesting when each client faces
// its own link. This module draws one SimulatedNetwork per client from a
// named distribution:
//
//   uniform_edge   bandwidth ~ U[min, max] Mbps — a constrained edge fleet
//   lognormal_wan  ln(bandwidth) ~ N(ln median, sigma) — WAN-style heavy tail
//   two_tier       an exact fraction of fast datacenter links, rest edge
//
// Draws are fully determined by the config seed, so a heterogeneous run is
// reproducible end to end.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/bandwidth.hpp"

namespace fedsz::net {

enum class LinkDistribution { kUniformEdge, kLogNormalWan, kTwoTier };

std::string link_distribution_name(LinkDistribution distribution);
LinkDistribution link_distribution_from_name(const std::string& name);

struct HeterogeneousNetworkConfig {
  LinkDistribution distribution = LinkDistribution::kUniformEdge;
  // uniform_edge
  double edge_min_mbps = 5.0;
  double edge_max_mbps = 15.0;
  // lognormal_wan
  double wan_median_mbps = 50.0;
  double wan_log_sigma = 1.0;
  // two_tier
  double two_tier_fast_fraction = 0.1;
  double two_tier_fast_mbps = 1000.0;
  double two_tier_slow_mbps = 10.0;
  // shared
  double latency_s = 0.0;
  std::uint64_t seed = 0x0b5e55edull;
};

class HeterogeneousNetwork {
 public:
  /// Draw one link per client from `config.distribution`.
  HeterogeneousNetwork(const HeterogeneousNetworkConfig& config,
                       std::size_t clients);

  /// Every client on the same link — the paper's (and the pre-event-runtime
  /// coordinator's) homogeneous setting.
  static HeterogeneousNetwork homogeneous(NetworkProfile profile,
                                          std::size_t clients);

  /// One link per explicitly-given profile — how a ClientPopulation's
  /// device-class-correlated draws become simulated links (the population
  /// owns the distribution; this class just materializes it).
  static HeterogeneousNetwork from_profiles(
      const std::vector<NetworkProfile>& profiles);

  std::size_t size() const { return links_.size(); }
  const SimulatedNetwork& link(std::size_t client) const;

  double min_bandwidth_mbps() const;
  double max_bandwidth_mbps() const;

 private:
  HeterogeneousNetwork() = default;
  std::vector<SimulatedNetwork> links_;
};

/// One link per node: drawn from `config` when set, else `fallback` shared
/// by every node. The single construction path for every simulated link
/// tier — the coordinator's client uplinks and the topology's per-edge
/// backhaul (e.g. two_tier: a fraction of edges on datacenter fiber, the
/// rest on constrained metro links) both route through it.
HeterogeneousNetwork build_links(
    const std::optional<HeterogeneousNetworkConfig>& config,
    NetworkProfile fallback, std::size_t nodes);

}  // namespace fedsz::net
