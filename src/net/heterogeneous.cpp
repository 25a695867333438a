#include "net/heterogeneous.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/common.hpp"
#include "util/rng.hpp"

namespace fedsz::net {

namespace {

// Keep drawn bandwidths physical: the log-normal tail can otherwise produce
// links so slow a single update takes simulated years.
constexpr double kMinDrawMbps = 0.05;
constexpr double kMaxDrawMbps = 1e6;

double clamp_mbps(double mbps) {
  return std::min(kMaxDrawMbps, std::max(kMinDrawMbps, mbps));
}

void validate(const HeterogeneousNetworkConfig& config) {
  if (config.latency_s < 0.0)
    throw InvalidArgument("HeterogeneousNetwork: latency must be >= 0");
  switch (config.distribution) {
    case LinkDistribution::kUniformEdge:
      if (!(config.edge_min_mbps > 0.0) ||
          config.edge_max_mbps < config.edge_min_mbps)
        throw InvalidArgument(
            "HeterogeneousNetwork: need 0 < edge_min_mbps <= edge_max_mbps");
      break;
    case LinkDistribution::kLogNormalWan:
      if (!(config.wan_median_mbps > 0.0) || config.wan_log_sigma < 0.0)
        throw InvalidArgument(
            "HeterogeneousNetwork: need wan_median_mbps > 0 and "
            "wan_log_sigma >= 0");
      break;
    case LinkDistribution::kTwoTier:
      if (!(config.two_tier_fast_mbps > 0.0) ||
          !(config.two_tier_slow_mbps > 0.0) ||
          config.two_tier_fast_fraction < 0.0 ||
          config.two_tier_fast_fraction > 1.0)
        throw InvalidArgument(
            "HeterogeneousNetwork: need positive tier bandwidths and "
            "fast_fraction in [0, 1]");
      break;
  }
}

}  // namespace

std::string link_distribution_name(LinkDistribution distribution) {
  switch (distribution) {
    case LinkDistribution::kUniformEdge:
      return "uniform_edge";
    case LinkDistribution::kLogNormalWan:
      return "lognormal_wan";
    case LinkDistribution::kTwoTier:
      return "two_tier";
  }
  throw InvalidArgument("link_distribution_name: unknown distribution");
}

LinkDistribution link_distribution_from_name(const std::string& name) {
  if (name == "uniform_edge") return LinkDistribution::kUniformEdge;
  if (name == "lognormal_wan") return LinkDistribution::kLogNormalWan;
  if (name == "two_tier") return LinkDistribution::kTwoTier;
  throw InvalidArgument(
      "link_distribution_from_name: unknown distribution '" + name +
      "' (expected uniform_edge, lognormal_wan or two_tier)");
}

HeterogeneousNetwork::HeterogeneousNetwork(
    const HeterogeneousNetworkConfig& config, std::size_t clients) {
  validate(config);
  if (clients == 0)
    throw InvalidArgument("HeterogeneousNetwork: need at least one client");
  Rng rng(config.seed);
  links_.reserve(clients);
  switch (config.distribution) {
    case LinkDistribution::kUniformEdge:
      for (std::size_t i = 0; i < clients; ++i)
        links_.emplace_back(NetworkProfile{
            clamp_mbps(
                rng.uniform(config.edge_min_mbps, config.edge_max_mbps)),
            config.latency_s});
      break;
    case LinkDistribution::kLogNormalWan:
      for (std::size_t i = 0; i < clients; ++i)
        links_.emplace_back(NetworkProfile{
            clamp_mbps(config.wan_median_mbps *
                       std::exp(config.wan_log_sigma * rng.normal())),
            config.latency_s});
      break;
    case LinkDistribution::kTwoTier: {
      // Exact tier sizes (not Bernoulli draws): shuffle client indices and
      // promote the first round(fraction * clients) to the fast tier, so a
      // 10-client 30% config always has exactly 3 datacenter links.
      std::vector<std::size_t> order(clients);
      std::iota(order.begin(), order.end(), std::size_t{0});
      for (std::size_t i = clients - 1; i > 0; --i)
        std::swap(order[i], order[rng.uniform_index(i + 1)]);
      const auto fast = static_cast<std::size_t>(
          std::llround(config.two_tier_fast_fraction *
                       static_cast<double>(clients)));
      std::vector<bool> is_fast(clients, false);
      for (std::size_t i = 0; i < std::min(fast, clients); ++i)
        is_fast[order[i]] = true;
      for (std::size_t i = 0; i < clients; ++i)
        links_.emplace_back(NetworkProfile{
            is_fast[i] ? config.two_tier_fast_mbps : config.two_tier_slow_mbps,
            config.latency_s});
      break;
    }
  }
}

HeterogeneousNetwork HeterogeneousNetwork::homogeneous(NetworkProfile profile,
                                                       std::size_t clients) {
  if (clients == 0)
    throw InvalidArgument("HeterogeneousNetwork: need at least one client");
  HeterogeneousNetwork network;
  network.links_.assign(clients, SimulatedNetwork(profile));
  return network;
}

HeterogeneousNetwork HeterogeneousNetwork::from_profiles(
    const std::vector<NetworkProfile>& profiles) {
  if (profiles.empty())
    throw InvalidArgument("HeterogeneousNetwork: need at least one profile");
  HeterogeneousNetwork network;
  network.links_.reserve(profiles.size());
  for (const NetworkProfile& profile : profiles)
    network.links_.emplace_back(profile);
  return network;
}

const SimulatedNetwork& HeterogeneousNetwork::link(std::size_t client) const {
  if (client >= links_.size())
    throw InvalidArgument("HeterogeneousNetwork: client index out of range");
  return links_[client];
}

double HeterogeneousNetwork::min_bandwidth_mbps() const {
  double value = links_.front().profile().bandwidth_mbps;
  for (const SimulatedNetwork& link : links_)
    value = std::min(value, link.profile().bandwidth_mbps);
  return value;
}

double HeterogeneousNetwork::max_bandwidth_mbps() const {
  double value = links_.front().profile().bandwidth_mbps;
  for (const SimulatedNetwork& link : links_)
    value = std::max(value, link.profile().bandwidth_mbps);
  return value;
}

HeterogeneousNetwork build_links(
    const std::optional<HeterogeneousNetworkConfig>& config,
    NetworkProfile fallback, std::size_t nodes) {
  if (config) return HeterogeneousNetwork(*config, nodes);
  return HeterogeneousNetwork::homogeneous(fallback, nodes);
}

}  // namespace fedsz::net
