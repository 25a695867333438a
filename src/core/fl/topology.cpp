#include "core/fl/topology.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "core/codec_spec.hpp"
#include "util/rng.hpp"

namespace fedsz::core {

namespace {

/// Standalone trees (tests, tools) get a fixed shuffle seed when the
/// config leaves shard_seed at 0; the coordinator derives one from the run
/// seed instead, so runs stay deterministic per seed.
constexpr std::uint64_t kDefaultShardSeed = 0x5AFEC0DEull;

}  // namespace

std::string edge_mode_name(EdgeMode mode) {
  switch (mode) {
    case EdgeMode::kSync:
      return "sync";
    case EdgeMode::kBuffered:
      return "buffered";
  }
  throw InvalidArgument("edge_mode_name: unknown mode");
}

std::string shard_strategy_name(ShardStrategy strategy) {
  switch (strategy) {
    case ShardStrategy::kContiguous:
      return "contiguous";
    case ShardStrategy::kShuffled:
      return "shuffled";
  }
  throw InvalidArgument("shard_strategy_name: unknown strategy");
}

std::size_t TopologyConfig::ship_after(std::size_t expected) const {
  return edge_mode == EdgeMode::kBuffered ? std::min(edge_buffer, expected)
                                          : expected;
}

void TopologyConfig::validate() const {
  if (mode == TopologyMode::kFlat) {
    // A flat run silently dropping hier-only options is the
    // downmode=delta-without-downlink mistake all over again; refuse each
    // one loudly, naming the escape hatch.
    if (!tiers.empty())
      throw InvalidArgument(
          "TopologyConfig: tiers require mode=kHier "
          "(topology=hier:<N>[x<M>...])");
    if (!backhaul_spec.empty() || !tier_backhaul_specs.empty())
      throw InvalidArgument(
          "TopologyConfig: backhaul specs require mode=kHier");
    if (edge_mode != EdgeMode::kSync || edge_buffer != 0)
      throw InvalidArgument(
          "TopologyConfig: edge_mode/edge_buffer require mode=kHier "
          "(edgemode=sync|buffered:<K>)");
    if (edge_error_feedback)
      throw InvalidArgument(
          "TopologyConfig: edge_error_feedback requires mode=kHier "
          "(edgeef=on)");
    if (sharding != ShardStrategy::kContiguous)
      throw InvalidArgument(
          "TopologyConfig: sharding requires mode=kHier "
          "(shard=contiguous|shuffled)");
    return;
  }
  if (tiers.empty())
    throw InvalidArgument(
        "TopologyConfig: kHier needs at least one tier "
        "(topology=hier:<N>[x<M>...], every fan-in >= 1)");
  for (const std::size_t fan : tiers)
    if (fan == 0)
      throw InvalidArgument(
          "TopologyConfig: every tier fan-in must be >= 1 "
          "(topology=hier:<N>[x<M>...])");
  if (tier_backhaul_specs.size() > tiers.size())
    throw InvalidArgument(
        "TopologyConfig: more per-tier backhaul overrides (" +
        std::to_string(tier_backhaul_specs.size()) + ") than tiers (" +
        std::to_string(tiers.size()) + "); backhaul<k> wants 1 <= k <= " +
        std::to_string(tiers.size()));
  if (!backhaul_spec.empty()) {
    // Malformed specs throw InvalidArgument from the parser itself.
    if (parse_codec_spec(backhaul_spec).has_comm_keys())
      throw InvalidArgument(
          "TopologyConfig: backhaul_spec cannot itself carry comm keys");
  }
  for (std::size_t k = 0; k < tier_backhaul_specs.size(); ++k) {
    if (tier_backhaul_specs[k].empty()) continue;
    if (parse_codec_spec(tier_backhaul_specs[k]).has_comm_keys())
      throw InvalidArgument("TopologyConfig: backhaul" + std::to_string(k + 1) +
                            " spec cannot itself carry comm keys");
  }
  if (edge_mode == EdgeMode::kBuffered && edge_buffer == 0)
    throw InvalidArgument(
        "TopologyConfig: kBuffered needs edge_buffer >= 1 "
        "(edgemode=buffered:<K>)");
  if (edge_mode == EdgeMode::kSync && edge_buffer != 0)
    throw InvalidArgument(
        "TopologyConfig: edge_buffer requires edge_mode=kBuffered "
        "(edgemode=buffered:<K>)");
}

std::vector<std::vector<std::size_t>> shard_clients(std::size_t clients,
                                                    std::size_t fanout) {
  return shard_clients(clients, fanout, ShardStrategy::kContiguous, 0);
}

std::vector<std::vector<std::size_t>> shard_clients(std::size_t clients,
                                                    std::size_t fanout,
                                                    ShardStrategy strategy,
                                                    std::uint64_t seed) {
  if (clients == 0)
    throw InvalidArgument("shard_clients: need at least one client");
  if (fanout == 0) throw InvalidArgument("shard_clients: fanout must be >= 1");
  std::vector<std::size_t> order(clients);
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (strategy == ShardStrategy::kShuffled && clients > 1) {
    // Seeded Fisher-Yates: deterministic per seed, so a shuffled topology
    // is as reproducible as a contiguous one.
    Rng rng(seed);
    for (std::size_t i = clients - 1; i > 0; --i)
      std::swap(order[i], order[rng.uniform_index(i + 1)]);
  }
  std::vector<std::vector<std::size_t>> shards;
  shards.reserve((clients + fanout - 1) / fanout);
  for (std::size_t start = 0; start < clients; start += fanout) {
    const std::size_t end = std::min(clients, start + fanout);
    shards.emplace_back(order.begin() + static_cast<std::ptrdiff_t>(start),
                        order.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return shards;
}

EdgeAggregator::EdgeAggregator(std::size_t id, std::size_t tier,
                               std::vector<std::size_t> members,
                               UpdateCodecPtr codec, bool error_feedback)
    : id_(id),
      tier_(tier),
      members_(std::move(members)),
      codec_(std::move(codec)) {
  if (tier_ == 0) throw InvalidArgument("EdgeAggregator: tiers are 1-based");
  if (members_.empty())
    throw InvalidArgument("EdgeAggregator: empty member set");
  if (!codec_) throw InvalidArgument("EdgeAggregator: null backhaul codec");
  // EF against a lossless tier codec is provably a zero residual forever.
  ef_on_ = error_feedback && !codec_->lossless();
}

void EdgeAggregator::begin_round(const StateDict& reference) {
  mean_.begin(reference);
  leaves_ = 0;
}

void EdgeAggregator::fold(const StateDict& update, double weight,
                          std::size_t leaves) {
  mean_.add(update, weight);
  leaves_ += leaves;
}

void EdgeAggregator::abort_round() {
  mean_.abort();
  leaves_ = 0;
}

EncodedPartial EdgeAggregator::finalize_and_encode(int round) {
  PartialAggregate partial = mean_.finalize_partial();
  EncodeContext ctx;
  ctx.round = round;
  ctx.client_id = -1 - static_cast<int>(id_);
  UpdateCodec::Encoded encoded;
  EncodedPartial out;
  if (ef_on_) {
    // What the lossy tier codec dropped is carried into this node's next
    // partial.
    ErrorFeedbackAccumulator::Step step =
        feedback_.encode(std::move(partial.mean), *codec_, ctx);
    encoded = std::move(step.encoded);
    out.ef_residual_norm = step.residual_norm;
  } else {
    encoded = codec_->encode(partial.mean, ctx);
  }
  out.payload = std::move(encoded.payload);
  out.stats = encoded.stats;
  out.weight = partial.weight;
  out.clients = leaves_;  // telescoped leaf count, not this node's fold count
  return out;
}

namespace {

/// Per-tier codec spec after override resolution: backhaul<k> when set,
/// else the shared default, else identity.
std::string tier_spec(const TopologyConfig& config, std::size_t level) {
  if (level < config.tier_backhaul_specs.size() &&
      !config.tier_backhaul_specs[level].empty())
    return config.tier_backhaul_specs[level];
  return config.backhaul_spec.empty() ? "identity" : config.backhaul_spec;
}

/// One uplink per node at `level`. Level 0 uses the heterogeneous config
/// as-is (the one-level regression pin); higher levels re-seed the draw so
/// tiers get independent link assignments.
net::HeterogeneousNetwork tier_links(const TopologyConfig& config,
                                     std::size_t level, std::size_t nodes) {
  std::optional<net::HeterogeneousNetworkConfig> het =
      config.backhaul_heterogeneous;
  if (het && level > 0) het->seed ^= 0x9E3779B97F4A7C15ull * level;
  return net::build_links(het, config.backhaul_network, nodes);
}

}  // namespace

AggregationTree::AggregationTree(const TopologyConfig& config,
                                 std::size_t clients) {
  config.validate();
  if (config.mode != TopologyMode::kHier)
    throw InvalidArgument("AggregationTree: config must be mode=kHier");
  if (clients == 0)
    throw InvalidArgument("AggregationTree: need at least one client");
  const std::vector<std::size_t>& tiers = config.tiers;
  const std::uint64_t shard_seed =
      config.shard_seed != 0 ? config.shard_seed : kDefaultShardSeed;
  base_shards_ =
      shard_clients(clients, tiers[0], config.sharding, shard_seed);

  levels_.reserve(tiers.size());
  std::size_t below = clients;  // children available to the next level
  for (std::size_t l = 0; l < tiers.size(); ++l) {
    const std::size_t count = (below + tiers[l] - 1) / tiers[l];
    Level level{make_codec(parse_codec_spec(tier_spec(config, l))),
                tier_links(config, l, count),
                {},
                total_nodes_,
                tiers[l]};
    level.nodes.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      std::vector<std::size_t> members;
      if (l == 0) {
        members = base_shards_[i];
      } else {
        const std::size_t start = i * tiers[l];
        const std::size_t end = std::min(below, start + tiers[l]);
        members.resize(end - start);
        std::iota(members.begin(), members.end(), start);
      }
      level.nodes.emplace_back(total_nodes_ + i, l + 1, std::move(members),
                               level.codec, config.edge_error_feedback);
    }
    total_nodes_ += count;
    below = count;
    levels_.push_back(std::move(level));
  }
}

std::size_t AggregationTree::level_size(std::size_t level) const {
  if (level >= levels_.size())
    throw InvalidArgument("AggregationTree: level out of range");
  return levels_[level].nodes.size();
}

std::size_t AggregationTree::flat_index(std::size_t level,
                                        std::size_t i) const {
  if (level >= levels_.size() || i >= levels_[level].nodes.size())
    throw InvalidArgument("AggregationTree: node index out of range");
  return levels_[level].flat_offset + i;
}

EdgeAggregator& AggregationTree::node(std::size_t level, std::size_t i) {
  if (level >= levels_.size() || i >= levels_[level].nodes.size())
    throw InvalidArgument("AggregationTree: node index out of range");
  return levels_[level].nodes[i];
}

const EdgeAggregator& AggregationTree::node(std::size_t level,
                                            std::size_t i) const {
  if (level >= levels_.size() || i >= levels_[level].nodes.size())
    throw InvalidArgument("AggregationTree: node index out of range");
  return levels_[level].nodes[i];
}

std::size_t AggregationTree::parent_of(std::size_t level,
                                       std::size_t i) const {
  if (level + 1 >= levels_.size())
    throw InvalidArgument(
        "AggregationTree: top-level nodes ship straight to the root");
  if (i >= levels_[level].nodes.size())
    throw InvalidArgument("AggregationTree: node index out of range");
  // Interior grouping is contiguous regardless of leaf shard strategy.
  return i / levels_[level + 1].fan;
}

const net::SimulatedNetwork& AggregationTree::uplink(std::size_t level,
                                                     std::size_t i) const {
  if (level >= levels_.size() || i >= levels_[level].nodes.size())
    throw InvalidArgument("AggregationTree: node index out of range");
  return levels_[level].links.link(i);
}

StateDict AggregationTree::decode_partial(std::size_t level, ByteSpan payload,
                                          CompressionStats* stats) const {
  if (level >= levels_.size())
    throw InvalidArgument("AggregationTree: level out of range");
  return levels_[level].codec->decode(payload, stats);
}

}  // namespace fedsz::core
