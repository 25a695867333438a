// Hierarchical federation topology: multi-tier sharded aggregation over
// the virtual clock. A flat star tops out where one aggregation point
// saturates; the roadmap's millions-of-users scaling needs aggregation to
// fan IN through tiers. `TopologyConfig::tiers` describes the fan-in per
// level bottom-up — tiers = {32, 16} shards clients into cohorts of 32
// under tier-1 edges, groups those edges 16 apiece under tier-2 nodes, and
// the root merges whatever the top tier ships. Every interior node
// stream-folds its children's decoded payloads into a StreamingMean, as the
// root does (so peak decoded-update memory per NODE stays O(1)), finalizes
// a weight-carrying partial mean (PartialAggregate), re-encodes it through
// its TIER's backhaul codec, and ships it over its own link on the virtual
// clock. Parents fold partials, each with its carried weight, instead of
// raw updates, so each link tier carries O(nodes-below-it / fan-in)
// traffic — the paper's Eqn (1) cost model telescoping per aggregation
// tier, with error-bounded lossy compression paying once per lossy
// backhaul.
//
// Regression contract: kHier with identity backhauls and tiers == {clients}
// (one edge folding everyone) reproduces the flat SyncScheduler
// accuracy/byte trajectory exactly — a single partial merged into a fresh
// accumulator is bit-exact, and identity re-encoding round-trips the
// partial untouched. The same argument telescopes: any chain topology
// ({clients, 1, 1, ...}) is bit-exact against flat.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/error_feedback.hpp"
#include "core/fl/aggregator.hpp"
#include "core/update_codec.hpp"
#include "net/heterogeneous.hpp"

namespace fedsz::core {

enum class TopologyMode : std::uint8_t { kFlat = 0, kHier = 1 };

/// How an interior node decides when to ship its partial upstream.
enum class EdgeMode : std::uint8_t {
  kSync = 0,      // barrier: wait for every expected child
  kBuffered = 1,  // FedBuff-style: ship after K folds, late children miss
};

std::string edge_mode_name(EdgeMode mode);

/// How clients map onto tier-1 edges.
enum class ShardStrategy : std::uint8_t {
  kContiguous = 0,  // index order: [0, N) under edge 0, the next N under 1
  kShuffled = 1,    // seeded permutation first, then contiguous split —
                    // breaks device-class-correlated cohorts
};

std::string shard_strategy_name(ShardStrategy strategy);

struct TopologyConfig {
  TopologyMode mode = TopologyMode::kFlat;
  /// Fan-in per level, bottom-up (kHier, every entry >= 1): tiers[0]
  /// clients per tier-1 edge, tiers[1] tier-1 edges per tier-2 node, ...
  /// The top tier's nodes ship straight to the root. Spec grammar:
  /// topology=hier:<N>[x<M>...].
  std::vector<std::size_t> tiers;
  /// Default codec spec for every tier's partial re-encode (the
  /// parse_codec_spec grammar). Empty = "identity": partials ship
  /// uncompressed but are still charged on their links.
  std::string backhaul_spec;
  /// Per-tier overrides of `backhaul_spec`: entry k-1 (if non-empty) is
  /// the codec for tier k's uplink (spec key backhaul<k>=SPEC). Shorter
  /// than tiers is fine; missing/empty entries fall back to the default.
  std::vector<std::string> tier_backhaul_specs;
  /// Backhaul link shared by every interior node when
  /// `backhaul_heterogeneous` is unset. Edges aggregate near their
  /// clients, so the default models a metro uplink an order of magnitude
  /// faster than the paper's 10 Mbps edge link.
  net::NetworkProfile backhaul_network{100.0, 0.0};
  /// When set, draws one backhaul link per node instead of sharing
  /// `backhaul_network` (two_tier puts a fraction of edges on datacenter
  /// fiber and the rest on constrained metro links). Tiers above the
  /// first re-seed the draw per level so links differ across tiers.
  std::optional<net::HeterogeneousNetworkConfig> backhaul_heterogeneous;
  /// Ship discipline for interior nodes (spec key
  /// edgemode=sync|buffered:<K>). kBuffered requires edge_buffer >= 1.
  EdgeMode edge_mode = EdgeMode::kSync;
  /// FedBuff-style buffer size K: a buffered node ships after
  /// min(K, expected-children) folds. Only meaningful under kBuffered.
  std::size_t edge_buffer = 0;
  /// Edge-side error feedback (spec key edgeef=on): every interior node
  /// with a LOSSY tier codec carries the residual its re-encode dropped
  /// into its next round's partial, mirroring the client EF path.
  bool edge_error_feedback = false;
  /// Client -> tier-1 edge assignment (spec key
  /// shard=contiguous|shuffled).
  ShardStrategy sharding = ShardStrategy::kContiguous;
  /// Seed for kShuffled sharding; 0 lets the coordinator derive one from
  /// the run seed (standalone trees fall back to a fixed constant).
  std::uint64_t shard_seed = 0;

  /// Folds after which an interior node still expecting `expected`
  /// children ships: all of them under kSync, min(edge_buffer, expected)
  /// under kBuffered.
  std::size_t ship_after(std::size_t expected) const;

  /// Throws InvalidArgument on degenerate specs, naming the valid options:
  /// kHier without tiers (or with a zero tier), kFlat carrying any
  /// hier-only option (a loud error beats silently ignoring them), more
  /// tier backhaul overrides than tiers, malformed/comm-carrying backhaul
  /// specs, or a buffered edge mode without a buffer size (and vice versa).
  void validate() const;
};

/// Contiguous index shards: clients [0, fanout) under edge 0, the next
/// fanout under edge 1, ... Every shard is non-empty and at most `fanout`
/// long. Throws InvalidArgument when clients or fanout is 0.
std::vector<std::vector<std::size_t>> shard_clients(std::size_t clients,
                                                    std::size_t fanout);

/// Sharding with a strategy: kContiguous matches the overload above;
/// kShuffled applies a seeded Fisher-Yates permutation to the client
/// indices first (deterministic per seed), then splits contiguously — so
/// shard SIZES match the contiguous split but membership is decorrelated
/// from index order (device class, arrival order, ...).
std::vector<std::vector<std::size_t>> shard_clients(std::size_t clients,
                                                    std::size_t fanout,
                                                    ShardStrategy strategy,
                                                    std::uint64_t seed);

/// One finalized, re-encoded partial: the payload that crosses a backhaul
/// link plus its encode stats and the aggregation weight it carries (the
/// scalar weight rides the container header at negligible cost, so the
/// simulation charges only the payload bytes).
struct EncodedPartial {
  Bytes payload;
  CompressionStats stats;
  double weight = 0.0;
  std::size_t clients = 0;  // leaf updates folded into the partial
  /// L2 norm of the node's carried EF residual after this encode (0 with
  /// edge EF off or a lossless tier codec).
  double ef_residual_norm = 0.0;
};

/// One interior aggregation point: a streaming accumulator round-keyed
/// exactly like the root's, re-encoding through its tier's codec, with an
/// optional edge-side error-feedback accumulator for lossy tiers.
class EdgeAggregator {
 public:
  /// `id` is the node's tree-wide flat interior index, `tier` its 1-based
  /// level, `members` its static children (client indices at tier 1, child
  /// node level-indices above).
  EdgeAggregator(std::size_t id, std::size_t tier,
                 std::vector<std::size_t> members, UpdateCodecPtr codec,
                 bool error_feedback = false);

  std::size_t id() const { return id_; }
  std::size_t tier() const { return tier_; }
  const std::vector<std::size_t>& members() const { return members_; }

  /// Open a round; the accumulator mirrors `reference`'s structure.
  void begin_round(const StateDict& reference);
  /// Fold one decoded child payload (the same streaming path as the root).
  /// `leaves` is the number of LEAF updates the payload carries — 1 for a
  /// client update, the child partial's own leaf count above tier 1 — so
  /// EncodedPartial::clients telescopes through the tree.
  void fold(const StateDict& update, double weight, std::size_t leaves = 1);
  /// Abandon the open round (a node whose whole cohort churned away).
  void abort_round();
  /// Close the round: finalize the partial mean and re-encode it through
  /// this node's tier codec. With edge EF on and a lossy codec, the
  /// carried residual is folded in before the encode and what the encoder
  /// dropped is absorbed back. `round` pins the EncodeContext so
  /// round-aware policies resolve; the context's client_id is the node's
  /// ones-complement (-1 - id), keeping interior encodes distinct from any
  /// client id.
  EncodedPartial finalize_and_encode(int round);

  /// The node's carried EF accumulator (checkpoint save/restore; inert
  /// unless edge EF rides a lossy tier codec).
  const ErrorFeedbackAccumulator& feedback() const { return feedback_; }
  ErrorFeedbackAccumulator& feedback() { return feedback_; }

 private:
  std::size_t id_;
  std::size_t tier_;
  std::vector<std::size_t> members_;
  UpdateCodecPtr codec_;
  StreamingMean mean_;
  std::size_t leaves_ = 0;  // leaf updates folded this round
  bool ef_on_ = false;
  ErrorFeedbackAccumulator feedback_;
};

/// The interior of a multi-tier aggregation tree: one level of
/// EdgeAggregators per tier, the static client shards under tier 1, one
/// uplink per node, and one codec per tier.
class AggregationTree {
 public:
  /// Builds the interior for a kHier config (throws InvalidArgument
  /// otherwise, or when the config fails validate()). Level sizes follow
  /// ceil division: level 0 has ceil(clients / tiers[0]) nodes, level l
  /// has ceil(level_size(l-1) / tiers[l]).
  AggregationTree(const TopologyConfig& config, std::size_t clients);

  /// Number of interior levels (tiers.size()).
  std::size_t levels() const { return levels_.size(); }
  std::size_t level_size(std::size_t level) const;
  /// Number of tier-1 edges (level_size(0)).
  std::size_t edge_count() const { return level_size(0); }
  /// Total interior nodes across every level.
  std::size_t interior_nodes() const { return total_nodes_; }
  /// Tree-wide flat index of node `i` at `level` (level-0 nodes first,
  /// then level 1, ...) — the indexing behind per-node accounting and the
  /// 1 + flat trace node ids.
  std::size_t flat_index(std::size_t level, std::size_t i) const;
  EdgeAggregator& node(std::size_t level, std::size_t i);
  const EdgeAggregator& node(std::size_t level, std::size_t i) const;
  /// Level-index of the parent of node `i` at `level` (requires
  /// level + 1 < levels(); top-level nodes ship straight to the root).
  std::size_t parent_of(std::size_t level, std::size_t i) const;
  /// This node's uplink (to its parent, or to the root for the top level).
  const net::SimulatedNetwork& uplink(std::size_t level, std::size_t i) const;
  /// Parent-side decode of a partial shipped from `level`.
  StateDict decode_partial(std::size_t level, ByteSpan payload,
                           CompressionStats* stats = nullptr) const;
  /// The static client shards under the tier-1 edges (what each round's
  /// cohorts are drawn from; churn re-sharding overrides per round).
  const std::vector<std::vector<std::size_t>>& base_shards() const {
    return base_shards_;
  }

 private:
  struct Level {
    UpdateCodecPtr codec;
    net::HeterogeneousNetwork links;  // one uplink per node at this level
    std::vector<EdgeAggregator> nodes;
    std::size_t flat_offset = 0;  // tree-wide index of this level's node 0
    std::size_t fan = 1;          // this tier's configured fan-in
  };
  std::vector<Level> levels_;
  std::vector<std::vector<std::size_t>> base_shards_;
  std::size_t total_nodes_ = 0;
};

}  // namespace fedsz::core
