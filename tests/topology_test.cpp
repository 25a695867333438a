// Tests for the hierarchical federation topology: client sharding,
// partial-aggregate exactness, the flat-equivalence regression pin
// (hier + identity backhaul + fanout == clients must reproduce the flat
// SyncScheduler trajectory exactly), determinism across thread counts,
// per-tier byte accounting, per-node decoded-update peaks, and the
// degenerate-config rejections.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/codec_spec.hpp"
#include "core/fl/coordinator.hpp"
#include "core/fl/topology.hpp"
#include "data/synthetic.hpp"

namespace fedsz::core {
namespace {

nn::ModelConfig tiny_model() {
  nn::ModelConfig cfg;
  cfg.arch = "mobilenet_v2";
  cfg.scale = nn::ModelScale::kTiny;
  return cfg;
}

TEST(ShardClientsTest, ContiguousShardsCoverEveryClient) {
  const auto shards = shard_clients(10, 4);
  ASSERT_EQ(shards.size(), 3u);  // ceil(10 / 4)
  EXPECT_EQ(shards[0], (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(shards[1], (std::vector<std::size_t>{4, 5, 6, 7}));
  EXPECT_EQ(shards[2], (std::vector<std::size_t>{8, 9}));  // short tail
  // fanout >= clients collapses to a single edge.
  EXPECT_EQ(shard_clients(3, 8).size(), 1u);
  EXPECT_THROW(shard_clients(0, 4), InvalidArgument);
  EXPECT_THROW(shard_clients(4, 0), InvalidArgument);
}

TEST(TopologyConfigTest, ValidateRejectsDegenerateSpecs) {
  TopologyConfig config;
  EXPECT_NO_THROW(config.validate());  // flat default
  config.mode = TopologyMode::kHier;  // hier without a tier
  EXPECT_THROW(config.validate(), InvalidArgument);
  config.tiers = {4};
  EXPECT_NO_THROW(config.validate());
  config.backhaul_spec = "fedsz:eb=rel:1e-3";
  EXPECT_NO_THROW(config.validate());
  config.backhaul_spec = "not-a-codec";  // malformed backhaul spec
  EXPECT_THROW(config.validate(), InvalidArgument);
  config.backhaul_spec = "fedsz:ef=on";  // comm keys cannot nest
  EXPECT_THROW(config.validate(), InvalidArgument);
  // Flat runs silently dropping hier-only options would mask mistakes.
  config = TopologyConfig{};
  config.backhaul_spec = "identity";
  EXPECT_THROW(config.validate(), InvalidArgument);
  config = TopologyConfig{};
  config.tiers = {8, 4};
  EXPECT_THROW(config.validate(), InvalidArgument);
  config = TopologyConfig{};
  config.edge_mode = EdgeMode::kBuffered;
  config.edge_buffer = 2;
  EXPECT_THROW(config.validate(), InvalidArgument);
  config = TopologyConfig{};
  config.sharding = ShardStrategy::kShuffled;
  EXPECT_THROW(config.validate(), InvalidArgument);
}

TEST(TopologyConfigTest, ValidateRejectsDegenerateTierVectors) {
  TopologyConfig config;
  config.mode = TopologyMode::kHier;
  config.tiers = {8};
  EXPECT_NO_THROW(config.validate());
  // Zero fan-ins are degenerate at any depth.
  config.tiers = {8, 0};
  EXPECT_THROW(config.validate(), InvalidArgument);
  config.tiers = {8, 4};
  EXPECT_NO_THROW(config.validate());
  // More per-tier backhaul overrides than tiers.
  config.tier_backhaul_specs = {"", "identity", "identity"};
  EXPECT_THROW(config.validate(), InvalidArgument);
  config.tier_backhaul_specs = {"", "fedsz:eb=rel:1e-3"};
  EXPECT_NO_THROW(config.validate());
  // Per-tier overrides are codec specs: malformed or comm-carrying throws.
  config.tier_backhaul_specs = {"", "fedsz:ef=on"};
  EXPECT_THROW(config.validate(), InvalidArgument);
  config.tier_backhaul_specs.clear();
  // Buffered mode needs a buffer size; sync must not carry one.
  config.edge_mode = EdgeMode::kBuffered;
  config.edge_buffer = 0;
  EXPECT_THROW(config.validate(), InvalidArgument);
  config.edge_buffer = 2;
  EXPECT_NO_THROW(config.validate());
  config.edge_mode = EdgeMode::kSync;
  EXPECT_THROW(config.validate(), InvalidArgument);
}

TEST(TopologyConfigTest, FlRunConfigValidateAndCommSpecRoundTrip) {
  FlRunConfig config;
  config.apply_comm_spec(
      parse_codec_spec("fedsz:topology=hier:8,backhaul=fedsz:eb=rel:1e-3"));
  EXPECT_EQ(config.topology.mode, TopologyMode::kHier);
  EXPECT_EQ(config.topology.tiers, std::vector<std::size_t>{8});
  EXPECT_EQ(parse_codec_spec(config.topology.backhaul_spec).bound.value,
            1e-3);
  EXPECT_NO_THROW(config.validate());
  config.topology.tiers.clear();  // degenerate hier flows through validate()
  EXPECT_THROW(config.validate(), InvalidArgument);
  // The full multi-tier key set folds in.
  config = FlRunConfig{};
  config.apply_comm_spec(parse_codec_spec(
      "fedsz:topology=hier:4x2,backhaul2=identity,edgemode=buffered:2,"
      "edgeef=on,shard=shuffled"));
  EXPECT_EQ(config.topology.tiers, (std::vector<std::size_t>{4, 2}));
  ASSERT_EQ(config.topology.tier_backhaul_specs.size(), 2u);
  EXPECT_EQ(config.topology.tier_backhaul_specs[1], "identity");
  EXPECT_EQ(config.topology.edge_mode, EdgeMode::kBuffered);
  EXPECT_EQ(config.topology.edge_buffer, 2u);
  EXPECT_TRUE(config.topology.edge_error_feedback);
  EXPECT_EQ(config.topology.sharding, ShardStrategy::kShuffled);
  EXPECT_NO_THROW(config.validate());
  // Failure-schedule validation flows through FlRunConfig::validate too.
  config.failures.dropout_rate = 1.5;
  EXPECT_THROW(config.validate(), InvalidArgument);
  config.failures.dropout_rate = 0.0;
  config.failures.edge_failure_rate = 0.25;
  config.topology = TopologyConfig{};  // flat: no edges to crash
  EXPECT_THROW(config.validate(), InvalidArgument);
}

TEST(AggregationTreeTest, OwnershipAndConstructionGuards) {
  TopologyConfig config;
  config.mode = TopologyMode::kHier;
  config.tiers = {3};
  const AggregationTree tree(config, 7);
  EXPECT_EQ(tree.edge_count(), 3u);
  EXPECT_EQ(tree.base_shards()[0], (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(tree.base_shards()[1], (std::vector<std::size_t>{3, 4, 5}));
  EXPECT_EQ(tree.base_shards()[2], std::vector<std::size_t>{6});
  EXPECT_EQ(tree.node(0, 2).members().size(), 1u);
  EXPECT_THROW(tree.node(0, 3), InvalidArgument);
  // Flat configs cannot build a tree, and zero clients cannot shard.
  EXPECT_THROW(AggregationTree(TopologyConfig{}, 4), InvalidArgument);
  EXPECT_THROW(AggregationTree(config, 0), InvalidArgument);
}

TEST(ShardClientsTest, ShuffledShardingIsASeededPermutation) {
  const auto a = shard_clients(10, 4, ShardStrategy::kShuffled, 99);
  const auto b = shard_clients(10, 4, ShardStrategy::kShuffled, 99);
  const auto c = shard_clients(10, 4, ShardStrategy::kShuffled, 100);
  EXPECT_EQ(a, b);  // deterministic per seed
  EXPECT_NE(a, c);  // and actually seed-dependent
  // Shard SIZES match the contiguous split; membership is a permutation.
  const auto contiguous = shard_clients(10, 4);
  ASSERT_EQ(a.size(), contiguous.size());
  std::vector<std::size_t> seen;
  for (std::size_t e = 0; e < a.size(); ++e) {
    EXPECT_EQ(a[e].size(), contiguous[e].size());
    seen.insert(seen.end(), a[e].begin(), a[e].end());
  }
  std::sort(seen.begin(), seen.end());
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(seen[i], i);
  // kContiguous through the 4-arg overload matches the classic split.
  EXPECT_EQ(shard_clients(10, 4, ShardStrategy::kContiguous, 99), contiguous);
}

TEST(AggregationTreeTest, MultiTierShapeParentsAndFlatIndexing) {
  TopologyConfig config;
  config.mode = TopologyMode::kHier;
  config.tiers = {4, 3, 2};
  const AggregationTree tree(config, 23);
  ASSERT_EQ(tree.levels(), 3u);
  EXPECT_EQ(tree.level_size(0), 6u);  // ceil(23 / 4)
  EXPECT_EQ(tree.level_size(1), 2u);  // ceil(6 / 3)
  EXPECT_EQ(tree.level_size(2), 1u);  // ceil(2 / 2)
  EXPECT_EQ(tree.interior_nodes(), 9u);
  // Flat indexing: level 0 first, then level 1, then level 2.
  EXPECT_EQ(tree.flat_index(0, 0), 0u);
  EXPECT_EQ(tree.flat_index(0, 5), 5u);
  EXPECT_EQ(tree.flat_index(1, 0), 6u);
  EXPECT_EQ(tree.flat_index(2, 0), 8u);
  EXPECT_THROW(tree.flat_index(0, 6), InvalidArgument);
  EXPECT_THROW(tree.flat_index(3, 0), InvalidArgument);
  // Parents group by the NEXT tier's fan-in.
  EXPECT_EQ(tree.parent_of(0, 0), 0u);
  EXPECT_EQ(tree.parent_of(0, 2), 0u);
  EXPECT_EQ(tree.parent_of(0, 3), 1u);
  EXPECT_EQ(tree.parent_of(0, 5), 1u);
  EXPECT_EQ(tree.parent_of(1, 0), 0u);
  EXPECT_EQ(tree.parent_of(1, 1), 0u);
  EXPECT_THROW(tree.parent_of(2, 0), InvalidArgument);  // top ships to root
  // Upper-tier members are child level-indices; tiers are 1-based.
  EXPECT_EQ(tree.node(1, 0).members(),
            (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(tree.node(1, 1).members(), (std::vector<std::size_t>{3, 4, 5}));
  EXPECT_EQ(tree.node(2, 0).tier(), 3u);
  // The short tail still lands somewhere: the tier-1 shards cover every
  // client exactly once.
  ASSERT_EQ(tree.base_shards().size(), 6u);
  std::vector<int> owners(23, 0);
  for (const std::vector<std::size_t>& shard : tree.base_shards())
    for (const std::size_t i : shard) ++owners[i];
  EXPECT_EQ(owners, std::vector<int>(23, 1));
}

TEST(PartialAggregateTest, MergedPartialsReproduceTheFlatWeightedMean) {
  StateDict reference;
  reference.set("w", Tensor::from_data({4}, {0.0f, 0.0f, 0.0f, 0.0f}));
  auto update = [](float v) {
    StateDict dict;
    dict.set("w", Tensor::from_data({4}, {v, 2 * v, -v, 0.5f * v}));
    return dict;
  };
  // Flat: one accumulator folds all four updates.
  StreamingMean flat;
  flat.begin(reference);
  flat.add(update(1.0f), 10.0);
  flat.add(update(2.0f), 30.0);
  flat.add(update(-3.0f), 20.0);
  flat.add(update(4.0f), 40.0);
  const StateDict flat_mean = flat.finalize();
  // Hier: two edges fold two updates each; the root merges the partials.
  StreamingMean left, right, root;
  left.begin(reference);
  left.add(update(1.0f), 10.0);
  left.add(update(2.0f), 30.0);
  right.begin(reference);
  right.add(update(-3.0f), 20.0);
  right.add(update(4.0f), 40.0);
  const PartialAggregate a = left.finalize_partial();
  const PartialAggregate b = right.finalize_partial();
  EXPECT_DOUBLE_EQ(a.weight, 40.0);
  EXPECT_DOUBLE_EQ(b.weight, 60.0);
  EXPECT_EQ(a.count, 2u);
  root.begin(reference);
  root.add(a.mean, a.weight);
  root.add(b.mean, b.weight);
  const StateDict merged = root.finalize();
  for (std::size_t k = 0; k < 4; ++k)
    EXPECT_NEAR(merged.get("w")[k], flat_mean.get("w")[k], 1e-6f);
  // A single partial merged into a fresh accumulator is bit-exact — the
  // foundation of the flat-equivalence pin below.
  StreamingMean whole, relay;
  whole.begin(reference);
  whole.add(update(1.0f), 10.0);
  whole.add(update(2.0f), 30.0);
  whole.add(update(-3.0f), 20.0);
  whole.add(update(4.0f), 40.0);
  const PartialAggregate all = whole.finalize_partial();
  relay.begin(reference);
  relay.add(all.mean, all.weight);
  EXPECT_TRUE(relay.finalize().equals(flat_mean));
}

TEST(PartialAggregateTest, StreamingPartialPathAndZeroWeight) {
  StateDict reference;
  reference.set("w", Tensor::from_data({2}, {0.0f, 0.0f}));
  StateDict update;
  update.set("w", Tensor::from_data({2}, {2.0f, 4.0f}));
  StreamingMean edge;
  edge.begin(reference);
  EXPECT_THROW(edge.finalize_partial(), InvalidArgument);  // nothing folded
  edge.begin(reference);
  edge.add(update, 0.0);  // zero weight is a legal partial
  const PartialAggregate partial = edge.finalize_partial();
  EXPECT_DOUBLE_EQ(partial.weight, 0.0);
  EXPECT_EQ(partial.count, 1u);
  // Root side: a zero-weight partial merges as a no-op.
  StreamingMean root;
  root.begin(reference);
  root.add(partial.mean, partial.weight);
  root.add(update, 8.0);
  const StateDict global = root.finalize();
  EXPECT_FLOAT_EQ(global.get("w")[0], 2.0f);
  EXPECT_FLOAT_EQ(global.get("w")[1], 4.0f);
}

// ---- coordinator runs ----

FlRunConfig hier_config(std::size_t clients, int rounds, std::size_t fanout,
                        const std::string& backhaul,
                        std::size_t threads = 2) {
  FlRunConfig config;
  config.clients = clients;
  config.rounds = rounds;
  config.eval_limit = 64;
  config.threads = threads;
  config.seed = 123;
  config.client.batch_size = 16;
  config.topology.mode = TopologyMode::kHier;
  config.topology.tiers = {fanout};
  config.topology.backhaul_spec = backhaul;
  return config;
}

TEST(TopologyCoordinatorTest, IdentityBackhaulFanoutNReproducesFlatExactly) {
  auto [train, test] = data::make_dataset("cifar10");
  const auto codec = make_codec(parse_codec_spec("fedsz:eb=rel:1e-2"));

  FlRunConfig flat;
  flat.clients = 3;
  flat.rounds = 3;
  flat.eval_limit = 64;
  flat.threads = 3;
  flat.seed = 123;
  flat.client.batch_size = 16;
  FlCoordinator flat_coordinator(tiny_model(), data::take(train, 96),
                                 data::take(test, 64), flat, codec);
  const FlRunResult flat_result = flat_coordinator.run();

  // One edge folding everyone, identity backhaul: the partial crosses the
  // backhaul bit-exactly and merges bit-exactly, so the accuracy/byte
  // trajectory must match the flat run EXACTLY, round for round.
  FlRunConfig hier = hier_config(3, 3, /*fanout=*/3, "identity", 3);
  FlCoordinator hier_coordinator(tiny_model(), data::take(train, 96),
                                 data::take(test, 64), hier, codec);
  const FlRunResult hier_result = hier_coordinator.run();

  ASSERT_EQ(hier_result.rounds.size(), flat_result.rounds.size());
  for (std::size_t r = 0; r < flat_result.rounds.size(); ++r) {
    EXPECT_DOUBLE_EQ(hier_result.rounds[r].accuracy,
                     flat_result.rounds[r].accuracy)
        << "round " << r;
    EXPECT_EQ(hier_result.rounds[r].bytes_sent,
              flat_result.rounds[r].bytes_sent)
        << "round " << r;
    EXPECT_EQ(hier_result.rounds[r].participants,
              flat_result.rounds[r].participants);
    // The hier run's single partial carries the whole cohort.
    ASSERT_EQ(hier_result.rounds[r].edges.size(), 1u);
    EXPECT_EQ(hier_result.rounds[r].edges[0].cohort, 3u);
    EXPECT_GT(hier_result.rounds[r].backhaul_bytes, 0u);
    // Identity backhaul: the partial ships uncompressed.
    EXPECT_NEAR(hier_result.rounds[r].backhaul_compression_ratio(), 1.0,
                1e-9);
  }
  EXPECT_DOUBLE_EQ(hier_result.final_accuracy, flat_result.final_accuracy);
}

TEST(TopologyCoordinatorTest, DeterministicAndByteIdenticalAcrossThreads) {
  auto [train, test] = data::make_dataset("cifar10");
  auto run_once = [&](std::size_t threads) {
    FlRunConfig config =
        hier_config(8, 2, /*fanout=*/3, "fedsz:eb=rel:1e-2", threads);
    config.downlink_spec = "fedsz:eb=rel:1e-3";
    config.evaluate_every_round = false;
    FlCoordinator coordinator(tiny_model(), data::take(train, 64),
                              data::take(test, 32), config,
                              make_fedsz_codec());
    return coordinator.run();
  };
  const FlRunResult a = run_once(1);
  const FlRunResult b = run_once(4);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    const RoundRecord& ra = a.rounds[r];
    const RoundRecord& rb = b.rounds[r];
    EXPECT_EQ(ra.bytes_sent, rb.bytes_sent);
    EXPECT_EQ(ra.backhaul_bytes, rb.backhaul_bytes);
    EXPECT_EQ(ra.downlink_bytes, rb.downlink_bytes);
    EXPECT_EQ(ra.backhaul_downlink_bytes, rb.backhaul_downlink_bytes);
    EXPECT_DOUBLE_EQ(ra.virtual_seconds, rb.virtual_seconds);
    ASSERT_EQ(ra.clients.size(), rb.clients.size());
    for (std::size_t c = 0; c < ra.clients.size(); ++c) {
      EXPECT_EQ(ra.clients[c].client, rb.clients[c].client);
      EXPECT_EQ(ra.clients[c].node, rb.clients[c].node);
      EXPECT_EQ(ra.clients[c].payload_bytes, rb.clients[c].payload_bytes);
    }
    ASSERT_EQ(ra.edges.size(), rb.edges.size());
    for (std::size_t e = 0; e < ra.edges.size(); ++e) {
      EXPECT_EQ(ra.edges[e].edge, rb.edges[e].edge);
      EXPECT_EQ(ra.edges[e].payload_bytes, rb.edges[e].payload_bytes);
      EXPECT_DOUBLE_EQ(ra.edges[e].arrival_seconds,
                       rb.edges[e].arrival_seconds);
    }
  }
  EXPECT_DOUBLE_EQ(a.final_accuracy, b.final_accuracy);
}

TEST(TopologyCoordinatorTest, PerTierByteAccountingSumsToRecordTotals) {
  auto [train, test] = data::make_dataset("cifar10");
  FlRunConfig config = hier_config(6, 2, /*fanout=*/2, "fedsz:eb=rel:1e-2");
  config.downlink_spec = "fedsz:eb=rel:1e-3";
  FlCoordinator coordinator(tiny_model(), data::take(train, 48),
                            data::take(test, 32), config,
                            make_fedsz_codec());
  const FlRunResult result = coordinator.run();
  ASSERT_EQ(result.rounds.size(), 2u);
  for (const RoundRecord& record : result.rounds) {
    ASSERT_EQ(record.edges.size(), 3u);  // ceil(6 / 2)
    std::size_t uplink = 0, downlink = 0, backhaul = 0, backhaul_raw = 0,
                backhaul_down = 0;
    for (const ClientTraceEntry& entry : record.clients) {
      uplink += entry.payload_bytes;
      downlink += entry.downlink_bytes;
      EXPECT_GE(entry.node, 1u);  // every update folded at an edge
      EXPECT_LE(entry.node, 3u);
    }
    for (const EdgeTraceEntry& entry : record.edges) {
      backhaul += entry.payload_bytes;
      backhaul_raw += entry.raw_bytes;
      backhaul_down += entry.downlink_bytes;
      EXPECT_EQ(entry.cohort, 2u);
      EXPECT_GT(entry.weight, 0.0);
      EXPECT_GT(entry.transfer_seconds, 0.0);
      EXPECT_GT(entry.downlink_bytes, 0u);  // root->edge broadcast hop
      // The partial merges at the root after it left the edge.
      EXPECT_GE(entry.arrival_seconds, entry.transfer_seconds);
    }
    EXPECT_EQ(record.bytes_sent, uplink);
    EXPECT_EQ(record.downlink_bytes, downlink);
    EXPECT_EQ(record.backhaul_bytes, backhaul);
    EXPECT_EQ(record.backhaul_raw_bytes, backhaul_raw);
    EXPECT_EQ(record.backhaul_downlink_bytes, backhaul_down);
    EXPECT_GT(record.backhaul_bytes, 0u);
    // The lossy backhaul actually compresses the partials.
    EXPECT_GT(record.backhaul_compression_ratio(), 1.0);
    EXPECT_GT(record.backhaul_seconds, 0.0);
  }
}

TEST(TopologyCoordinatorTest, StreamingKeepsEveryNodeAtOneDecodedUpdate) {
  auto [train, test] = data::make_dataset("cifar10");
  FlRunConfig config = hier_config(8, 1, /*fanout=*/4, "");
  config.client.batch_size = 2;
  config.eval_limit = 16;
  config.threads = 4;
  FlCoordinator coordinator(tiny_model(), data::take(train, 16),
                            data::take(test, 16), config,
                            make_identity_codec());
  const FlRunResult result = coordinator.run();
  ASSERT_EQ(result.peak_decoded_per_node.size(), 3u);  // root + 2 edges
  for (const std::size_t peak : result.peak_decoded_per_node) {
    EXPECT_EQ(peak, 1u);
    EXPECT_LE(peak, config.topology.tiers[0]);
  }
  EXPECT_EQ(result.peak_decoded_updates, 1u);
}

TEST(TopologyCoordinatorTest, SampledSchedulerDrawsPerEdgeCohort) {
  auto [train, test] = data::make_dataset("cifar10");
  FlRunConfig config = hier_config(8, 2, /*fanout=*/4, "");
  config.client.batch_size = 2;
  config.eval_limit = 16;
  config.evaluate_every_round = false;
  FlCoordinator coordinator(tiny_model(), data::take(train, 32),
                            data::take(test, 16), config,
                            make_identity_codec(),
                            make_sampled_sync_scheduler(0.5));
  const FlRunResult result = coordinator.run();
  ASSERT_EQ(result.rounds.size(), 2u);
  for (const RoundRecord& record : result.rounds) {
    // ceil(0.5 * 4) sampled under EACH edge, not 4 drawn globally.
    EXPECT_EQ(record.participants, 4u);
    ASSERT_EQ(record.edges.size(), 2u);
    for (const EdgeTraceEntry& entry : record.edges)
      EXPECT_EQ(entry.cohort, 2u);
    // Sampled members stay inside their edge's contiguous shard.
    for (const ClientTraceEntry& entry : record.clients)
      EXPECT_EQ(entry.node, 1u + entry.client / 4);
  }
}

TEST(TopologyCoordinatorTest, FailureFreeChainReproducesFlatExactly) {
  auto [train, test] = data::make_dataset("cifar10");
  const auto codec = make_codec(parse_codec_spec("fedsz:eb=rel:1e-2"));

  FlRunConfig flat;
  flat.clients = 3;
  flat.rounds = 2;
  flat.eval_limit = 64;
  flat.threads = 3;
  flat.seed = 123;
  flat.client.batch_size = 16;
  FlCoordinator flat_coordinator(tiny_model(), data::take(train, 96),
                                 data::take(test, 64), flat, codec);
  const FlRunResult flat_result = flat_coordinator.run();

  // A CHAIN ({clients, 1, 1}): one edge folds everyone, then each upper
  // tier relays a single partial. Single-partial merges are bit-exact and
  // identity re-encodes round-trip, so the multi-tier run must reproduce
  // the flat accuracy/byte trajectory exactly — the telescoped form of the
  // one-tier pin above.
  FlRunConfig chain = flat;
  chain.topology.mode = TopologyMode::kHier;
  chain.topology.tiers = {3, 1, 1};
  FlCoordinator chain_coordinator(tiny_model(), data::take(train, 96),
                                  data::take(test, 64), chain, codec);
  const FlRunResult chain_result = chain_coordinator.run();

  ASSERT_EQ(chain_result.rounds.size(), flat_result.rounds.size());
  for (std::size_t r = 0; r < flat_result.rounds.size(); ++r) {
    const RoundRecord& record = chain_result.rounds[r];
    EXPECT_DOUBLE_EQ(record.accuracy, flat_result.rounds[r].accuracy)
        << "round " << r;
    EXPECT_EQ(record.bytes_sent, flat_result.rounds[r].bytes_sent);
    EXPECT_EQ(record.participants, flat_result.rounds[r].participants);
    EXPECT_DOUBLE_EQ(record.aggregate_weight,
                     flat_result.rounds[r].aggregate_weight);
    // One partial per interior node, tiers 1..3, and the per-tier byte
    // split sums back to the round totals.
    ASSERT_EQ(record.edges.size(), 3u);
    ASSERT_EQ(record.backhaul_tier_bytes.size(), 3u);
    ASSERT_EQ(record.backhaul_tier_raw_bytes.size(), 3u);
    std::size_t tier_sum = 0, tier_raw_sum = 0;
    for (std::size_t t = 0; t < 3; ++t) {
      tier_sum += record.backhaul_tier_bytes[t];
      tier_raw_sum += record.backhaul_tier_raw_bytes[t];
    }
    EXPECT_EQ(tier_sum, record.backhaul_bytes);
    EXPECT_EQ(tier_raw_sum, record.backhaul_raw_bytes);
    for (const EdgeTraceEntry& entry : record.edges) {
      EXPECT_GE(entry.tier, 1u);
      EXPECT_LE(entry.tier, 3u);
      EXPECT_EQ(entry.status, DeliveryStatus::kAggregated);
      EXPECT_EQ(entry.cohort, 3u);  // every partial carries the whole cohort
    }
  }
  EXPECT_DOUBLE_EQ(chain_result.final_accuracy, flat_result.final_accuracy);
  // Every interior node streamed: one decoded payload alive at a time.
  ASSERT_EQ(chain_result.peak_decoded_per_node.size(), 4u);
  for (const std::size_t peak : chain_result.peak_decoded_per_node)
    EXPECT_EQ(peak, 1u);
}

// ---- churn injection ----

TEST(ChurnCoordinatorTest, DropoutConservesAggregateWeight) {
  auto [train, test] = data::make_dataset("cifar10");
  FlRunConfig config = hier_config(6, 2, /*fanout=*/3, "");
  config.evaluate_every_round = false;
  config.eval_limit = 16;
  config.client.batch_size = 2;
  config.failures.dropout_rate = 0.4;
  FlCoordinator coordinator(tiny_model(), data::take(train, 24),
                            data::take(test, 16), config,
                            make_identity_codec());
  const FlRunResult result = coordinator.run();
  ASSERT_EQ(result.rounds.size(), 2u);
  std::size_t dropped = 0;
  for (const RoundRecord& record : result.rounds) {
    double aggregated = 0.0;
    std::size_t folded = 0;
    for (const ClientTraceEntry& entry : record.clients) {
      if (entry.status == DeliveryStatus::kAggregated) {
        EXPECT_GT(entry.weight, 0.0);
        aggregated += entry.weight;
        ++folded;
      } else {
        // A dropped client vanishes before uploading: no payload, no
        // weight, but the trace still records the churn.
        ASSERT_EQ(entry.status, DeliveryStatus::kDropped);
        EXPECT_EQ(entry.weight, 0.0);
        EXPECT_EQ(entry.payload_bytes, 0u);
        ++dropped;
      }
    }
    // The ledger: only aggregated weight reaches the root.
    EXPECT_DOUBLE_EQ(record.aggregate_weight, aggregated);
    EXPECT_EQ(record.participants, folded);
    EXPECT_EQ(record.clients.size(), 6u);  // everyone is traced
  }
  EXPECT_GT(dropped, 0u);  // rate 0.4 over 12 dispatches, pinned seed
}

TEST(ChurnCoordinatorTest, StragglerDeadlineEvictsAndStillClosesRounds) {
  auto [train, test] = data::make_dataset("cifar10");
  auto base = [] {
    FlRunConfig config = hier_config(6, 2, /*fanout=*/3, "");
    config.evaluate_every_round = false;
    config.eval_limit = 16;
    config.client.batch_size = 2;
    config.compute_jitter = 0.5;  // spread arrivals so a deadline can split
    return config;
  };
  auto run = [&](const FlRunConfig& config) {
    FlCoordinator coordinator(tiny_model(), data::take(train, 24),
                              data::take(test, 16), config,
                              make_identity_codec());
    return coordinator.run();
  };
  // Reference run to place the deadline strictly between the 3rd and 4th
  // round-0 arrivals — the draws are seed-deterministic, so the churn run
  // repeats them and exactly three clients straggle past the deadline.
  const FlRunResult reference = run(base());
  std::vector<double> arrivals;
  for (const ClientTraceEntry& entry : reference.rounds[0].clients)
    arrivals.push_back(entry.arrival_seconds);
  std::sort(arrivals.begin(), arrivals.end());
  ASSERT_EQ(arrivals.size(), 6u);
  ASSERT_LT(arrivals[2], arrivals[3]);
  FlRunConfig config = base();
  config.failures.straggler_deadline_seconds =
      0.5 * (arrivals[2] + arrivals[3]);
  const FlRunResult result = run(config);
  ASSERT_EQ(result.rounds.size(), 2u);  // eviction never wedges the pump
  std::size_t evicted_round0 = 0;
  double aggregated = 0.0;
  for (const ClientTraceEntry& entry : result.rounds[0].clients) {
    if (entry.status == DeliveryStatus::kEvicted) {
      EXPECT_EQ(entry.weight, 0.0);
      EXPECT_EQ(entry.payload_bytes, 0u);
      ++evicted_round0;
    } else if (entry.status == DeliveryStatus::kAggregated) {
      aggregated += entry.weight;
    }
  }
  EXPECT_EQ(evicted_round0, 3u);
  EXPECT_EQ(result.rounds[0].participants, 3u);
  EXPECT_DOUBLE_EQ(result.rounds[0].aggregate_weight, aggregated);
  // Later rounds keep running (evicted clients are redispatched).
  EXPECT_EQ(result.rounds[1].clients.size(), 6u);
}

TEST(ChurnCoordinatorTest, EdgeCrashReShardsCohortsToSurvivingSiblings) {
  auto [train, test] = data::make_dataset("cifar10");
  FlRunConfig config = hier_config(6, 3, /*fanout=*/2, "");
  config.evaluate_every_round = false;
  config.eval_limit = 16;
  config.client.batch_size = 2;
  config.failures.edge_failure_rate = 0.5;
  FlCoordinator coordinator(tiny_model(), data::take(train, 24),
                            data::take(test, 16), config,
                            make_identity_codec());
  const FlRunResult result = coordinator.run();
  ASSERT_EQ(result.rounds.size(), 3u);
  std::size_t crashes = 0;
  for (const RoundRecord& record : result.rounds) {
    crashes += record.crashed_nodes.size();
    EXPECT_LT(record.crashed_nodes.size(), 3u);  // one edge always survives
    // Crash or not, full sync participation: every client is re-homed to a
    // surviving sibling and still aggregates.
    ASSERT_EQ(record.clients.size(), 6u);
    double aggregated = 0.0;
    for (const ClientTraceEntry& entry : record.clients) {
      EXPECT_EQ(entry.status, DeliveryStatus::kAggregated);
      aggregated += entry.weight;
      for (const std::size_t crashed : record.crashed_nodes)
        EXPECT_NE(entry.node, 1 + crashed)
            << "client folded at a crashed edge";
    }
    EXPECT_EQ(record.participants, 6u);
    EXPECT_DOUBLE_EQ(record.aggregate_weight, aggregated);
    // Only surviving edges ship partials.
    EXPECT_EQ(record.edges.size(), 3u - record.crashed_nodes.size());
  }
  EXPECT_GT(crashes, 0u);  // rate 0.5 over 9 edge-rounds, pinned seed
}

TEST(ChurnCoordinatorTest, ChurnIsDeterministicAcrossThreadCounts) {
  auto [train, test] = data::make_dataset("cifar10");
  auto run_once = [&](std::size_t threads) {
    FlRunConfig config =
        hier_config(8, 2, /*fanout=*/3, "fedsz:eb=rel:1e-2", threads);
    config.evaluate_every_round = false;
    config.eval_limit = 16;
    config.client.batch_size = 2;
    config.compute_jitter = 0.3;
    config.topology.sharding = ShardStrategy::kShuffled;
    config.failures.dropout_rate = 0.3;
    config.failures.edge_failure_rate = 0.4;
    config.failures.straggler_deadline_seconds = 60.0;
    FlCoordinator coordinator(tiny_model(), data::take(train, 32),
                              data::take(test, 16), config,
                              make_fedsz_codec());
    return coordinator.run();
  };
  // Same seed + same schedule => byte-identical traces, statuses included,
  // no matter how many pool threads race the real work.
  const FlRunResult a = run_once(1);
  const FlRunResult b = run_once(4);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  EXPECT_EQ(a.late_events, b.late_events);
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    const RoundRecord& ra = a.rounds[r];
    const RoundRecord& rb = b.rounds[r];
    EXPECT_EQ(ra.crashed_nodes, rb.crashed_nodes);
    EXPECT_EQ(ra.bytes_sent, rb.bytes_sent);
    EXPECT_EQ(ra.backhaul_bytes, rb.backhaul_bytes);
    EXPECT_EQ(ra.participants, rb.participants);
    EXPECT_DOUBLE_EQ(ra.aggregate_weight, rb.aggregate_weight);
    EXPECT_DOUBLE_EQ(ra.virtual_seconds, rb.virtual_seconds);
    ASSERT_EQ(ra.clients.size(), rb.clients.size());
    for (std::size_t c = 0; c < ra.clients.size(); ++c) {
      EXPECT_EQ(ra.clients[c].client, rb.clients[c].client);
      EXPECT_EQ(ra.clients[c].node, rb.clients[c].node);
      EXPECT_EQ(ra.clients[c].status, rb.clients[c].status);
      EXPECT_EQ(ra.clients[c].payload_bytes, rb.clients[c].payload_bytes);
      EXPECT_DOUBLE_EQ(ra.clients[c].weight, rb.clients[c].weight);
      EXPECT_DOUBLE_EQ(ra.clients[c].arrival_seconds,
                       rb.clients[c].arrival_seconds);
    }
    ASSERT_EQ(ra.edges.size(), rb.edges.size());
    for (std::size_t e = 0; e < ra.edges.size(); ++e) {
      EXPECT_EQ(ra.edges[e].edge, rb.edges[e].edge);
      EXPECT_EQ(ra.edges[e].status, rb.edges[e].status);
      EXPECT_EQ(ra.edges[e].payload_bytes, rb.edges[e].payload_bytes);
      EXPECT_DOUBLE_EQ(ra.edges[e].weight, rb.edges[e].weight);
    }
  }
  EXPECT_DOUBLE_EQ(a.final_accuracy, b.final_accuracy);
}

TEST(ChurnCoordinatorTest, FailuresRequireABarrierScheduler) {
  auto [train, test] = data::make_dataset("cifar10");
  FlRunConfig config;
  config.clients = 4;
  config.rounds = 1;
  config.failures.dropout_rate = 0.5;
  EXPECT_THROW(FlCoordinator(tiny_model(), data::take(train, 16),
                             data::take(test, 16), config,
                             make_identity_codec(),
                             make_buffered_async_scheduler({2, 0.5})),
               InvalidArgument);
}

TEST(TopologyCoordinatorTest, ContinuousSchedulerIsRejected) {
  auto [train, test] = data::make_dataset("cifar10");
  FlRunConfig config = hier_config(4, 1, /*fanout=*/2, "");
  EXPECT_THROW(FlCoordinator(tiny_model(), data::take(train, 16),
                             data::take(test, 16), config,
                             make_identity_codec(),
                             make_buffered_async_scheduler({2, 0.5})),
               InvalidArgument);
}

}  // namespace
}  // namespace fedsz::core
