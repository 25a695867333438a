// Tests for the FedAvg stack: server aggregation semantics, client rounds,
// and coordinator runs with identity and FedSZ codecs.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "core/fl/coordinator.hpp"
#include "data/synthetic.hpp"

namespace fedsz::core {
namespace {

nn::ModelConfig tiny_model() {
  nn::ModelConfig cfg;
  cfg.arch = "mobilenet_v2";
  cfg.scale = nn::ModelScale::kTiny;
  return cfg;
}

TEST(FlServerTest, AggregateOfIdenticalUpdatesIsThatUpdate) {
  FlServer server(tiny_model());
  StateDict update = server.global_state();
  update.get_mutable(update.entries()[0].first)[0] = 123.0f;
  server.aggregate({{update, 10}, {update, 30}});
  EXPECT_TRUE(server.global_state().equals(update));
}

TEST(FlServerTest, WeightedMeanBySampleCount) {
  FlServer server(tiny_model());
  StateDict a = server.global_state().zeros_like();
  StateDict b = server.global_state().zeros_like();
  const std::string first = a.entries()[0].first;
  a.get_mutable(first)[0] = 0.0f;
  b.get_mutable(first)[0] = 4.0f;
  server.aggregate({{a, 30}, {b, 10}});  // (0*30 + 4*10)/40 = 1
  EXPECT_FLOAT_EQ(server.global_state().get(first)[0], 1.0f);
}

TEST(FlServerTest, AggregateMatchesByNameNotOrder) {
  FlServer server(tiny_model());
  const StateDict& global = server.global_state();
  // Build a reordered copy of the global state.
  StateDict reordered;
  for (auto it = global.entries().rbegin(); it != global.entries().rend();
       ++it)
    reordered.set(it->first, it->second);
  EXPECT_NO_THROW(server.aggregate({{reordered, 1}}));
  EXPECT_TRUE(server.global_state().equals(global));
}

TEST(FlServerTest, EmptyOrZeroWeightUpdatesThrow) {
  FlServer server(tiny_model());
  EXPECT_THROW(server.aggregate({}), InvalidArgument);
  EXPECT_THROW(server.aggregate({{server.global_state(), 0}}),
               InvalidArgument);
}

TEST(FlServerTest, FailedBatchRoundLeavesNoRoundOpen) {
  FlServer server(tiny_model());
  EXPECT_THROW(server.aggregate({}), InvalidArgument);
  StateDict update = server.global_state();
  const std::string name = update.entries()[0].first;
  update.get_mutable(name)[0] = 7.0f;
  // The second update is misshapen, so fold throws after the first one
  // folded: aggregate must abandon a round that is under way.
  StateDict misshapen = update;
  Shape shape = misshapen.get(name).shape();
  shape.push_back(2);
  misshapen.set(name, Tensor::zeros(shape));
  EXPECT_THROW(server.aggregate({{update, 1}, {misshapen, 1}}),
               InvalidArgument);
  server.aggregate({{update, 1}});
  EXPECT_TRUE(server.global_state().equals(update));
}

TEST(FlServerTest, EvaluateReturnsFractionInRange) {
  FlServer server(tiny_model());
  auto [train, test] = data::make_dataset("cifar10");
  const double acc = server.evaluate(*data::take(test, 64));
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
}

TEST(FlClientTest, RoundProducesMatchingStructure) {
  auto [train, test] = data::make_dataset("cifar10");
  ClientConfig config;
  config.local_epochs = 1;
  config.batch_size = 16;
  FlClient client(0, tiny_model(), data::take(train, 64), config);
  FlServer server(tiny_model());
  const ClientRoundResult result = client.run_round(server.global_state());
  EXPECT_EQ(result.samples, 64u);
  EXPECT_GT(result.train_seconds, 0.0);
  EXPECT_EQ(result.update.size(), server.global_state().size());
  // Training must actually move the weights.
  EXPECT_FALSE(result.update.equals(server.global_state()));
}

TEST(FlClientTest, EmptyShardThrows) {
  auto [train, test] = data::make_dataset("cifar10");
  EXPECT_THROW(FlClient(0, tiny_model(), data::take(train, 0),
                        ClientConfig{}),
               InvalidArgument);
}

TEST(FlCoordinatorTest, RunsRoundsAndRecordsMetrics) {
  auto [train, test] = data::make_dataset("cifar10");
  FlRunConfig config;
  config.clients = 2;
  config.rounds = 2;
  config.eval_limit = 64;
  config.threads = 2;
  config.client.batch_size = 16;
  FlCoordinator coordinator(tiny_model(), data::take(train, 128),
                            data::take(test, 64), config,
                            make_identity_codec());
  const FlRunResult result = coordinator.run();
  ASSERT_EQ(result.rounds.size(), 2u);
  for (const RoundRecord& r : result.rounds) {
    EXPECT_GT(r.train_seconds, 0.0);
    EXPECT_GT(r.bytes_sent, 0u);
    EXPECT_EQ(r.raw_bytes, r.bytes_sent);  // identity codec
    EXPECT_NEAR(r.compression_ratio(), 1.0, 1e-9);
    EXPECT_GT(r.comm_seconds, 0.0);
    EXPECT_GE(r.accuracy, 0.0);
  }
  EXPECT_GT(result.total_wall_seconds, 0.0);
}

TEST(FlCoordinatorTest, FedSzCodecReducesBytes) {
  auto [train, test] = data::make_dataset("cifar10");
  FlRunConfig config;
  config.clients = 2;
  config.rounds = 1;
  config.eval_limit = 32;
  config.threads = 2;
  config.client.batch_size = 16;
  // AlexNet: the FC-dominated case where the lossy partition carries nearly
  // all bytes. (A tiny MobileNet is mostly sub-threshold tensors and barely
  // compresses — realistic, but not what this test probes.)
  nn::ModelConfig model = tiny_model();
  model.arch = "alexnet";
  FlCoordinator coordinator(model, data::take(train, 128),
                            data::take(test, 32), config,
                            make_fedsz_codec());
  const FlRunResult result = coordinator.run();
  ASSERT_EQ(result.rounds.size(), 1u);
  EXPECT_GT(result.rounds[0].compression_ratio(), 1.5);
  EXPECT_LT(result.rounds[0].bytes_sent, result.rounds[0].raw_bytes);
  EXPECT_GT(result.rounds[0].compress_seconds, 0.0);
  EXPECT_GT(result.rounds[0].decompress_seconds, 0.0);
}

TEST(FlCoordinatorTest, SimulatedBandwidthDrivesCommTime) {
  auto [train, test] = data::make_dataset("cifar10");
  auto run_at = [&](double mbps) {
    FlRunConfig config;
    config.clients = 1;
    config.rounds = 1;
    config.eval_limit = 16;
    config.network.bandwidth_mbps = mbps;
    config.client.batch_size = 16;
    FlCoordinator coordinator(tiny_model(), data::take(train, 32),
                              data::take(test, 16), config,
                              make_identity_codec());
    return coordinator.run().rounds[0].comm_seconds;
  };
  const double slow = run_at(10.0);
  const double fast = run_at(1000.0);
  EXPECT_NEAR(slow / fast, 100.0, 1.0);
}

TEST(FlCoordinatorTest, DeterministicAccuracyForSameSeed) {
  auto [train, test] = data::make_dataset("cifar10");
  auto run_once = [&] {
    FlRunConfig config;
    config.clients = 2;
    config.rounds = 1;
    config.eval_limit = 64;
    config.threads = 1;
    config.seed = 99;
    config.client.batch_size = 16;
    FlCoordinator coordinator(tiny_model(), data::take(train, 128),
                              data::take(test, 64), config,
                              make_identity_codec());
    return coordinator.run().final_accuracy;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(FlCoordinatorTest, InvalidConfigThrows) {
  auto [train, test] = data::make_dataset("cifar10");
  FlRunConfig config;
  config.clients = 0;
  EXPECT_THROW(FlCoordinator(tiny_model(), data::take(train, 32),
                             data::take(test, 16), config,
                             make_identity_codec()),
               InvalidArgument);
  config.clients = 1;
  EXPECT_THROW(FlCoordinator(tiny_model(), data::take(train, 32),
                             data::take(test, 16), config, nullptr),
               InvalidArgument);
}

TEST(FlRunConfigTest, ValidateRejectsDegenerateSettings) {
  FlRunConfig config;
  EXPECT_NO_THROW(config.validate());
  config.clients = 0;
  EXPECT_THROW(config.validate(), InvalidArgument);
  config = {};
  config.rounds = 0;
  EXPECT_THROW(config.validate(), InvalidArgument);
  config = {};
  config.rounds = -3;
  EXPECT_THROW(config.validate(), InvalidArgument);
  config = {};
  config.threads = 0;
  EXPECT_THROW(config.validate(), InvalidArgument);
  config = {};
  config.compute_seconds_per_sample = -1.0;
  EXPECT_THROW(config.validate(), InvalidArgument);
  config = {};
  config.compute_jitter = 1.0;
  EXPECT_THROW(config.validate(), InvalidArgument);
  config = {};
  config.client.local_epochs = 0;
  EXPECT_THROW(config.validate(), InvalidArgument);
  config = {};
  config.client.batch_size = 0;
  EXPECT_THROW(config.validate(), InvalidArgument);
}

// ---- event-driven runtime ----

// The pre-event-runtime coordinator, recreated verbatim: partition IID,
// every round train all clients in index order, encode/decode each update,
// batch-aggregate in index order, evaluate. The event-driven SyncScheduler
// over a homogeneous network must reproduce this trajectory *exactly*.
std::vector<std::pair<double, std::size_t>> legacy_sync_trace(
    const nn::ModelConfig& model, data::DatasetPtr train,
    data::DatasetPtr test, const FlRunConfig& config,
    const UpdateCodecPtr& codec) {
  FlServer server(model);
  Rng rng(config.seed);
  const auto shards =
      data::partition_iid(train->size(), config.clients, rng);
  std::vector<std::unique_ptr<FlClient>> clients;
  for (std::size_t i = 0; i < config.clients; ++i) {
    ClientConfig client_config = config.client;
    client_config.seed = config.seed ^ (0xC11E47ull * (i + 1));
    clients.push_back(std::make_unique<FlClient>(
        static_cast<int>(i), model,
        std::make_shared<data::SubsetDataset>(train, shards[i]),
        client_config));
  }
  std::vector<std::pair<double, std::size_t>> trace;  // (accuracy, bytes)
  for (int round = 0; round < config.rounds; ++round) {
    std::vector<std::pair<StateDict, std::size_t>> updates;
    std::size_t bytes = 0;
    for (auto& client : clients) {
      const ClientRoundResult result =
          client->run_round(server.global_state());
      const UpdateCodec::Encoded encoded = codec->encode(result.update);
      bytes += encoded.payload.size();
      updates.emplace_back(
          codec->decode({encoded.payload.data(), encoded.payload.size()}),
          result.samples);
    }
    server.aggregate(updates);
    trace.emplace_back(server.evaluate(*test, config.eval_limit), bytes);
  }
  return trace;
}

TEST(FlCoordinatorTest, SyncSchedulerReproducesLegacyTrajectoryExactly) {
  auto [train, test] = data::make_dataset("cifar10");
  FlRunConfig config;
  config.clients = 3;
  config.rounds = 3;
  config.eval_limit = 64;
  config.threads = 3;
  config.seed = 123;
  config.client.batch_size = 16;
  const auto codec = make_identity_codec();

  FlCoordinator coordinator(tiny_model(), data::take(train, 96),
                            data::take(test, 64), config, codec,
                            make_sync_scheduler());
  const FlRunResult result = coordinator.run();

  const auto reference = legacy_sync_trace(
      tiny_model(), data::take(train, 96), data::take(test, 64), config,
      codec);
  ASSERT_EQ(result.rounds.size(), reference.size());
  for (std::size_t r = 0; r < reference.size(); ++r) {
    EXPECT_DOUBLE_EQ(result.rounds[r].accuracy, reference[r].first)
        << "round " << r;
    EXPECT_EQ(result.rounds[r].bytes_sent, reference[r].second)
        << "round " << r;
    EXPECT_EQ(result.rounds[r].participants, config.clients);
  }
  EXPECT_EQ(result.scheduler, "sync");
}

TEST(FlCoordinatorTest, RecordsPerClientTraceAndDecisions) {
  auto [train, test] = data::make_dataset("cifar10");
  FlRunConfig config;
  config.clients = 4;
  config.rounds = 1;
  config.eval_limit = 16;
  config.threads = 2;
  config.client.batch_size = 8;
  net::HeterogeneousNetworkConfig links;
  links.distribution = net::LinkDistribution::kTwoTier;
  links.two_tier_fast_fraction = 0.5;
  links.two_tier_fast_mbps = 1000.0;
  links.two_tier_slow_mbps = 1.0;
  config.heterogeneous = links;
  FlCoordinator coordinator(tiny_model(), data::take(train, 64),
                            data::take(test, 16), config,
                            make_identity_codec());
  const FlRunResult result = coordinator.run();
  ASSERT_EQ(result.rounds.size(), 1u);
  const RoundRecord& record = result.rounds[0];
  ASSERT_EQ(record.clients.size(), 4u);
  EXPECT_EQ(record.participants, 4u);
  double slow_transfer = 0.0, fast_transfer = 0.0;
  for (const ClientTraceEntry& entry : record.clients) {
    EXPECT_LT(entry.client, 4u);
    EXPECT_EQ(entry.dispatch_round, 0);
    EXPECT_GE(entry.arrival_seconds, entry.dispatch_seconds);
    EXPECT_GT(entry.transfer_seconds, 0.0);
    EXPECT_GT(entry.payload_bytes, 0u);
    EXPECT_GT(entry.weight, 0.0);
    // Eqn (1) was evaluated against this client's own link.
    EXPECT_GT(entry.decision.uncompressed_seconds, 0.0);
    slow_transfer = std::max(slow_transfer, entry.transfer_seconds);
    fast_transfer = fast_transfer == 0.0
                        ? entry.transfer_seconds
                        : std::min(fast_transfer, entry.transfer_seconds);
  }
  // Identity payloads are equal, so the 1000x bandwidth gap must show up as
  // a 1000x transfer-time gap between tiers.
  EXPECT_NEAR(slow_transfer / fast_transfer, 1000.0, 1.0);
  EXPECT_GT(result.total_virtual_seconds, 0.0);
}

TEST(FlCoordinatorTest, SampledSyncIsDeterministicAtScale) {
  auto [train, test] = data::make_dataset("cifar10");
  auto run_once = [&] {
    FlRunConfig config;
    config.clients = 64;
    config.rounds = 2;
    config.eval_limit = 32;
    config.threads = 4;
    config.seed = 77;
    config.client.batch_size = 2;
    config.evaluate_every_round = false;
    FlCoordinator coordinator(tiny_model(), data::take(train, 128),
                              data::take(test, 32), config,
                              make_identity_codec(),
                              make_sampled_sync_scheduler(0.25));
    return coordinator.run();
  };
  const FlRunResult a = run_once();
  const FlRunResult b = run_once();
  ASSERT_EQ(a.rounds.size(), 2u);
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    EXPECT_EQ(a.rounds[r].participants, 16u);  // ceil(0.25 * 64)
    EXPECT_EQ(a.rounds[r].bytes_sent, b.rounds[r].bytes_sent);
    EXPECT_DOUBLE_EQ(a.rounds[r].virtual_seconds,
                     b.rounds[r].virtual_seconds);
    ASSERT_EQ(a.rounds[r].clients.size(), b.rounds[r].clients.size());
    for (std::size_t c = 0; c < a.rounds[r].clients.size(); ++c)
      EXPECT_EQ(a.rounds[r].clients[c].client,
                b.rounds[r].clients[c].client);
  }
  EXPECT_DOUBLE_EQ(a.final_accuracy, b.final_accuracy);
  // Streaming aggregation: one decoded update alive at a time.
  EXPECT_EQ(a.peak_decoded_updates, 1u);
}

TEST(FlCoordinatorTest, BufferedAsyncIsDeterministicWithBoundedMemory) {
  auto [train, test] = data::make_dataset("cifar10");
  auto run_once = [&](std::size_t clients) {
    FlRunConfig config;
    config.clients = clients;
    config.rounds = 3;
    config.eval_limit = 32;
    config.threads = 4;
    config.seed = 5;
    config.client.batch_size = 2;
    config.evaluate_every_round = false;
    config.compute_jitter = 0.5;  // heterogeneous device speeds
    net::HeterogeneousNetworkConfig links;
    links.distribution = net::LinkDistribution::kUniformEdge;
    links.edge_min_mbps = 2.0;
    links.edge_max_mbps = 20.0;
    config.heterogeneous = links;
    FlCoordinator coordinator(
        tiny_model(), data::take(train, clients * 2), data::take(test, 32),
        config, make_identity_codec(),
        make_buffered_async_scheduler({8, 0.5}));
    return coordinator.run();
  };
  const FlRunResult a = run_once(64);
  const FlRunResult b = run_once(64);
  ASSERT_EQ(a.rounds.size(), 3u);
  EXPECT_EQ(a.scheduler, "buffered_async");
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    EXPECT_EQ(a.rounds[r].participants, 8u);  // buffer_size arrivals each
    EXPECT_EQ(a.rounds[r].bytes_sent, b.rounds[r].bytes_sent);
    EXPECT_DOUBLE_EQ(a.rounds[r].virtual_seconds,
                     b.rounds[r].virtual_seconds);
    ASSERT_EQ(a.rounds[r].clients.size(), b.rounds[r].clients.size());
    for (std::size_t c = 0; c < a.rounds[r].clients.size(); ++c) {
      EXPECT_EQ(a.rounds[r].clients[c].client,
                b.rounds[r].clients[c].client);
      EXPECT_DOUBLE_EQ(a.rounds[r].clients[c].weight,
                       b.rounds[r].clients[c].weight);
    }
  }
  EXPECT_DOUBLE_EQ(a.final_accuracy, b.final_accuracy);
  // Peak decoded-update memory is O(1): identical at any population size.
  const FlRunResult smaller = run_once(16);
  EXPECT_EQ(a.peak_decoded_updates, 1u);
  EXPECT_EQ(smaller.peak_decoded_updates, a.peak_decoded_updates);
}

TEST(FlCoordinatorTest, BufferedAsyncAppliesStalenessWeights) {
  auto [train, test] = data::make_dataset("cifar10");
  FlRunConfig config;
  config.clients = 8;
  config.rounds = 3;
  config.eval_limit = 16;
  config.threads = 4;
  config.client.batch_size = 4;
  config.evaluate_every_round = false;
  config.compute_jitter = 0.6;  // spread arrivals across aggregations
  FlCoordinator coordinator(tiny_model(), data::take(train, 64),
                            data::take(test, 16), config,
                            make_identity_codec(),
                            make_buffered_async_scheduler({4, 1.0}));
  const FlRunResult result = coordinator.run();
  ASSERT_EQ(result.rounds.size(), 3u);
  // Every client holds 64/8 = 8 samples, so a fresh update weighs exactly
  // 8 and a stale one strictly less (scaled by 1/(1+staleness)).
  bool saw_stale = false;
  for (const RoundRecord& record : result.rounds)
    for (const ClientTraceEntry& entry : record.clients) {
      if (entry.dispatch_round < record.round) {
        saw_stale = true;
        EXPECT_LT(entry.weight, 8.0);
      } else {
        EXPECT_DOUBLE_EQ(entry.weight, 8.0);
      }
    }
  // With 8 continuously-training clients and K=4, later aggregations must
  // fold updates dispatched under an older global.
  EXPECT_TRUE(saw_stale);
}

}  // namespace
}  // namespace fedsz::core
