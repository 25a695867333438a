// Tests for the bidirectional comm model: DownlinkChannel full/delta
// broadcast groups and sessions, coordinator runs that charge broadcast
// bytes on the virtual clock, and the error-feedback accuracy regression at
// aggressive bounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>

#include "core/codec_spec.hpp"
#include "core/fl/coordinator.hpp"
#include "core/fl/downlink.hpp"
#include "data/synthetic.hpp"

namespace fedsz::core {
namespace {

nn::ModelConfig tiny_model() {
  nn::ModelConfig cfg;
  cfg.arch = "mobilenet_v2";
  cfg.scale = nn::ModelScale::kTiny;
  return cfg;
}

StateDict synthetic_global(float shift = 0.0f) {
  StateDict dict;
  {
    std::vector<float> values(3000);
    for (std::size_t i = 0; i < values.size(); ++i)
      values[i] = std::sin(static_cast<float>(i) * 0.013f) + shift;
    dict.set("features.0.weight", Tensor::from_data({30, 100}, values));
  }
  {
    std::vector<float> values(40);
    for (std::size_t i = 0; i < values.size(); ++i)
      values[i] = 0.01f * static_cast<float>(i) - shift;
    dict.set("features.0.bias", Tensor::from_data({40}, values));
  }
  return dict;
}

double max_abs_error(const StateDict& a, const StateDict& b) {
  double worst = 0.0;
  for (const auto& [name, tensor] : a) {
    const Tensor& other = b.get(name);
    for (std::size_t i = 0; i < tensor.numel(); ++i)
      worst = std::max(worst, std::abs(static_cast<double>(tensor[i]) -
                                       static_cast<double>(other[i])));
  }
  return worst;
}

TEST(DownlinkChannelTest, FullBroadcastRoundTripsWithinBound) {
  DownlinkConfig config;
  config.codec = make_codec("fedsz:eb=abs:1e-3,threshold=100");
  DownlinkChannel channel(config, 4);
  const StateDict global = synthetic_global();
  // kFull: the whole cohort is one group on the whole global.
  const std::vector<DownlinkChannel::Group> groups =
      channel.groups({0, 1, 2, 3});
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].base, nullptr);
  EXPECT_EQ(groups[0].members, (std::vector<std::size_t>{0, 1, 2, 3}));
  const Broadcast broadcast = channel.encode(groups[0], global, 0);
  EXPECT_GT(broadcast.payload.size(), 0u);
  EXPECT_LT(broadcast.payload.size(), global.total_bytes());
  ASSERT_NE(broadcast.model, nullptr);
  EXPECT_EQ(broadcast.model->size(), global.size());
  EXPECT_LE(max_abs_error(global, *broadcast.model), 1e-3 + 1e-9);
  EXPECT_GT(broadcast.decode_seconds, 0.0);
  // kFull keeps no sessions.
  channel.acknowledge(0, broadcast.model);
  EXPECT_EQ(channel.acknowledged(0), nullptr);
  EXPECT_THROW(channel.encode({nullptr, {}}, global, 0), InvalidArgument);
}

TEST(DownlinkChannelTest, DeltaSessionsTrackTheGlobalAcrossRounds) {
  DownlinkConfig config;
  config.mode = DownlinkMode::kDelta;
  config.codec = make_codec("fedsz:eb=abs:1e-3,threshold=100");
  DownlinkChannel channel(config, 2);
  EXPECT_EQ(channel.acknowledged(0), nullptr);

  // Round 0: first contact ships the full model.
  StateDict global = synthetic_global();
  std::vector<DownlinkChannel::Group> groups = channel.groups({0});
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].base, nullptr);
  const Broadcast first = channel.encode(groups[0], global, 0);
  EXPECT_LE(max_abs_error(global, *first.model), 1e-3 + 1e-9);
  channel.acknowledge(0, first.model);
  // The session IS the client's reconstruction.
  EXPECT_EQ(channel.acknowledged(0), first.model);

  // Round 1: only the delta rides the wire, and the reconstruction still
  // tracks the new global within the bound (error does not compound:
  // the delta is taken against the acknowledged reconstruction).
  global = synthetic_global(0.25f);
  groups = channel.groups({0});
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].base, first.model);
  const Broadcast second = channel.encode(groups[0], global, 1);
  EXPECT_LE(max_abs_error(global, *second.model), 1e-3 + 1e-9);

  // Client 1 never received anything; its session is untouched.
  EXPECT_EQ(channel.acknowledged(1), nullptr);
}

// Forwards to a real codec and counts the calls, so a test can see how many
// encodes and decodes a broadcast runs. `keyed` stands in for a policy with
// per-client state (gradaware).
class CountingCodec final : public UpdateCodec {
 public:
  using UpdateCodec::encode;
  CountingCodec(UpdateCodecPtr inner, bool keyed)
      : inner_(std::move(inner)), keyed_(keyed) {}
  std::string name() const override { return "counting"; }
  bool keyed_by_client() const override { return keyed_; }
  Encoded encode(const StateDict& dict,
                 const EncodeContext& ctx) const override {
    ++encodes;
    return inner_->encode(dict, ctx);
  }
  StateDict decode(ByteSpan payload, CompressionStats* stats) const override {
    ++decodes;
    return inner_->decode(payload, stats);
  }
  mutable std::atomic<std::size_t> encodes{0};
  mutable std::atomic<std::size_t> decodes{0};

 private:
  UpdateCodecPtr inner_;
  bool keyed_;
};

// Forwards to a real codec but never asks it for a reconstruction, so
// error feedback takes its fallback and decodes each payload.
class NoReconstructionCodec final : public UpdateCodec {
 public:
  using UpdateCodec::encode;
  explicit NoReconstructionCodec(UpdateCodecPtr inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  Encoded encode(const StateDict& dict,
                 const EncodeContext& ctx) const override {
    EncodeContext plain = ctx;
    plain.reconstruction = nullptr;
    return inner_->encode(dict, plain);
  }
  StateDict decode(ByteSpan payload, CompressionStats* stats) const override {
    return inner_->decode(payload, stats);
  }

 private:
  UpdateCodecPtr inner_;
};

// One send as the coordinator runs it: one encode per group, and every
// member in `acked` acknowledges its group's reconstruction. Returns the
// group count.
std::size_t send(DownlinkChannel& channel, const StateDict& global, int round,
                 const std::vector<std::size_t>& cohort,
                 const std::vector<std::size_t>& acked) {
  const std::vector<DownlinkChannel::Group> groups = channel.groups(cohort);
  for (const DownlinkChannel::Group& group : groups) {
    const Broadcast broadcast = channel.encode(group, global, round);
    for (const std::size_t i : group.members)
      if (std::find(acked.begin(), acked.end(), i) != acked.end())
        channel.acknowledge(i, broadcast.model);
  }
  return groups.size();
}

TEST(DownlinkChannelTest, ClientsThatAcknowledgedOneModelShareOneEncode) {
  std::vector<std::size_t> everyone(8);
  std::iota(everyone.begin(), everyone.end(), std::size_t{0});
  const std::vector<std::size_t> first_half{0, 1, 2, 3};
  const auto inner = make_codec("fedsz:eb=abs:1e-3,threshold=100");

  const auto counting = std::make_shared<CountingCodec>(inner, false);
  DownlinkChannel channel({DownlinkMode::kDelta, counting}, everyone.size());
  // Full participation: 8 clients, one encode and one decode per round.
  EXPECT_EQ(send(channel, synthetic_global(), 0, everyone, everyone), 1u);
  EXPECT_EQ(counting->encodes.load(), 1u);
  EXPECT_EQ(counting->decodes.load(), 1u);
  EXPECT_EQ(channel.acknowledged(0), channel.acknowledged(7));
  EXPECT_EQ(send(channel, synthetic_global(0.25f), 1, everyone, everyone), 1u);
  EXPECT_EQ(counting->encodes.load(), 2u);
  EXPECT_EQ(counting->decodes.load(), 2u);
  // Half the cohort drops out of round 2 and never acknowledges it, so
  // round 3 sends two deltas: against round 2's model and round 1's.
  EXPECT_EQ(send(channel, synthetic_global(0.5f), 2, everyone, first_half),
            1u);
  EXPECT_EQ(send(channel, synthetic_global(0.75f), 3, everyone, everyone),
            2u);
  EXPECT_EQ(counting->encodes.load(), 5u);
  EXPECT_EQ(counting->decodes.load(), 5u);

  // A codec keyed by client could tell equal sessions apart: no sharing.
  const auto keyed = std::make_shared<CountingCodec>(inner, true);
  DownlinkChannel per_client({DownlinkMode::kDelta, keyed}, everyone.size());
  EXPECT_EQ(send(per_client, synthetic_global(), 0, everyone, everyone), 8u);
  EXPECT_EQ(send(per_client, synthetic_global(0.25f), 1, everyone, everyone),
            8u);
  EXPECT_EQ(keyed->encodes.load(), 16u);
  EXPECT_EQ(keyed->decodes.load(), 16u);
}

TEST(DownlinkChannelTest, GradientAwarePolicyIsKeyedByClient) {
  EXPECT_FALSE(make_codec("fedsz:eb=rel:1e-3")->keyed_by_client());
  EXPECT_FALSE(make_codec("identity")->keyed_by_client());
  EXPECT_TRUE(
      make_codec("fedsz:eb=rel:1e-3,policy=gradaware")->keyed_by_client());
  EXPECT_TRUE(make_codec("sparse:eb=rel:1e-2,policy=gradaware:0.5")
                  ->keyed_by_client());
}

TEST(DownlinkChannelTest, RestoredEqualSessionsShareOneSnapshot) {
  DownlinkChannel channel(
      {DownlinkMode::kDelta, make_codec("fedsz:eb=abs:1e-3,threshold=100")},
      4);
  const StateDict a = synthetic_global();
  const StateDict b = synthetic_global(0.5f);
  channel.restore_sessions({a, StateDict{}, b, a});
  EXPECT_EQ(channel.acknowledged(1), nullptr);
  ASSERT_NE(channel.acknowledged(0), nullptr);
  EXPECT_TRUE(channel.acknowledged(0)->equals(a));
  EXPECT_TRUE(channel.acknowledged(2)->equals(b));
  EXPECT_EQ(channel.acknowledged(0), channel.acknowledged(3));
  EXPECT_NE(channel.acknowledged(0), channel.acknowledged(2));
  EXPECT_EQ(channel.groups({0, 1, 2, 3}).size(), 3u);
  EXPECT_THROW(channel.restore_sessions({a}), InvalidArgument);
}

TEST(DownlinkChannelTest, InvalidConstructionThrows) {
  EXPECT_THROW(DownlinkChannel({DownlinkMode::kFull, nullptr}, 2),
               InvalidArgument);
  EXPECT_THROW(
      DownlinkChannel({DownlinkMode::kFull, make_identity_codec()}, 0),
      InvalidArgument);
}

TEST(FlRunConfigTest, ValidateRejectsMalformedDownlinkSpecs) {
  FlRunConfig config;
  config.downlink_spec = "fedsz:eb=rel:1e-3";
  EXPECT_NO_THROW(config.validate());
  config.downlink_spec = "identity";
  EXPECT_NO_THROW(config.validate());
  config.downlink_spec = "szip";
  EXPECT_THROW(config.validate(), InvalidArgument);
  config.downlink_spec = "fedsz:ef=on";  // comm keys cannot nest
  EXPECT_THROW(config.validate(), InvalidArgument);
  // Delta mode without a downlink codec would silently no-op; reject it.
  config.downlink_spec = "";
  config.downlink_mode = DownlinkMode::kDelta;
  EXPECT_THROW(config.validate(), InvalidArgument);
}

TEST(FlRunConfigTest, ApplyCommSpecFoldsTheCommKeys) {
  FlRunConfig config;
  config.apply_comm_spec(parse_codec_spec(
      "fedsz:eb=rel:1e-2,downlink=fedsz:eb=rel:1e-3,downmode=delta,ef=on"));
  EXPECT_EQ(config.downlink_mode, DownlinkMode::kDelta);
  EXPECT_TRUE(config.error_feedback);
  EXPECT_FALSE(config.downlink_spec.empty());
  EXPECT_NO_THROW(config.validate());
  // The stored spec is canonical and names the 1e-3 bound.
  EXPECT_NE(config.downlink_spec.find("eb=rel:0.001"), std::string::npos);
}

// ---- coordinator runs ----

struct BidirectionalRun {
  FlRunResult result;
  FlRunConfig config;
};

// Eight clients, two rounds, seed 11, four threads, on the default link.
FlRunConfig eight_clients() {
  FlRunConfig config;
  config.clients = 8;
  config.rounds = 2;
  config.eval_limit = 32;
  config.threads = 4;
  config.seed = 11;
  config.client.batch_size = 8;
  config.evaluate_every_round = false;
  return config;
}

net::HeterogeneousNetworkConfig uniform_edge_links(double min_mbps,
                                                   double max_mbps) {
  net::HeterogeneousNetworkConfig links;
  links.distribution = net::LinkDistribution::kUniformEdge;
  links.edge_min_mbps = min_mbps;
  links.edge_max_mbps = max_mbps;
  return links;
}

FlRunResult run_on_tiny_cifar(const FlRunConfig& config,
                              UpdateCodecPtr uplink) {
  auto [train, test] = data::make_dataset("cifar10");
  FlCoordinator coordinator(tiny_model(), data::take(train, 128),
                            data::take(test, 32), config, std::move(uplink));
  return coordinator.run();
}

FlRunResult run_on_tiny_cifar(const FlRunConfig& config,
                              const std::string& uplink_spec) {
  return run_on_tiny_cifar(config, make_codec(uplink_spec));
}

BidirectionalRun run_eight_clients(const std::string& uplink_spec,
                                   const std::string& downlink_spec,
                                   DownlinkMode mode, bool error_feedback) {
  FlRunConfig config = eight_clients();
  config.downlink_spec = downlink_spec;
  config.downlink_mode = mode;
  config.error_feedback = error_feedback;
  config.heterogeneous = uniform_edge_links(4.0, 20.0);
  return {run_on_tiny_cifar(config, uplink_spec), config};
}

// The kFull and uplink-only baseline runs are shared across tests (each is
// a full 8-client federation; re-running identical configs only burns CI
// minutes).
const BidirectionalRun& shared_full_run() {
  static const BidirectionalRun run = run_eight_clients(
      "fedsz", "fedsz:eb=rel:1e-3", DownlinkMode::kFull, false);
  return run;
}

const BidirectionalRun& shared_uplink_only_run() {
  static const BidirectionalRun run =
      run_eight_clients("fedsz", "", DownlinkMode::kFull, false);
  return run;
}

TEST(FlCoordinatorDownlinkTest, BroadcastBytesAndSecondsAppearInTheTrace) {
  const BidirectionalRun& down = shared_full_run();
  const BidirectionalRun& up_only = shared_uplink_only_run();

  ASSERT_EQ(down.result.rounds.size(), 2u);
  for (const RoundRecord& record : down.result.rounds) {
    EXPECT_EQ(record.participants, 8u);
    EXPECT_GT(record.downlink_bytes, 0u);
    EXPECT_GT(record.downlink_raw_bytes, record.downlink_bytes);
    EXPECT_GT(record.downlink_seconds, 0.0);
    EXPECT_GT(record.downlink_encode_seconds, 0.0);
    EXPECT_GT(record.downlink_decode_seconds, 0.0);
    EXPECT_GT(record.downlink_compression_ratio(), 1.0);
    ASSERT_EQ(record.clients.size(), 8u);
    for (const ClientTraceEntry& entry : record.clients) {
      EXPECT_GT(entry.downlink_bytes, 0u);
      EXPECT_GT(entry.downlink_seconds, 0.0);
      // Training cannot start before the broadcast landed.
      EXPECT_GE(entry.dispatch_seconds, entry.downlink_seconds);
    }
  }
  // The uplink-only run never charges the broadcast.
  for (const RoundRecord& record : up_only.result.rounds) {
    EXPECT_EQ(record.downlink_bytes, 0u);
    EXPECT_DOUBLE_EQ(record.downlink_seconds, 0.0);
  }
  // Same seed, same uplink codec: charging the broadcast makes every round
  // take strictly longer on the virtual clock.
  EXPECT_GT(down.result.total_virtual_seconds,
            up_only.result.total_virtual_seconds);
}

TEST(FlCoordinatorDownlinkTest, FullModeEncodesOncePerRound) {
  // In kFull mode every participant ships the SAME payload: per-client
  // downlink bytes are identical, so the round total is 8x the payload.
  const BidirectionalRun& down = shared_full_run();
  for (const RoundRecord& record : down.result.rounds) {
    const std::size_t payload = record.clients.front().downlink_bytes;
    for (const ClientTraceEntry& entry : record.clients)
      EXPECT_EQ(entry.downlink_bytes, payload);
    EXPECT_EQ(record.downlink_bytes, payload * record.participants);
  }
}

TEST(FlCoordinatorDownlinkTest, DeltaModeShrinksLaterBroadcasts) {
  // An ABSOLUTE downlink bound is where delta mode pays: the full model
  // spans a wide range (many quantization levels) while one aggregation
  // step's delta spans a tiny one (few levels). A relative bound would
  // rescale with the delta and ship similar bytes either way.
  const BidirectionalRun delta = run_eight_clients(
      "fedsz", "fedsz:eb=abs:1e-3,threshold=100", DownlinkMode::kDelta,
      false);
  ASSERT_EQ(delta.result.rounds.size(), 2u);
  // Round 0 is first contact (full model); round 1 ships deltas of one
  // local-SGD aggregation step, which compress much harder.
  const RoundRecord& first = delta.result.rounds[0];
  const RoundRecord& second = delta.result.rounds[1];
  EXPECT_GT(first.downlink_bytes, 0u);
  EXPECT_GT(second.downlink_bytes, 0u);
  EXPECT_LT(second.downlink_bytes, first.downlink_bytes);
}

TEST(FlCoordinatorDownlinkTest, DownlinkRunsAreDeterministic) {
  const BidirectionalRun a = run_eight_clients(
      "fedsz", "fedsz:eb=rel:1e-3", DownlinkMode::kDelta, true);
  const BidirectionalRun b = run_eight_clients(
      "fedsz", "fedsz:eb=rel:1e-3", DownlinkMode::kDelta, true);
  ASSERT_EQ(a.result.rounds.size(), b.result.rounds.size());
  EXPECT_DOUBLE_EQ(a.result.final_accuracy, b.result.final_accuracy);
  for (std::size_t r = 0; r < a.result.rounds.size(); ++r) {
    EXPECT_EQ(a.result.rounds[r].bytes_sent, b.result.rounds[r].bytes_sent);
    EXPECT_EQ(a.result.rounds[r].downlink_bytes,
              b.result.rounds[r].downlink_bytes);
    EXPECT_DOUBLE_EQ(a.result.rounds[r].virtual_seconds,
                     b.result.rounds[r].virtual_seconds);
    EXPECT_DOUBLE_EQ(a.result.rounds[r].mean_ef_residual_norm,
                     b.result.rounds[r].mean_ef_residual_norm);
  }
}

// The sampled-scheduler x delta-downlink interaction was untested: delta
// sessions advance only for SAMPLED clients, so the per-client acknowledged
// models diverge across rounds, and none of it may depend on the worker
// pool. Same seed => byte-identical RoundRecords at any thread count.
TEST(FlCoordinatorDownlinkTest, SampledDeltaDownlinkIsThreadCountInvariant) {
  auto [train, test] = data::make_dataset("cifar10");
  auto run_once = [&](std::size_t threads) {
    FlRunConfig config;
    config.clients = 8;
    config.rounds = 3;
    config.eval_limit = 32;
    config.threads = threads;
    config.seed = 321;
    config.client.batch_size = 4;
    config.evaluate_every_round = false;
    config.apply_comm_spec(parse_codec_spec(
        "identity:downlink=fedsz:eb=abs:1e-3,downmode=delta"));
    net::HeterogeneousNetworkConfig links;
    links.distribution = net::LinkDistribution::kUniformEdge;
    links.edge_min_mbps = 2.0;
    links.edge_max_mbps = 20.0;
    config.heterogeneous = links;
    FlCoordinator coordinator(tiny_model(), data::take(train, 64),
                              data::take(test, 32), config,
                              make_codec("fedsz:eb=rel:1e-2"),
                              make_sampled_sync_scheduler(0.5));
    return coordinator.run();
  };
  const FlRunResult a = run_once(1);
  const FlRunResult b = run_once(4);
  ASSERT_EQ(a.rounds.size(), 3u);
  ASSERT_EQ(b.rounds.size(), 3u);
  EXPECT_DOUBLE_EQ(a.final_accuracy, b.final_accuracy);
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    const RoundRecord& ra = a.rounds[r];
    const RoundRecord& rb = b.rounds[r];
    EXPECT_EQ(ra.participants, 4u);  // ceil(0.5 * 8)
    EXPECT_EQ(ra.bytes_sent, rb.bytes_sent);
    EXPECT_EQ(ra.raw_bytes, rb.raw_bytes);
    EXPECT_EQ(ra.downlink_bytes, rb.downlink_bytes);
    EXPECT_EQ(ra.downlink_raw_bytes, rb.downlink_raw_bytes);
    EXPECT_DOUBLE_EQ(ra.virtual_seconds, rb.virtual_seconds);
    ASSERT_EQ(ra.clients.size(), rb.clients.size());
    for (std::size_t c = 0; c < ra.clients.size(); ++c) {
      EXPECT_EQ(ra.clients[c].client, rb.clients[c].client);
      EXPECT_EQ(ra.clients[c].payload_bytes, rb.clients[c].payload_bytes);
      EXPECT_EQ(ra.clients[c].downlink_bytes, rb.clients[c].downlink_bytes);
      EXPECT_DOUBLE_EQ(ra.clients[c].arrival_seconds,
                       rb.clients[c].arrival_seconds);
      EXPECT_DOUBLE_EQ(ra.clients[c].weight, rb.clients[c].weight);
    }
  }
  // Delta sessions must actually engage: later rounds re-broadcast only to
  // resampled clients, and at least one broadcast is a session delta
  // smaller than the first-contact full model.
  std::size_t first_contact = 0, later = 0;
  for (const ClientTraceEntry& entry : a.rounds[0].clients)
    first_contact = std::max(first_contact, entry.downlink_bytes);
  for (std::size_t r = 1; r < a.rounds.size(); ++r)
    for (const ClientTraceEntry& entry : a.rounds[r].clients)
      later = later == 0 ? entry.downlink_bytes
                         : std::min(later, entry.downlink_bytes);
  EXPECT_GT(first_contact, 0u);
  EXPECT_GT(later, 0u);
  EXPECT_LT(later, first_contact);
}

// A broadcast still on the way at the straggler deadline evicts its client
// in that round, and one that lands after its round closed starts nothing,
// so every round traces each cohort client once, under its own round.
// Delta sessions are read and written on the pump thread only, never by an
// evicted client's pool task, so the rows match at 1 and 4 threads.
TEST(FlCoordinatorDownlinkTest, BroadcastPastTheDeadlineStaysInItsRound) {
  for (const DownlinkMode mode : {DownlinkMode::kDelta, DownlinkMode::kFull}) {
    SCOPED_TRACE(downlink_mode_name(mode));
    auto run_at = [&](std::size_t threads) {
      FlRunConfig config = eight_clients();
      config.rounds = 4;
      config.threads = threads;
      config.downlink_spec = "fedsz:eb=abs:1e-3,threshold=100";
      config.downlink_mode = mode;
      config.failures.straggler_deadline_seconds = 0.2;
      config.heterogeneous = uniform_edge_links(0.5, 20.0);
      return run_on_tiny_cifar(config, "fedsz");
    };
    const FlRunResult one = run_at(1);
    const FlRunResult four = run_at(4);
    ASSERT_EQ(four.rounds.size(), 4u);
    ASSERT_EQ(one.rounds.size(), 4u);
    std::size_t unlanded = 0;
    for (std::size_t r = 0; r < four.rounds.size(); ++r) {
      const RoundRecord& record = four.rounds[r];
      SCOPED_TRACE(::testing::Message() << "round " << r);
      ASSERT_EQ(record.clients.size(), 8u);  // one row per cohort client
      std::vector<int> rows(8, 0);
      for (const ClientTraceEntry& entry : record.clients) {
        EXPECT_EQ(entry.dispatch_round, record.round);
        ++rows.at(entry.client);
        // Evicted before its broadcast landed.
        if (entry.status == DeliveryStatus::kEvicted &&
            entry.dispatch_seconds + entry.downlink_seconds >
                entry.arrival_seconds)
          ++unlanded;
      }
      EXPECT_EQ(rows, std::vector<int>(8, 1));
      const RoundRecord& other = one.rounds[r];
      ASSERT_EQ(other.clients.size(), record.clients.size());
      for (std::size_t c = 0; c < record.clients.size(); ++c) {
        EXPECT_EQ(other.clients[c].client, record.clients[c].client);
        EXPECT_EQ(other.clients[c].status, record.clients[c].status);
        EXPECT_EQ(other.clients[c].downlink_bytes,
                  record.clients[c].downlink_bytes);
        EXPECT_DOUBLE_EQ(other.clients[c].dispatch_seconds,
                         record.clients[c].dispatch_seconds);
      }
    }
    // The setup exercises both halves: a client evicted while its
    // broadcast was on the way, whose landing then counted as late.
    EXPECT_GT(unlanded, 0u);
    EXPECT_GT(four.late_events, 0u);
    EXPECT_EQ(one.late_events, four.late_events);
  }
}

// Delta downlink under dropout, pinned to the bytes a separate encode per
// client produces: sharing an encode between clients that acknowledged one
// model changes no payload. A dropout never
// acknowledges, so the sends split into 1, 2 and 4 groups over the rounds.
// Under policy=gradaware every client keeps its own encode (its policy
// state is keyed by client), with the same group shape.
TEST(FlCoordinatorDownlinkTest, DeltaDownlinkUnderDropoutMatchesPinnedBytes) {
  struct Row {
    std::size_t client;
    char status;  // 'D' dropped, 'A' aggregated
    std::size_t downlink_bytes;
  };
  struct Pin {
    const char* downlink_spec;
    std::vector<std::vector<Row>> rounds;
  };
  const Pin pins[] = {
      {"fedsz:eb=abs:1e-3,threshold=100",
       {{{0, 'D', 29096}, {2, 'D', 29096}, {3, 'D', 29096}, {7, 'D', 29096},
         {4, 'A', 29096}, {5, 'A', 29096}, {1, 'A', 29096}, {6, 'A', 29096}},
        {{4, 'D', 11971}, {6, 'D', 11971}, {0, 'D', 27610}, {1, 'A', 11971},
         {5, 'A', 11971}, {2, 'A', 27610}, {3, 'A', 27610}, {7, 'A', 27610}},
        {{2, 'D', 11574}, {7, 'D', 11574}, {4, 'D', 12493}, {3, 'A', 11574},
         {1, 'A', 11593}, {5, 'A', 11593}, {6, 'A', 12493},
         {0, 'A', 26795}}}},
      {"fedsz:eb=rel:1e-3,policy=gradaware",
       {{{0, 'D', 41234}, {2, 'D', 41234}, {3, 'D', 41234}, {7, 'D', 41234},
         {5, 'A', 41234}, {4, 'A', 41234}, {1, 'A', 41234}, {6, 'A', 41234}},
        {{0, 'D', 36540}, {4, 'D', 47499}, {6, 'D', 47499}, {3, 'A', 36540},
         {2, 'A', 36540}, {7, 'A', 36540}, {5, 'A', 47499}, {1, 'A', 47499}},
        {{4, 'D', 46060}, {2, 'D', 46165}, {7, 'D', 46165}, {0, 'A', 35698},
         {5, 'A', 43921}, {1, 'A', 43921}, {6, 'A', 46060},
         {3, 'A', 46165}}}},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.downlink_spec);
    FlRunConfig config = eight_clients();
    config.rounds = 3;
    config.downlink_spec = pin.downlink_spec;
    config.downlink_mode = DownlinkMode::kDelta;
    config.failures.dropout_rate = 0.3;
    const FlRunResult result = run_on_tiny_cifar(config, "fedsz");
    ASSERT_EQ(result.rounds.size(), pin.rounds.size());
    for (std::size_t r = 0; r < pin.rounds.size(); ++r) {
      const RoundRecord& record = result.rounds[r];
      ASSERT_EQ(record.clients.size(), pin.rounds[r].size());
      for (std::size_t c = 0; c < record.clients.size(); ++c) {
        const ClientTraceEntry& entry = record.clients[c];
        const Row& want = pin.rounds[r][c];
        SCOPED_TRACE(::testing::Message() << "round " << r << " row " << c);
        EXPECT_EQ(entry.dispatch_round, static_cast<int>(r));
        EXPECT_EQ(entry.client, want.client);
        EXPECT_EQ(entry.status, want.status == 'D'
                                    ? DeliveryStatus::kDropped
                                    : DeliveryStatus::kAggregated);
        EXPECT_EQ(entry.downlink_bytes, want.downlink_bytes);
      }
    }
  }
}

TEST(FlCoordinatorDownlinkTest, IdentityDownlinkChargesFullBytes) {
  const BidirectionalRun down = run_eight_clients(
      "identity", "identity", DownlinkMode::kFull, false);
  for (const RoundRecord& record : down.result.rounds) {
    EXPECT_GT(record.downlink_bytes, 0u);
    // Identity broadcast: on-wire == raw.
    EXPECT_EQ(record.downlink_bytes, record.downlink_raw_bytes);
  }
}

TEST(FlCoordinatorDownlinkTest, ErrorFeedbackTracksResidualNorms) {
  const BidirectionalRun run = run_eight_clients(
      "fedsz:eb=rel:1e-1", "", DownlinkMode::kFull, true);
  // A lossy uplink leaves a nonzero residual on every client. FedSZ hands
  // its reconstruction back while it encodes, so EF decodes nothing.
  for (const RoundRecord& record : run.result.rounds) {
    EXPECT_GT(record.mean_ef_residual_norm, 0.0);
    EXPECT_EQ(record.ef_decode_seconds, 0.0);
    for (const ClientTraceEntry& entry : record.clients)
      EXPECT_GT(entry.ef_residual_norm, 0.0);
  }
  // Through a codec that never reconstructs, EF decodes each payload
  // instead, and the round record prices that decode. Nothing else moves:
  // the same bytes, residual norms and accuracy.
  const FlRunResult fallback = run_on_tiny_cifar(
      run.config, std::make_shared<NoReconstructionCodec>(
                      make_codec("fedsz:eb=rel:1e-1")));
  EXPECT_EQ(fallback.final_accuracy, run.result.final_accuracy);
  ASSERT_EQ(fallback.rounds.size(), run.result.rounds.size());
  for (std::size_t r = 0; r < fallback.rounds.size(); ++r) {
    const RoundRecord& a = run.result.rounds[r];
    const RoundRecord& b = fallback.rounds[r];
    EXPECT_GT(b.ef_decode_seconds, 0.0);
    EXPECT_EQ(b.bytes_sent, a.bytes_sent);
    EXPECT_EQ(b.mean_ef_residual_norm, a.mean_ef_residual_norm);
    ASSERT_EQ(b.clients.size(), a.clients.size());
    for (std::size_t c = 0; c < a.clients.size(); ++c) {
      EXPECT_EQ(b.clients[c].client, a.clients[c].client);
      EXPECT_EQ(b.clients[c].payload_bytes, a.clients[c].payload_bytes);
      EXPECT_EQ(b.clients[c].ef_residual_norm, a.clients[c].ef_residual_norm);
    }
  }
  // A lossless uplink leaves none.
  const BidirectionalRun lossless = run_eight_clients(
      "identity", "", DownlinkMode::kFull, true);
  for (const RoundRecord& record : lossless.result.rounds)
    EXPECT_DOUBLE_EQ(record.mean_ef_residual_norm, 0.0);
}

// The error-feedback acceptance regression: at an aggressive bound where
// plain FedSZ visibly degrades, folding the dropped residual back into the
// next round's update must recover accuracy by a pinned margin.
TEST(FlCoordinatorDownlinkTest, ErrorFeedbackRecoversAccuracyAtRel1e1) {
  auto run_at = [&](bool ef) {
    auto [train, test] = data::make_dataset("cifar10");
    FlRunConfig config;
    config.clients = 4;
    config.rounds = 4;
    config.eval_limit = 192;
    config.threads = 4;
    config.seed = 3;
    config.client.batch_size = 16;
    config.client.sgd.learning_rate = 0.05f;
    config.evaluate_every_round = false;
    config.error_feedback = ef;
    FlCoordinator coordinator(tiny_model(), data::take(train, 256),
                              data::take(test, 192), config,
                              make_codec("fedsz:eb=rel:1e-1"));
    return coordinator.run().final_accuracy;
  };
  const double with_ef = run_at(true);
  const double without_ef = run_at(false);
  std::printf("rel:1e-1 final accuracy: EF on %.4f, EF off %.4f\n", with_ef,
              without_ef);
  // Margin pinned from the seeded run; fails if EF regresses.
  EXPECT_GT(with_ef, without_ef + 0.02);
}

}  // namespace
}  // namespace fedsz::core
