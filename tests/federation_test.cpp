// Cross-process federation: the distributed runtime must be BIT-IDENTICAL
// to the in-process coordinator on every virtual-clock-deterministic field
// — pinned here over the loopback transport (workers as threads), over
// real TCP with fedsz_edge_worker processes (when the build provides
// FEDSZ_BIN_DIR), and through churn (a worker that dies after the
// handshake gets its cohort dropped for the round and re-homed after).
// The manifest, ROUND_OPEN and PARTIAL parsers are fuzzed like wire_test
// fuzzes frames: truncations and bit flips must surface as CorruptStream,
// and so must a PARTIAL that does not answer the cohort it was sent. A
// worker that rebuilds a different run from its HELLO fails the handshake.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/codec_spec.hpp"
#include "core/fl/checkpoint.hpp"
#include "core/fl/coordinator.hpp"
#include "core/fl/federation.hpp"
#include "data/synthetic.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "util/bytebuffer.hpp"

namespace fedsz::core {
namespace {

constexpr std::size_t kClients = 4;
constexpr int kRounds = 2;
constexpr std::size_t kTake = kClients * 16;

const char* kSpec = "fedsz:eb=rel:1e-2,topology=hier:2";

nn::ModelConfig tiny_model() {
  nn::ModelConfig model;
  model.arch = "mobilenet_v2";
  model.scale = nn::ModelScale::kTiny;
  return model;
}

FlRunConfig base_config(const CodecSpec& spec) {
  FlRunConfig config;
  config.apply_comm_spec(spec);
  config.clients = kClients;
  config.rounds = kRounds;
  config.seed = 42;
  config.eval_limit = 64;
  config.threads = kClients;
  config.client.batch_size = 16;
  config.client.sgd.learning_rate = 0.05f;
  return config;
}

FlRunResult run_in_process(const char* spec_string = kSpec) {
  const CodecSpec spec = parse_codec_spec(spec_string);
  auto [train, test] = data::make_dataset("cifar10", 7);
  FlCoordinator coordinator(tiny_model(), data::take(train, kTake),
                            data::take(test, 256), base_config(spec),
                            make_codec(spec));
  return coordinator.run();
}

// Every field the virtual clock determines; wall-clock timings excluded.
void expect_rounds_identical(const RoundRecord& a, const RoundRecord& b) {
  EXPECT_EQ(a.round, b.round);
  EXPECT_EQ(a.accuracy, b.accuracy);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.raw_bytes, b.raw_bytes);
  EXPECT_EQ(a.participants, b.participants);
  EXPECT_EQ(a.eligible_clients, b.eligible_clients);
  EXPECT_EQ(a.ineligible_clients, b.ineligible_clients);
  EXPECT_EQ(a.virtual_seconds, b.virtual_seconds);
  EXPECT_EQ(a.comm_seconds, b.comm_seconds);
  EXPECT_EQ(a.aggregate_weight, b.aggregate_weight);
  EXPECT_EQ(a.backhaul_bytes, b.backhaul_bytes);
  EXPECT_EQ(a.backhaul_raw_bytes, b.backhaul_raw_bytes);
  EXPECT_EQ(a.backhaul_seconds, b.backhaul_seconds);
  EXPECT_EQ(a.mean_ef_residual_norm, b.mean_ef_residual_norm);
  EXPECT_EQ(a.mean_loss, b.mean_loss);
  EXPECT_EQ(a.backhaul_tier_bytes, b.backhaul_tier_bytes);
  EXPECT_EQ(a.backhaul_tier_raw_bytes, b.backhaul_tier_raw_bytes);
  EXPECT_EQ(a.crashed_nodes, b.crashed_nodes);
  ASSERT_EQ(a.clients.size(), b.clients.size());
  for (std::size_t k = 0; k < a.clients.size(); ++k) {
    const ClientTraceEntry& x = a.clients[k];
    const ClientTraceEntry& y = b.clients[k];
    EXPECT_EQ(x.client, y.client) << "trace " << k;
    EXPECT_EQ(x.node, y.node) << "trace " << k;
    EXPECT_EQ(x.dispatch_round, y.dispatch_round) << "trace " << k;
    EXPECT_EQ(x.dispatch_seconds, y.dispatch_seconds) << "trace " << k;
    EXPECT_EQ(x.arrival_seconds, y.arrival_seconds) << "trace " << k;
    EXPECT_EQ(x.transfer_seconds, y.transfer_seconds) << "trace " << k;
    EXPECT_EQ(x.payload_bytes, y.payload_bytes) << "trace " << k;
    EXPECT_EQ(x.raw_bytes, y.raw_bytes) << "trace " << k;
    EXPECT_EQ(x.weight, y.weight) << "trace " << k;
    EXPECT_EQ(x.bound_value, y.bound_value) << "trace " << k;
    EXPECT_EQ(x.lossy_tensors, y.lossy_tensors) << "trace " << k;
    EXPECT_EQ(x.lossless_tensors, y.lossless_tensors) << "trace " << k;
    EXPECT_EQ(x.raw_tensors, y.raw_tensors) << "trace " << k;
    EXPECT_EQ(x.sparse_tensors, y.sparse_tensors) << "trace " << k;
    EXPECT_EQ(x.ef_residual_norm, y.ef_residual_norm) << "trace " << k;
    EXPECT_EQ(x.status, y.status) << "trace " << k;
    EXPECT_EQ(x.device_class, y.device_class) << "trace " << k;
    EXPECT_EQ(x.eligible, y.eligible) << "trace " << k;
  }
  ASSERT_EQ(a.edges.size(), b.edges.size());
  for (std::size_t k = 0; k < a.edges.size(); ++k) {
    const EdgeTraceEntry& x = a.edges[k];
    const EdgeTraceEntry& y = b.edges[k];
    EXPECT_EQ(x.edge, y.edge) << "edge " << k;
    EXPECT_EQ(x.tier, y.tier) << "edge " << k;
    EXPECT_EQ(x.cohort, y.cohort) << "edge " << k;
    EXPECT_EQ(x.weight, y.weight) << "edge " << k;
    EXPECT_EQ(x.payload_bytes, y.payload_bytes) << "edge " << k;
    EXPECT_EQ(x.raw_bytes, y.raw_bytes) << "edge " << k;
    EXPECT_EQ(x.transfer_seconds, y.transfer_seconds) << "edge " << k;
    EXPECT_EQ(x.arrival_seconds, y.arrival_seconds) << "edge " << k;
    EXPECT_EQ(x.ef_residual_norm, y.ef_residual_norm) << "edge " << k;
    EXPECT_EQ(x.status, y.status) << "edge " << k;
  }
}

void expect_results_identical(const FlRunResult& a, const FlRunResult& b) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t r = 0; r < a.rounds.size(); ++r)
    expect_rounds_identical(a.rounds[r], b.rounds[r]);
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.total_virtual_seconds, b.total_virtual_seconds);
  EXPECT_EQ(a.late_events, b.late_events);
  EXPECT_EQ(a.peak_decoded_per_node, b.peak_decoded_per_node);
}

TEST(FederationTest, ManifestRoundtrip) {
  const CodecSpec spec = parse_codec_spec(kSpec);
  auto [train, test] = data::make_dataset("cifar10", 7);
  (void)train;
  FederatedRoot root(tiny_model(), DatasetSpec{"cifar10", 7, kTake},
                     data::take(test, 256), base_config(spec), spec);
  ASSERT_EQ(root.edge_count(), 2u);
  for (std::uint32_t e = 0; e < 2; ++e) {
    const RunManifest manifest = root.manifest(e);
    EXPECT_EQ(manifest.edge, e);
    EXPECT_EQ(manifest.config.clients, kClients);
    EXPECT_EQ(manifest.dataset.take, kTake);
    const Bytes blob = serialize_manifest(manifest);
    const RunManifest parsed = parse_manifest({blob.data(), blob.size()});
    EXPECT_EQ(parsed.codec_spec, manifest.codec_spec);
    EXPECT_EQ(parsed.config.seed, manifest.config.seed);
    EXPECT_EQ(parsed.config.topology.shard_seed,
              manifest.config.topology.shard_seed);
    EXPECT_EQ(parsed.edge, manifest.edge);
    EXPECT_EQ(run_fingerprint(parsed.config, parsed.model),
              run_fingerprint(manifest.config, manifest.model));
    EXPECT_EQ(serialize_manifest(parsed), blob);
  }
  // Corrupt manifests must throw, never construct a half-parsed run.
  Bytes blob = serialize_manifest(root.manifest(0));
  blob.resize(blob.size() / 2);
  EXPECT_THROW(parse_manifest({blob.data(), blob.size()}), CorruptStream);
}

// ---- payload parsers: every truncation and bit flip ----

/// The intact `blob` must parse and re-serialize to the same bytes; every
/// truncation must throw CorruptStream, and every single-bit flip must
/// either throw CorruptStream or parse — nothing else.
template <class Parse, class Serialize>
void fuzz_payload(const Bytes& blob, Parse parse, Serialize serialize) {
  EXPECT_EQ(serialize(parse(ByteSpan{blob.data(), blob.size()})), blob);
  for (std::size_t keep = 0; keep < blob.size(); ++keep)
    EXPECT_THROW(parse(ByteSpan{blob.data(), keep}), CorruptStream)
        << "truncated to " << keep;
  for (std::size_t bit = 0; bit < 8 * blob.size(); ++bit) {
    Bytes damaged = blob;
    damaged[bit / 8] =
        static_cast<std::uint8_t>(damaged[bit / 8] ^ (1u << (bit % 8)));
    try {
      parse(ByteSpan{damaged.data(), damaged.size()});
    } catch (const CorruptStream&) {
      // The only failure a damaged payload may produce.
    } catch (const std::exception& error) {
      ADD_FAILURE() << "flip of bit " << bit << " threw " << error.what();
    }
  }
}

RunManifest sample_manifest() {
  RunManifest manifest;
  manifest.codec_spec = kSpec;
  manifest.dataset = DatasetSpec{"cifar10", 7, kTake};
  manifest.model = tiny_model();
  manifest.config = base_config(parse_codec_spec(kSpec));
  manifest.config.heterogeneous = net::HeterogeneousNetworkConfig{};
  manifest.config.topology.backhaul_heterogeneous =
      net::HeterogeneousNetworkConfig{};
  manifest.config.population.preset = "custom";
  manifest.config.population.mix = {{"laptop", 2.0}};
  manifest.edge = 1;
  return manifest;
}

WirePartial sample_partial() {
  WirePartial wire;
  wire.round = 3;
  wire.partial.payload = {1, 2, 3, 4, 5};
  wire.partial.stats.original_bytes = 40;
  wire.partial.stats.sparse_tensors = 2;
  wire.partial.weight = 32.0;
  wire.partial.clients = 2;
  for (std::size_t k = 0; k < 2; ++k) {
    WireDelivery d;
    d.delivery.trace.client = 2 + k;
    d.delivery.trace.node = 2;
    d.delivery.trace.arrival_seconds = 1.25 + static_cast<double>(k);
    d.delivery.trace.sparse_tensors = 5;
    d.delivery.trace.device_class = "phone";
    d.delivery.trace.decision.worthwhile = true;
    d.delivery.train_seconds = 0.5;
    d.upload_seconds = 1.0 + static_cast<double>(k);
    wire.deliveries.push_back(d);
  }
  return wire;
}

TEST(FederationTest, PayloadParsersRejectTruncationAndBitFlips) {
  fuzz_payload(serialize_manifest(sample_manifest()), parse_manifest,
               serialize_manifest);
  fuzz_payload(
      serialize_round_open({3, 1.5, {0, 3, 2}}),
      [](ByteSpan bytes) { return parse_round_open(bytes, kClients); },
      serialize_round_open);
  fuzz_payload(serialize_partial(sample_partial()), parse_partial,
               serialize_partial);
}

TEST(FederationTest, PayloadParsersRejectOutOfRangeValues) {
  auto parses = [](const RunManifest& manifest) {
    const Bytes blob = serialize_manifest(manifest);
    parse_manifest({blob.data(), blob.size()});
  };
  RunManifest bad = sample_manifest();
  bad.model.scale = static_cast<nn::ModelScale>(0xFF);
  EXPECT_THROW(parses(bad), CorruptStream);
  bad = sample_manifest();
  bad.config.heterogeneous->distribution =
      static_cast<net::LinkDistribution>(0xFF);
  EXPECT_THROW(parses(bad), CorruptStream);
  bad = sample_manifest();
  bad.config.topology.backhaul_heterogeneous->distribution =
      static_cast<net::LinkDistribution>(0xFF);
  EXPECT_THROW(parses(bad), CorruptStream);
  bad = sample_manifest();
  bad.config.downlink_mode = static_cast<DownlinkMode>(0xFF);
  EXPECT_THROW(parses(bad), CorruptStream);
  bad = sample_manifest();
  bad.config.topology.mode = static_cast<TopologyMode>(0xFF);
  EXPECT_THROW(parses(bad), CorruptStream);
  bad = sample_manifest();
  bad.config.topology.edge_mode = static_cast<EdgeMode>(0xFF);
  EXPECT_THROW(parses(bad), CorruptStream);
  bad = sample_manifest();
  bad.config.topology.sharding = static_cast<ShardStrategy>(0xFF);
  EXPECT_THROW(parses(bad), CorruptStream);
  bad = sample_manifest();
  bad.config.population.availability = static_cast<AvailabilityMode>(0xFF);
  EXPECT_THROW(parses(bad), CorruptStream);
  // A cohort naming a client the run does not have, or one client twice.
  const Bytes open = serialize_round_open({0, 0.0, {0, 3}});
  EXPECT_THROW(parse_round_open({open.data(), open.size()}, 3), CorruptStream);
  const Bytes twice = serialize_round_open({0, 0.0, {1, 2, 1}});
  EXPECT_THROW(parse_round_open({twice.data(), twice.size()}, 3),
               CorruptStream);
  // A PARTIAL must carry the fold that shipped it.
  WirePartial empty = sample_partial();
  empty.deliveries.clear();
  const Bytes blob = serialize_partial(empty);
  EXPECT_THROW(parse_partial({blob.data(), blob.size()}), CorruptStream);
}

TEST(FederationTest, CtorRejectsUnsupportedConfigs) {
  auto [train, test] = data::make_dataset("cifar10", 7);
  (void)train;
  const DatasetSpec dataset{"cifar10", 7, kTake};
  auto make_root = [&](const std::string& spec_string) {
    const CodecSpec spec = parse_codec_spec(spec_string);
    FederatedRoot root(tiny_model(), dataset, data::take(test, 256),
                       base_config(spec), spec);
  };
  // Flat topology: nothing to distribute.
  EXPECT_THROW(make_root("fedsz:eb=rel:1e-2"), InvalidArgument);
  // Checkpointing is the in-process coordinator's job.
  EXPECT_THROW(
      make_root("fedsz:eb=rel:1e-2,topology=hier:2,checkpoint=/tmp/x.ck:1"),
      InvalidArgument);
  // A downlink spec needs the in-process broadcast machinery.
  EXPECT_THROW(
      make_root("fedsz:eb=rel:1e-2,topology=hier:2,downlink=fedsz:eb=rel:1e-2"),
      InvalidArgument);
}

/// A loopback worker thread. Joined on scope exit even when the root
/// throws; its own errors surface through the root (a dead worker is churn,
/// which breaks the equality checks), so they never terminate the test.
std::jthread spawn_worker(net::StreamPtr stream,
                          void (*body)(net::StreamPtr) = run_edge_worker) {
  return std::jthread([stream = std::move(stream), body]() mutable {
    try {
      body(std::move(stream));
    } catch (const std::exception&) {
      // Reported by the root as churn.
    }
  });
}

/// `spec_string` through a FederatedRoot with one loopback worker per edge.
FlRunResult run_loopback(const char* spec_string) {
  const CodecSpec spec = parse_codec_spec(spec_string);
  auto [train, test] = data::make_dataset("cifar10", 7);
  (void)train;
  FederatedRoot root(tiny_model(), DatasetSpec{"cifar10", 7, kTake},
                     data::take(test, 256), base_config(spec), spec);
  std::vector<net::StreamPtr> root_ends;
  std::vector<std::jthread> workers;
  for (std::size_t e = 0; e < root.edge_count(); ++e) {
    auto [root_end, worker_end] = net::make_loopback_pair();
    root_ends.push_back(std::move(root_end));
    workers.push_back(spawn_worker(std::move(worker_end)));
  }
  return root.run_with_streams(std::move(root_ends));
}

bool traces_late_client(const FlRunResult& result) {
  for (const RoundRecord& r : result.rounds)
    for (const ClientTraceEntry& t : r.clients)
      if (t.status == DeliveryStatus::kLate) return true;
  return false;
}

// The base spec; a sparse-quantization campaign whose per-client sparse
// tensor counts must cross the wire like every other trace field; client
// and edge error feedback over a compressed backhaul with skewed shards;
// a two-tier tree whose upper tier runs inside the root's engine; and
// buffered edges that ship after one fold, whose workers must report the
// clients that arrive late.
TEST(FederationTest, LoopbackRunMatchesInProcess) {
  const char* buffered =
      "fedsz:eb=rel:1e-2,topology=hier:2,edgemode=buffered:1";
  for (const char* spec :
       {kSpec, "sparse:eb=rel:1e-2,sparsity=0.9,topology=hier:2",
        "fedsz:eb=rel:1e-2,topology=hier:2,ef=on,edgeef=on,"
        "backhaul=fedsz:eb=rel:1e-1,data=dirichlet:0.5+sizeskew:1.2",
        "fedsz:eb=rel:1e-2,topology=hier:2x2", buffered}) {
    SCOPED_TRACE(spec);
    const FlRunResult reference = run_in_process(spec);
    ASSERT_EQ(reference.rounds.size(), static_cast<std::size_t>(kRounds));
    // The buffered pin means nothing unless some client arrived late.
    if (spec == buffered) {
      EXPECT_TRUE(traces_late_client(reference));
    }
    expect_results_identical(run_loopback(spec), reference);
  }
}

// A client population must cross the wire bit-identically: the manifest's
// codec spec rebuilds the same device classes, links, and data weights on
// every worker, and the root's engine makes the in-process availability
// draws in the same (edge, member) order.
TEST(FederationTest, PopulationLoopbackMatchesInProcess) {
  const char* pop_spec =
      "fedsz:eb=rel:1e-2,topology=hier:2,population=mixed:seed=9";
  const FlRunResult reference = run_in_process(pop_spec);
  ASSERT_EQ(reference.rounds.size(), static_cast<std::size_t>(kRounds));
  const FlRunResult distributed = run_loopback(pop_spec);
  expect_results_identical(distributed, reference);
  for (const RoundRecord& r : distributed.rounds)
    EXPECT_EQ(r.eligible_clients + r.ineligible_clients, kClients);
}

// Population mid-round dropout rides the in-process dropout machinery and
// stays there.
TEST(FederationTest, CtorRejectsPopulationDropout) {
  auto [train, test] = data::make_dataset("cifar10", 7);
  (void)train;
  const CodecSpec spec = parse_codec_spec(
      "fedsz:eb=rel:1e-2,topology=hier:2,population=mixed:drop=0.2");
  EXPECT_THROW(FederatedRoot(tiny_model(), DatasetSpec{"cifar10", 7, kTake},
                             data::take(test, 256), base_config(spec), spec),
               InvalidArgument);
}

/// A worker that completes the handshake and then dies before round 0: its
/// round-0 cohort is traced as dropped, and from round 1 its members are
/// re-homed onto the survivor — the campaign finishes with full
/// participation.
void ack_then_close(net::StreamPtr stream) {
  net::FrameChannel chan(std::move(stream));
  const auto hello = chan.recv();
  ASSERT_TRUE(hello.has_value());
  ASSERT_EQ(hello->type, net::FrameType::kHello);
  const RunManifest manifest =
      parse_manifest({hello->payload.data(), hello->payload.size()});
  ByteWriter ack;
  ack.put_u32(run_fingerprint(manifest.config, manifest.model));
  ack.put_varint(manifest.edge);
  const Bytes bytes = ack.finish();
  chan.send(net::FrameType::kAck, {bytes.data(), bytes.size()});
  chan.close();
}

/// Round 0 aggregates only the survivor's cohort and traces the dead
/// edge's two members as dropped; round 1 records the crash and everyone
/// trains again.
void expect_deserter_churn(const FlRunResult& result) {
  ASSERT_EQ(result.rounds.size(), static_cast<std::size_t>(kRounds));
  EXPECT_EQ(result.rounds[0].participants, 2u);
  std::size_t dropped = 0;
  for (const ClientTraceEntry& t : result.rounds[0].clients)
    if (t.status == DeliveryStatus::kDropped) ++dropped;
  EXPECT_EQ(dropped, 2u);
  ASSERT_EQ(result.rounds[1].crashed_nodes.size(), 1u);
  EXPECT_EQ(result.rounds[1].participants, kClients);
}

/// Root-side stream that reports when the root's reader hits EOF.
class EofSignallingStream final : public net::Stream {
 public:
  explicit EofSignallingStream(net::StreamPtr inner)
      : inner_(std::move(inner)) {}
  void write_all(ByteSpan data) override { inner_->write_all(data); }
  std::size_t read_some(std::uint8_t* out, std::size_t capacity) override {
    const std::size_t got = inner_->read_some(out, capacity);
    if (got == 0 && !signalled_.exchange(true)) eof_.set_value();
    return got;
  }
  void close() override { inner_->close(); }
  std::future<void> eof() { return eof_.get_future(); }

 private:
  net::StreamPtr inner_;
  std::promise<void> eof_;
  std::atomic<bool> signalled_{false};
};

TEST(FederationTest, CrashedWorkerIsRehomed) {
  const CodecSpec spec = parse_codec_spec(kSpec);
  auto [train, test] = data::make_dataset("cifar10", 7);
  (void)train;
  FlRunConfig config = base_config(spec);
  FederationOptions options;
  // The deserter's close() surfaces as an EOF event immediately, so crash
  // detection never waits on this; keep the timeout generous enough that a
  // loaded CI box cannot starve the SURVIVOR's heartbeat thread into a
  // false positive.
  options.heartbeat_timeout_seconds = 15.0;
  FederatedRoot root(tiny_model(), DatasetSpec{"cifar10", 7, kTake},
                     data::take(test, 256), config, spec, nullptr, options);
  ASSERT_EQ(root.edge_count(), 2u);

  auto [root0, worker0] = net::make_loopback_pair();
  auto [root1, worker1] = net::make_loopback_pair();
  const std::jthread survivor = spawn_worker(std::move(worker0));
  const std::jthread deserter =
      spawn_worker(std::move(worker1), ack_then_close);

  std::vector<net::StreamPtr> streams;
  streams.push_back(std::move(root0));
  streams.push_back(std::move(root1));
  expect_deserter_churn(root.run_with_streams(std::move(streams)));
}

// The order CrashedWorkerIsRehomed only hits under load: the deserter's
// ACK and EOF both reach the root while the survivor has not acked yet.
// The survivor starts only after the root's reader has read that EOF, so
// the handshake must hand the death to round 0 as churn, not abort.
TEST(FederationTest, DeathBeforePeerAckIsChurn) {
  const CodecSpec spec = parse_codec_spec(kSpec);
  auto [train, test] = data::make_dataset("cifar10", 7);
  (void)train;
  FlRunConfig config = base_config(spec);
  FederationOptions options;
  options.heartbeat_timeout_seconds = 15.0;
  FederatedRoot root(tiny_model(), DatasetSpec{"cifar10", 7, kTake},
                     data::take(test, 256), config, spec, nullptr, options);
  ASSERT_EQ(root.edge_count(), 2u);

  auto [root0, worker0] = net::make_loopback_pair();
  auto [root1, worker1] = net::make_loopback_pair();
  auto deserter_side = std::make_shared<EofSignallingStream>(root1);
  const std::jthread survivor([stream = std::move(worker0),
                               eof = deserter_side->eof()]() mutable {
    eof.wait();
    // The root's reader queues the EOF event a few instructions after
    // read_some returns; the pause keeps a wake-up preemption of that
    // reader from letting this ACK overtake it.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    try {
      run_edge_worker(std::move(stream));
    } catch (const std::exception&) {
      // Reported by the root as churn.
    }
  });
  const std::jthread deserter =
      spawn_worker(std::move(worker1), ack_then_close);

  std::vector<net::StreamPtr> streams;
  streams.push_back(std::move(root0));
  streams.push_back(deserter_side);
  expect_deserter_churn(root.run_with_streams(std::move(streams)));
}

/// Stream that passes `rewrite(payload)` on in place of every `type` frame
/// written through it. FrameChannel::send writes one whole frame per
/// write_all, so each call decodes to exactly one frame.
class FrameRewritingStream final : public net::Stream {
 public:
  FrameRewritingStream(net::StreamPtr inner, net::FrameType type,
                       std::function<Bytes(ByteSpan)> rewrite)
      : inner_(std::move(inner)), type_(type), rewrite_(std::move(rewrite)) {}
  void write_all(ByteSpan data) override {
    decoder_.feed(data);
    const std::optional<net::Frame> frame = decoder_.next();
    if (!frame || frame->type != type_) return inner_->write_all(data);
    const Bytes body =
        rewrite_({frame->payload.data(), frame->payload.size()});
    const Bytes rewritten =
        net::encode_frame(type_, {body.data(), body.size()});
    inner_->write_all({rewritten.data(), rewritten.size()});
  }
  std::size_t read_some(std::uint8_t* out, std::size_t capacity) override {
    return inner_->read_some(out, capacity);
  }
  void close() override { inner_->close(); }

 private:
  net::StreamPtr inner_;
  net::FrameType type_;
  std::function<Bytes(ByteSpan)> rewrite_;
  net::FrameDecoder decoder_;
};

// Edge 0's cohort is clients {0, 1}; its worker claims one of them was
// client 3, which edge 1 holds. The root must reject that PARTIAL instead
// of tracing client 3 twice.
TEST(FederationTest, PartialMustAnswerItsCohort) {
  const CodecSpec spec = parse_codec_spec(kSpec);
  auto [train, test] = data::make_dataset("cifar10", 7);
  (void)train;
  FederatedRoot root(tiny_model(), DatasetSpec{"cifar10", 7, kTake},
                     data::take(test, 256), base_config(spec), spec);
  ASSERT_EQ(root.edge_count(), 2u);

  auto [root0, worker0] = net::make_loopback_pair();
  auto [root1, worker1] = net::make_loopback_pair();
  const std::jthread liar = spawn_worker(std::make_shared<FrameRewritingStream>(
      std::move(worker0), net::FrameType::kPartial, [](ByteSpan payload) {
        WirePartial partial = parse_partial(payload);
        partial.deliveries[0].delivery.trace.client = 3;
        return serialize_partial(partial);
      }));
  const std::jthread honest = spawn_worker(std::move(worker1));

  std::vector<net::StreamPtr> streams;
  streams.push_back(std::move(root0));
  streams.push_back(std::move(root1));
  EXPECT_THROW(root.run_with_streams(std::move(streams)), CorruptStream);
}

// Edge 0's HELLO reaches its worker with another compute jitter, so that
// worker rebuilds a different run and ACKs that run's fingerprint. The root
// must refuse it in the handshake, before round 0 opens.
TEST(FederationTest, WorkerThatRebuildsAnotherRunFailsHandshake) {
  const CodecSpec spec = parse_codec_spec(kSpec);
  auto [train, test] = data::make_dataset("cifar10", 7);
  (void)train;
  FederatedRoot root(tiny_model(), DatasetSpec{"cifar10", 7, kTake},
                     data::take(test, 256), base_config(spec), spec);
  ASSERT_EQ(root.edge_count(), 2u);

  auto [root0, worker0] = net::make_loopback_pair();
  auto [root1, worker1] = net::make_loopback_pair();
  const std::jthread misled = spawn_worker(std::move(worker0));
  const std::jthread honest = spawn_worker(std::move(worker1));

  std::vector<net::StreamPtr> streams;
  streams.push_back(std::make_shared<FrameRewritingStream>(
      std::move(root0), net::FrameType::kHello, [](ByteSpan payload) {
        RunManifest manifest = parse_manifest(payload);
        manifest.config.compute_jitter = 0.5;
        return serialize_manifest(manifest);
      }));
  streams.push_back(std::move(root1));
  try {
    root.run_with_streams(std::move(streams));
    ADD_FAILURE() << "the misled worker passed the handshake";
  } catch (const net::TransportError& error) {
    // Not "died during handshake": the worker acked, with another run.
    EXPECT_NE(std::string(error.what()).find("mismatched fingerprint"),
              std::string::npos)
        << error.what();
  }
}

#ifdef FEDSZ_BIN_DIR

TEST(FederationTest, TcpWorkersMatchInProcess) {
  const std::filesystem::path worker_binary =
      std::filesystem::path(FEDSZ_BIN_DIR) / "fedsz_edge_worker";
  if (!std::filesystem::exists(worker_binary))
    GTEST_SKIP() << "fedsz_edge_worker not built at " << worker_binary;

  const FlRunResult reference = run_in_process();

  const CodecSpec spec = parse_codec_spec(kSpec);
  auto [train, test] = data::make_dataset("cifar10", 7);
  (void)train;
  FlRunConfig config = base_config(spec);
  config.transport = "tcp:0";
  FederatedRoot root(tiny_model(), DatasetSpec{"cifar10", 7, kTake},
                     data::take(test, 256), config, spec);
  const std::string endpoint = "127.0.0.1:" + std::to_string(root.port());
  std::vector<pid_t> workers;
  for (std::size_t e = 0; e < root.edge_count(); ++e) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::execl(worker_binary.c_str(), worker_binary.c_str(), "--connect",
              endpoint.c_str(), static_cast<char*>(nullptr));
      ::_exit(127);
    }
    workers.push_back(pid);
  }
  const FlRunResult distributed = root.run();
  for (const pid_t pid : workers) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "worker exited abnormally";
  }
  expect_results_identical(distributed, reference);
}

#endif  // FEDSZ_BIN_DIR

}  // namespace
}  // namespace fedsz::core
