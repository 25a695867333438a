// Cross-process federation: the distributed runtime must be BIT-IDENTICAL
// to the in-process coordinator on every virtual-clock-deterministic field
// — pinned here over the loopback transport (workers as threads), over
// real TCP with fedsz_edge_worker processes (when the build provides
// FEDSZ_BIN_DIR), and through churn (a worker that dies after the
// handshake gets its cohort dropped for the round and re-homed after).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/codec_spec.hpp"
#include "core/fl/coordinator.hpp"
#include "core/fl/federation.hpp"
#include "data/synthetic.hpp"
#include "net/transport.hpp"
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
  EXPECT_EQ(a.mean_ef_residual_norm, b.mean_ef_residual_norm);
  EXPECT_EQ(a.mean_loss, b.mean_loss);
  ASSERT_EQ(a.clients.size(), b.clients.size());
  for (std::size_t k = 0; k < a.clients.size(); ++k) {
    const ClientTraceEntry& x = a.clients[k];
    const ClientTraceEntry& y = b.clients[k];
    EXPECT_EQ(x.client, y.client) << "trace " << k;
    EXPECT_EQ(x.arrival_seconds, y.arrival_seconds) << "trace " << k;
    EXPECT_EQ(x.payload_bytes, y.payload_bytes) << "trace " << k;
    EXPECT_EQ(x.weight, y.weight) << "trace " << k;
    EXPECT_EQ(x.status, y.status) << "trace " << k;
    EXPECT_EQ(x.device_class, y.device_class) << "trace " << k;
    EXPECT_EQ(x.eligible, y.eligible) << "trace " << k;
  }
  EXPECT_EQ(a.edges.size(), b.edges.size());
}

void expect_results_identical(const FlRunResult& a, const FlRunResult& b) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t r = 0; r < a.rounds.size(); ++r)
    expect_rounds_identical(a.rounds[r], b.rounds[r]);
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.total_virtual_seconds, b.total_virtual_seconds);
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
    EXPECT_EQ(manifest.edges, 2u);
    EXPECT_EQ(manifest.clients, kClients);
    EXPECT_EQ(manifest.dataset.take, kTake);
    EXPECT_NE(manifest.fingerprint, 0u);
    const Bytes blob = serialize_manifest(manifest);
    const RunManifest parsed = parse_manifest({blob.data(), blob.size()});
    EXPECT_EQ(parsed.codec_spec, manifest.codec_spec);
    EXPECT_EQ(parsed.seed, manifest.seed);
    EXPECT_EQ(parsed.shard_seed, manifest.shard_seed);
    EXPECT_EQ(parsed.edge, manifest.edge);
    EXPECT_EQ(parsed.fingerprint, manifest.fingerprint);
    EXPECT_EQ(serialize_manifest(parsed), blob);
  }
  // Corrupt manifests must throw, never construct a half-parsed run.
  Bytes blob = serialize_manifest(root.manifest(0));
  blob.resize(blob.size() / 2);
  EXPECT_THROW(parse_manifest({blob.data(), blob.size()}), CorruptStream);
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
  // Multi-tier trees stay in process.
  EXPECT_THROW(make_root("fedsz:eb=rel:1e-2,topology=hier:2x2"),
               InvalidArgument);
  // Checkpointing is the in-process coordinator's job.
  EXPECT_THROW(
      make_root("fedsz:eb=rel:1e-2,topology=hier:2,checkpoint=/tmp/x.ck:1"),
      InvalidArgument);
  // A downlink spec needs the in-process broadcast machinery.
  EXPECT_THROW(
      make_root("fedsz:eb=rel:1e-2,topology=hier:2,downlink=fedsz:eb=rel:1e-2"),
      InvalidArgument);
}

TEST(FederationTest, LoopbackRunMatchesInProcess) {
  const FlRunResult reference = run_in_process();
  ASSERT_EQ(reference.rounds.size(), static_cast<std::size_t>(kRounds));

  const CodecSpec spec = parse_codec_spec(kSpec);
  auto [train, test] = data::make_dataset("cifar10", 7);
  (void)train;
  FederatedRoot root(tiny_model(), DatasetSpec{"cifar10", 7, kTake},
                     data::take(test, 256), base_config(spec), spec);
  std::vector<net::StreamPtr> root_ends;
  std::vector<std::thread> workers;
  for (std::size_t e = 0; e < root.edge_count(); ++e) {
    auto [root_end, worker_end] = net::make_loopback_pair();
    root_ends.push_back(std::move(root_end));
    workers.emplace_back(
        [stream = std::move(worker_end)]() mutable {
          run_edge_worker(std::move(stream));
        });
  }
  const FlRunResult distributed = root.run_with_streams(std::move(root_ends));
  for (std::thread& worker : workers) worker.join();
  expect_results_identical(distributed, reference);
}

// A client population must cross the wire bit-identically: the manifest's
// codec spec rebuilds the same device classes, links, and data weights on
// every worker, and the root replays the in-process availability draws in
// the same (edge, member) order.
TEST(FederationTest, PopulationLoopbackMatchesInProcess) {
  const char* pop_spec =
      "fedsz:eb=rel:1e-2,topology=hier:2,population=mixed:seed=9";
  const FlRunResult reference = run_in_process(pop_spec);
  ASSERT_EQ(reference.rounds.size(), static_cast<std::size_t>(kRounds));

  const CodecSpec spec = parse_codec_spec(pop_spec);
  auto [train, test] = data::make_dataset("cifar10", 7);
  (void)train;
  FederatedRoot root(tiny_model(), DatasetSpec{"cifar10", 7, kTake},
                     data::take(test, 256), base_config(spec), spec);
  std::vector<net::StreamPtr> root_ends;
  std::vector<std::thread> workers;
  for (std::size_t e = 0; e < root.edge_count(); ++e) {
    auto [root_end, worker_end] = net::make_loopback_pair();
    root_ends.push_back(std::move(root_end));
    workers.emplace_back(
        [stream = std::move(worker_end)]() mutable {
          run_edge_worker(std::move(stream));
        });
  }
  const FlRunResult distributed = root.run_with_streams(std::move(root_ends));
  for (std::thread& worker : workers) worker.join();
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

// A worker that completes the handshake and then dies: its round-0 cohort
// is traced as dropped, and from round 1 its members are re-homed onto the
// survivor — the campaign finishes with full participation.
/// A worker that completes the handshake and dies before round 0.
void ack_then_close(net::StreamPtr stream) {
  net::FrameChannel chan(std::move(stream));
  const auto hello = chan.recv();
  ASSERT_TRUE(hello.has_value());
  ASSERT_EQ(hello->type, net::FrameType::kHello);
  const RunManifest manifest =
      parse_manifest({hello->payload.data(), hello->payload.size()});
  ByteWriter ack;
  ack.put_u32(manifest.fingerprint);
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
  std::thread survivor([stream = std::move(worker0)]() mutable {
    run_edge_worker(std::move(stream));
  });
  std::thread deserter([stream = std::move(worker1)]() mutable {
    ack_then_close(std::move(stream));
  });

  std::vector<net::StreamPtr> streams;
  streams.push_back(std::move(root0));
  streams.push_back(std::move(root1));
  const FlRunResult result = root.run_with_streams(std::move(streams));
  survivor.join();
  deserter.join();
  expect_deserter_churn(result);
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
  std::thread survivor([stream = std::move(worker0),
                        eof = deserter_side->eof()]() mutable {
    eof.wait();
    // The root's reader queues the EOF event a few instructions after
    // read_some returns; the pause keeps a wake-up preemption of that
    // reader from letting this ACK overtake it.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    run_edge_worker(std::move(stream));
  });
  std::thread deserter([stream = std::move(worker1)]() mutable {
    ack_then_close(std::move(stream));
  });

  std::vector<net::StreamPtr> streams;
  streams.push_back(std::move(root0));
  streams.push_back(deserter_side);
  const FlRunResult result = root.run_with_streams(std::move(streams));
  survivor.join();
  deserter.join();
  expect_deserter_churn(result);
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
