// Cross-process federation: the wire side of the round engine. A
// FederatedRoot owns the server side of a `topology=hier:<N>[x<M>...]`
// campaign — the global model, the cohort RNG, the aggregation strategy,
// every tier above 1, evaluation — while each tier-1 edge cohort runs
// inside its own WORKER (a thread over a loopback stream in tests, a
// separate `fedsz_edge_worker` process over TCP in production) speaking
// the versioned frame protocol from net/wire.hpp:
//
//   root -> worker   HELLO      run manifest (codec spec, dataset recipe,
//                               model, the whole FlRunConfig, edge index)
//   worker -> root   ACK        run_fingerprint of the run the worker
//                               rebuilt + its edge index
//   root -> worker   ROUND_OPEN round index, virtual open time, cohort
//   root -> worker   BROADCAST  the serialized global model (bit-exact)
//   worker -> root   PARTIAL    one re-encoded partial mean + each client's
//                               Delivery and upload time
//   worker -> root   HEARTBEAT  liveness beacon (wall-clock cadence)
//   root -> worker   BYE        campaign over
//
// One round engine on both sides: the root runs the same event pump as
// FlCoordinator::run() (run_remote_edges in core/fl/coordinator.hpp); only
// the tier-1 edge work crosses the wire. At each round open the root ships
// every cohort and waits for every live edge's PARTIAL, matched to the
// cohort it sent by client id. The worker builds the FlCoordinator an
// in-process run builds and runs that pump over its one edge
// (FlCoordinator::run_edge): the pool trains the cohort, arrival events
// set the fold order, the edge's ship rule (sync, or buffered:K) sets when
// the partial ships, and every arrival is reported, a late one too. The
// root's engine then schedules each reported upload and arrival on the
// virtual clock and merges the partial when the same ship rule fires
// there. A TCP run with W workers is therefore BIT-IDENTICAL, round for
// round, to FlCoordinator::run() on the same config (federation_test pins
// every virtual-clock field). What stays here is what is actually
// distributed: the handshake, the reader and heartbeat threads, crash
// detection and the frame I/O.
//
// Churn: a worker that disconnects or misses heartbeats past the timeout
// is declared crashed; its outstanding cohort is traced as dropped, and at
// every later round open the engine re-homes its members like an
// in-process edge crash (workers train whatever cohort the root assigns,
// so re-homing needs no data movement).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/fl/coordinator.hpp"
#include "net/transport.hpp"

namespace fedsz::core {

struct CodecSpec;

/// How both sides construct the training data: by name through
/// data::make_dataset, so the manifest ships a recipe, never samples.
struct DatasetSpec {
  std::string name = "cifar10";
  std::uint64_t seed = 7;
  /// Nonzero: train on only the first `take` samples (data::take), the
  /// idiom every example/test uses to keep synthetic runs fast.
  std::size_t take = 0;
};

struct FederationOptions {
  /// Worker-side HEARTBEAT cadence (wall seconds).
  double heartbeat_interval_seconds = 0.25;
  /// Root-side silence budget while awaiting a worker's partial; past it
  /// the worker is declared crashed and its members re-shard.
  double heartbeat_timeout_seconds = 60.0;
};

/// Everything an edge worker needs to rebuild the run: the canonical codec
/// spec (it builds only the worker's codec), the dataset recipe, the model,
/// the root's whole run configuration (comm model, links, topology with its
/// shard seed resolved, population), this worker's tier-1 edge, and its
/// HEARTBEAT cadence (the root's FederationOptions). Its layout is in
/// core/fl/layout.hpp. The worker ACKs run_fingerprint of the config and
/// model it built from this, so a worker that rebuilds a different run
/// fails the handshake loudly.
struct RunManifest {
  std::string codec_spec;
  DatasetSpec dataset;
  nn::ModelConfig model;
  FlRunConfig config;
  std::uint32_t edge = 0;
  double heartbeat_interval_seconds = 0.25;
};

Bytes serialize_manifest(const RunManifest& manifest);
/// Throws CorruptStream on truncation, trailing bytes, or an out-of-range
/// enum, flag or integer.
RunManifest parse_manifest(ByteSpan bytes);

/// ROUND_OPEN: the round, its virtual open time, and one edge's cohort.
struct RoundOpenMsg {
  int round = 0;
  double t_open = 0.0;
  std::vector<std::size_t> cohort;  // global client ids, dispatch order
};

Bytes serialize_round_open(const RoundOpenMsg& msg);
/// Throws CorruptStream on truncation, trailing bytes, or a cohort client
/// id that is >= `clients` or repeated.
RoundOpenMsg parse_round_open(ByteSpan bytes, std::size_t clients);
/// PARTIAL is a WirePartial, declared with the round engine's wire side
/// in core/fl/coordinator.hpp.
Bytes serialize_partial(const WirePartial& partial);
/// Throws CorruptStream on truncation, trailing bytes, an out-of-range
/// enum or flag byte, or an empty delivery list.
WirePartial parse_partial(ByteSpan bytes);

/// The server process of a distributed campaign. Restrictions (enforced in
/// the constructor): a hierarchical topology (its tier-1 edges are the
/// workers), a barrier scheduler (a worker runs its whole cohort at round
/// open), a free lossless broadcast (a downlink needs the root's per-hop
/// schedule), no injected failure schedule or population dropout (their
/// draws come from the root's streams and the straggler deadline is the
/// root's event; wire churn IS the failure model here), no checkpointing
/// (the clients' error-feedback state lives on the workers).
class FederatedRoot {
 public:
  /// `spec` supplies only the workers' codec; `config` carries the comm
  /// model (apply_comm_spec already applied) and reaches every worker
  /// whole, in its HELLO manifest. With
  /// config.transport == "tcp:<port>" the constructor binds the listener
  /// immediately so port() is valid before any worker spawns.
  FederatedRoot(const nn::ModelConfig& model_config, DatasetSpec train,
                data::DatasetPtr test, FlRunConfig config,
                const CodecSpec& spec, SchedulerPtr scheduler = nullptr,
                FederationOptions options = {});
  ~FederatedRoot();

  /// Bound TCP port (only after constructing with a tcp transport).
  std::uint16_t port() const;
  std::size_t edge_count() const { return edge_count_; }
  /// The manifest worker `edge` would receive (test introspection).
  RunManifest manifest(std::uint32_t edge) const;

  /// TCP mode: accept edge_count() worker connections (assignment follows
  /// accept order), then drive the campaign to completion.
  FlRunResult run();
  /// Drive the campaign over caller-supplied connected streams, one per
  /// edge — the loopback-transport path (workers as in-process threads).
  FlRunResult run_with_streams(std::vector<net::StreamPtr> streams);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::size_t edge_count_ = 0;
};

/// The entire worker side: the handshake, which builds the run's
/// FlCoordinator from the manifest; per round, FlCoordinator::run_edge over
/// the worker's edge; heartbeats; a clean BYE/EOF exit. Blocks until the
/// campaign ends or the stream dies; throws TransportError/CorruptStream on
/// a broken or malformed peer.
void run_edge_worker(net::StreamPtr stream);

}  // namespace fedsz::core
