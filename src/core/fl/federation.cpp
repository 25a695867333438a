#include "core/fl/federation.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <stop_token>
#include <thread>

#include "core/codec_spec.hpp"
#include "core/fl/checkpoint.hpp"
#include "core/fl/layout.hpp"
#include "data/synthetic.hpp"
#include "util/bytebuffer.hpp"
#include "util/timer.hpp"

namespace fedsz::core {

namespace {

using Clock = std::chrono::steady_clock;

ByteSpan view(const Bytes& bytes) { return {bytes.data(), bytes.size()}; }

/// Owns a thread that talks over `chan`. Destruction closes the channel —
/// waking the thread from a blocking recv or send — then stops and joins
/// it, so no exit path can leave it joinable.
class ChannelThread {
 public:
  template <class Body>
  ChannelThread(net::FrameChannel& chan, Body&& body)
      : chan_(chan), thread_(std::forward<Body>(body)) {}
  ChannelThread(const ChannelThread&) = delete;
  ChannelThread& operator=(const ChannelThread&) = delete;
  ~ChannelThread() { chan_.close(); }  // then ~jthread: stop + join

 private:
  net::FrameChannel& chan_;
  std::jthread thread_;
};

}  // namespace

Bytes serialize_round_open(const RoundOpenMsg& msg) {
  return layout::serialize(msg);
}

RoundOpenMsg parse_round_open(ByteSpan bytes, std::size_t clients) {
  RoundOpenMsg msg =
      layout::parse<RoundOpenMsg>(bytes, "federation: bad ROUND_OPEN");
  std::vector<char> seen(clients, 0);
  for (const std::size_t id : msg.cohort) {
    if (id >= clients)
      throw CorruptStream("federation: cohort client id out of range");
    if (seen[id]++)
      throw CorruptStream("federation: cohort repeats client " +
                          std::to_string(id));
  }
  return msg;
}

Bytes serialize_partial(const WirePartial& partial) {
  return layout::serialize(partial);
}

WirePartial parse_partial(ByteSpan bytes) {
  WirePartial partial =
      layout::parse<WirePartial>(bytes, "federation: bad PARTIAL");
  if (partial.deliveries.empty())
    throw CorruptStream("federation: PARTIAL without a delivery");
  return partial;
}

// ---- manifest ----

Bytes serialize_manifest(const RunManifest& manifest) {
  return layout::serialize(manifest);
}

RunManifest parse_manifest(ByteSpan bytes) {
  return layout::parse<RunManifest>(bytes, "manifest");
}

// ---- edge worker ----

namespace {

/// The FlCoordinator an in-process run of `m` builds, on `config` (the
/// manifest's, with the worker's pool size). The worker runs its edge's
/// rounds on it (run_edge) and never evaluates.
FlCoordinator edge_coordinator(const RunManifest& m, FlRunConfig config) {
  auto [train, test] = data::make_dataset(m.dataset.name, m.dataset.seed);
  if (m.dataset.take > 0) train = data::take(train, m.dataset.take);
  return FlCoordinator(m.model, std::move(train), std::move(test),
                       std::move(config),
                       make_codec(parse_codec_spec(m.codec_spec)));
}

}  // namespace

void run_edge_worker(net::StreamPtr stream) {
  net::FrameChannel chan(std::move(stream));
  std::optional<net::Frame> hello = chan.recv();
  if (!hello) throw net::TransportError("federation: peer closed before HELLO");
  if (hello->type != net::FrameType::kHello)
    throw CorruptStream("federation: expected HELLO, got " +
                        net::frame_type_name(hello->type));
  const RunManifest manifest = parse_manifest(view(hello->payload));
  // One pool thread keeps one training's working set alive at a time; four
  // cost tcp_tree 10% more peak memory. Trajectories do not depend on it.
  FlRunConfig config = manifest.config;
  config.threads = 1;
  // The ACK names the run this worker rebuilt, not the one it was sent: a
  // different build or a damaged manifest fails the root's comparison.
  const std::uint32_t fingerprint = run_fingerprint(config, manifest.model);
  FlCoordinator coordinator = edge_coordinator(manifest, std::move(config));
  if (manifest.edge >= coordinator.edge_count())
    throw CorruptStream("manifest: edge index out of range");

  ByteWriter ack;
  ack.put_u32(fingerprint);
  ack.put_varint(manifest.edge);
  const Bytes ack_bytes = ack.finish();
  chan.send(net::FrameType::kAck, view(ack_bytes));

  // Liveness beacon on the WALL clock (the root's crash detector is about
  // real processes, not the simulation). FrameChannel::send serializes
  // with the round loop's PARTIAL sends.
  const auto interval = std::chrono::duration<double>(
      std::max(0.01, manifest.heartbeat_interval_seconds));
  const ChannelThread heartbeat(chan, [&chan, interval](std::stop_token stop) {
    std::mutex mutex;
    std::condition_variable_any wake;
    std::unique_lock<std::mutex> lock(mutex);
    while (true) {
      wake.wait_for(lock, stop, interval, [] { return false; });
      if (stop.stop_requested()) return;
      try {
        chan.send(net::FrameType::kHeartbeat, ByteSpan{});
      } catch (const std::exception&) {
        return;
      }
    }
  });

  std::optional<RoundOpenMsg> pending;
  while (std::optional<net::Frame> frame = chan.recv()) {
    switch (frame->type) {
      case net::FrameType::kRoundOpen:
        pending =
            parse_round_open(view(frame->payload), manifest.config.clients);
        break;
      case net::FrameType::kBroadcast: {
        ByteReader in(view(frame->payload));
        const int round = static_cast<int>(in.get_varint());
        const StateDict global = StateDict::deserialize(in.get_blob_view());
        if (!pending || pending->round != round)
          throw CorruptStream(
              "federation: BROADCAST without a matching ROUND_OPEN");
        const Bytes out = serialize_partial(
            coordinator.run_edge(manifest.edge, round, pending->t_open,
                                 pending->cohort, global));
        chan.send(net::FrameType::kPartial, view(out));
        pending.reset();
        break;
      }
      case net::FrameType::kBye:
        return;
      default:
        throw CorruptStream("federation: unexpected " +
                            net::frame_type_name(frame->type) + " frame");
    }
  }
  // EOF without BYE: the root vanished; exit quietly (it already has — or
  // never will collect — everything this worker produced).
}

// ---- root ----

struct FederatedRoot::Impl {
  nn::ModelConfig model_config;
  DatasetSpec train_spec;
  data::DatasetPtr test;
  FlRunConfig config;  // shard_seed resolved
  std::string spec_string;
  SchedulerPtr scheduler;
  FederationOptions options;
  FlServer server;
  std::unique_ptr<ClientPopulation> population;
  std::unique_ptr<AggregationTree> tree;
  std::unique_ptr<net::TcpListener> listener;
  std::uint32_t fingerprint = 0;

  Impl(const nn::ModelConfig& model, DatasetSpec train, data::DatasetPtr t,
       FlRunConfig cfg, SchedulerPtr sched, FederationOptions opts)
      : model_config(model),
        train_spec(std::move(train)),
        test(std::move(t)),
        config(std::move(cfg)),
        scheduler(sched ? std::move(sched) : make_sync_scheduler()),
        options(opts),
        server(model),
        population(config.population.empty()
                       ? nullptr
                       : std::make_unique<ClientPopulation>(
                             config.population, config.clients,
                             config.seed)) {}

  RunManifest make_manifest(std::uint32_t edge) const {
    return {spec_string, train_spec, model_config, config, edge,
            options.heartbeat_interval_seconds};
  }
};

FederatedRoot::FederatedRoot(const nn::ModelConfig& model_config,
                             DatasetSpec train, data::DatasetPtr test,
                             FlRunConfig config, const CodecSpec& spec,
                             SchedulerPtr scheduler, FederationOptions options)
    : impl_(std::make_unique<Impl>(model_config, std::move(train),
                                   std::move(test), std::move(config),
                                   std::move(scheduler), options)) {
  Impl& impl = *impl_;
  impl.config.validate();
  impl.spec_string = format_codec_spec(spec);
  if (impl.config.topology.mode != TopologyMode::kHier)
    throw InvalidArgument(
        "FederatedRoot: distributed runs need a hierarchy "
        "(topology=hier:<N>[x<M>...]) -- one worker process per tier-1 edge");
  if (impl.scheduler->continuous())
    throw InvalidArgument(
        "FederatedRoot: distributed runs require a barrier scheduler "
        "(sync or sampled_sync)");
  if (!impl.config.downlink_spec.empty())
    throw InvalidArgument(
        "FederatedRoot: downlink compression is not distributed yet -- the "
        "broadcast ships lossless over the wire");
  if (!impl.config.failures.empty())
    throw InvalidArgument(
        "FederatedRoot: injected failure schedules are in-process only; "
        "distributed churn comes from real worker crashes (heartbeats)");
  if (impl.config.population.dropout_rate > 0.0)
    throw InvalidArgument(
        "FederatedRoot: population mid-round dropout is in-process only; "
        "remove drop= from population= when using transport=tcp");
  if (!impl.config.checkpoint_path.empty())
    throw InvalidArgument(
        "FederatedRoot: checkpoint/resume is in-process only for now -- "
        "drop checkpoint= from the spec when using transport=tcp");
  impl.config.topology = resolved_topology(impl.config);
  impl.tree = std::make_unique<AggregationTree>(impl.config.topology,
                                                impl.config.clients);
  edge_count_ = impl.tree->edge_count();
  impl.fingerprint = run_fingerprint(impl.config, impl.model_config);
  if (!impl.config.transport.empty()) {
    // "tcp:<port>" was validated by FlRunConfig::validate(); port 0 asks
    // the kernel, so bind NOW to make port() meaningful before run().
    const std::uint16_t port = static_cast<std::uint16_t>(
        std::stoul(impl.config.transport.substr(4)));
    impl.listener = std::make_unique<net::TcpListener>(port);
  }
}

FederatedRoot::~FederatedRoot() = default;

std::uint16_t FederatedRoot::port() const {
  if (!impl_->listener)
    throw InvalidArgument("FederatedRoot: no TCP listener (inproc streams)");
  return impl_->listener->port();
}

RunManifest FederatedRoot::manifest(std::uint32_t edge) const {
  if (edge >= edge_count_)
    throw InvalidArgument("FederatedRoot: edge index out of range");
  return impl_->make_manifest(edge);
}

FlRunResult FederatedRoot::run() {
  if (!impl_->listener)
    throw InvalidArgument(
        "FederatedRoot: run() needs transport=tcp:<port>; use "
        "run_with_streams() for caller-managed streams");
  std::vector<net::StreamPtr> streams;
  streams.reserve(edge_count_);
  for (std::size_t e = 0; e < edge_count_; ++e)
    streams.push_back(impl_->listener->accept());
  return run_with_streams(std::move(streams));
}

namespace {

/// One worker connection as the root sees it: its channel, the thread
/// draining its frames into the shared inbox (declared after the channel,
/// so it is closed and joined first), and when a frame last arrived.
struct Conn {
  std::unique_ptr<net::FrameChannel> chan;
  std::optional<ChannelThread> reader;
  Clock::time_point last_seen{};
};

struct InboxEvent {
  std::size_t edge = 0;
  std::optional<net::Frame> frame;  // nullopt = disconnect/EOF
  std::string error;
};

/// `wire`'s deliveries put in `cohort` order, matched by client id. A
/// PARTIAL that misses, repeats or adds a client, or whose partial folded
/// other than the `folds` clients the edge ships after, does not answer the
/// cohort it was sent.
void match_cohort(WirePartial& wire, const std::vector<std::size_t>& cohort,
                  std::size_t folds, std::size_t edge) {
  const std::string from = "federation: PARTIAL from edge " +
                           std::to_string(edge) + " ";
  if (wire.deliveries.size() != cohort.size() || wire.partial.clients != folds)
    throw CorruptStream(from + "does not match its cohort size");
  std::vector<std::optional<WireDelivery>> slots(cohort.size());
  for (WireDelivery& d : wire.deliveries) {
    const std::size_t client = d.delivery.trace.client;
    const auto at = std::find(cohort.begin(), cohort.end(), client);
    if (at == cohort.end() || slots[at - cohort.begin()])
      throw CorruptStream(from + "repeats or adds client " +
                          std::to_string(client));
    slots[at - cohort.begin()] = std::move(d);
  }
  for (std::size_t k = 0; k < cohort.size(); ++k)
    wire.deliveries[k] = std::move(*slots[k]);
}

/// The root's side of the wire: one connection per tier-1 edge, a reader
/// thread per connection draining frames into one inbox, the handshake,
/// and per round the ROUND_OPEN/BROADCAST fan-out and the PARTIAL
/// collection, with crash detection by heartbeat timeout or EOF.
class WireEdges final : public RemoteEdges {
 public:
  /// Send worker e its HELLO (`manifest(e)`) and start its reader, then
  /// wait until every worker acked its edge and the run_fingerprint of the
  /// run it rebuilt. A worker whose run differs from `fingerprint` (another
  /// build, or a damaged manifest) fails here, not 40 rounds in.
  /// `topology`'s ship rule says how many clients each edge's partial
  /// folds.
  template <class Manifest>
  WireEdges(std::vector<net::StreamPtr> streams, double heartbeat_timeout,
            std::uint32_t fingerprint, const Manifest& manifest,
            const TopologyConfig& topology)
      : topology_(topology),
        dead_(streams.size(), 0),
        timeout_(std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(std::max(0.1, heartbeat_timeout)))),
        conns_(streams.size()) {
    const std::size_t edges = conns_.size();
    const auto start = Clock::now();
    for (std::size_t e = 0; e < edges; ++e) {
      conns_[e].chan = std::make_unique<net::FrameChannel>(streams[e]);
      conns_[e].last_seen = start;
      const Bytes hello =
          serialize_manifest(manifest(static_cast<std::uint32_t>(e)));
      conns_[e].chan->send(net::FrameType::kHello, view(hello));
      conns_[e].reader.emplace(*conns_[e].chan, [this, e] { read(e); });
    }
    std::vector<char> acked(edges, 0);
    std::size_t acks = 0;
    std::vector<InboxEvent> acked_then_died;
    while (acks < edges) {
      std::optional<InboxEvent> event = wait(std::chrono::milliseconds(500));
      if (!event) continue;
      if (!event->frame && acked[event->edge]) {
        // A worker that acked and then died is churn, not a failed
        // handshake: its EOF goes back to the campaign, which sees it just
        // as if it had arrived after a slower peer's ACK.
        acked_then_died.push_back(std::move(*event));
        continue;
      }
      if (!event->frame)
        throw net::TransportError(
            "federation: worker " + std::to_string(event->edge) +
            " died during handshake" +
            (event->error.empty() ? "" : ": " + event->error));
      if (event->frame->type != net::FrameType::kAck)
        throw CorruptStream("federation: expected ACK, got " +
                            net::frame_type_name(event->frame->type));
      ByteReader in(view(event->frame->payload));
      const std::uint32_t fp = in.get_u32();
      const std::uint64_t edge = in.get_varint();
      if (fp != fingerprint || edge != event->edge)
        throw net::TransportError(
            "federation: worker " + std::to_string(event->edge) +
            " acked a mismatched fingerprint/edge -- incompatible build or "
            "manifest");
      if (!acked[event->edge]) {
        acked[event->edge] = 1;
        ++acks;
      }
    }
    std::lock_guard<std::mutex> lock(mutex_);
    inbox_.insert(inbox_.begin(),
                  std::make_move_iterator(acked_then_died.begin()),
                  std::make_move_iterator(acked_then_died.end()));
  }

  std::vector<std::optional<WirePartial>> run_round(
      int round, double t_open, const StateDict& global,
      const std::vector<std::vector<std::size_t>>& cohorts) override {
    const std::size_t edges = conns_.size();
    ByteWriter broadcast_out;
    broadcast_out.put_varint(static_cast<std::uint64_t>(round));
    broadcast_out.put_blob(view(global.serialize()));
    const Bytes broadcast = broadcast_out.finish();
    std::vector<char> expected(edges, 0);
    std::size_t outstanding = 0;
    std::vector<std::optional<WirePartial>> got(edges);
    auto crash = [&](std::size_t e) {
      dead_[e] = 1;
      conns_[e].chan->close();
      if (!expected[e]) return;
      expected[e] = 0;
      --outstanding;
    };
    for (std::size_t e = 0; e < edges; ++e) {
      if (cohorts[e].empty()) continue;
      expected[e] = 1;
      ++outstanding;
      try {
        const Bytes open = serialize_round_open({round, t_open, cohorts[e]});
        conns_[e].chan->send(net::FrameType::kRoundOpen, view(open));
        conns_[e].chan->send(net::FrameType::kBroadcast, view(broadcast));
      } catch (const std::exception&) {
        crash(e);
      }
    }

    const auto round_start = Clock::now();
    while (outstanding > 0) {
      std::optional<InboxEvent> event = wait(std::chrono::milliseconds(200));
      if (!event) {
        const auto now = Clock::now();
        for (std::size_t e = 0; e < edges; ++e) {
          if (!expected[e]) continue;
          Clock::time_point seen;
          {
            std::lock_guard<std::mutex> lock(mutex_);
            seen = conns_[e].last_seen;
          }
          if (now - std::max(seen, round_start) > timeout_)
            crash(e);  // heartbeat timeout
        }
        continue;
      }
      const std::size_t e = event->edge;
      if (!event->frame) {
        crash(e);  // disconnected
        continue;
      }
      if (event->frame->type != net::FrameType::kPartial)
        throw CorruptStream("federation: expected PARTIAL, got " +
                            net::frame_type_name(event->frame->type));
      WirePartial partial = parse_partial(view(event->frame->payload));
      if (partial.round != round)
        throw CorruptStream("federation: PARTIAL for round " +
                            std::to_string(partial.round) + " while round " +
                            std::to_string(round) + " is open");
      if (!expected[e])
        throw CorruptStream("federation: unsolicited PARTIAL from edge " +
                            std::to_string(e));
      match_cohort(partial, cohorts[e],
                   topology_.ship_after(cohorts[e].size()), e);
      got[e] = std::move(partial);
      expected[e] = 0;
      --outstanding;
    }
    return got;
  }

  std::vector<char> dead_edges() const override {
    if (std::find(dead_.begin(), dead_.end(), 0) == dead_.end())
      throw net::TransportError(
          "federation: every edge worker died with rounds remaining");
    return dead_;
  }

  /// Campaign over: tell every live worker.
  void bye() {
    for (std::size_t e = 0; e < conns_.size(); ++e) {
      if (dead_[e]) continue;
      try {
        conns_[e].chan->send(net::FrameType::kBye, ByteSpan{});
      } catch (const std::exception&) {
        // A worker that died between its last partial and BYE changes
        // nothing; the campaign is complete.
      }
    }
  }

 private:
  // Reader thread body: heartbeats only refresh last_seen; every other
  // frame, and the final EOF or error, goes to the inbox.
  void read(std::size_t e) {
    try {
      while (std::optional<net::Frame> frame = conns_[e].chan->recv()) {
        const bool beat = frame->type == net::FrameType::kHeartbeat;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          conns_[e].last_seen = Clock::now();
          if (!beat) inbox_.push_back({e, std::move(*frame), ""});
        }
        if (!beat) cv_.notify_all();
      }
      push({e, std::nullopt, ""});
    } catch (const std::exception& error) {
      push({e, std::nullopt, error.what()});
    }
  }

  void push(InboxEvent event) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      inbox_.push_back(std::move(event));
    }
    cv_.notify_all();
  }

  std::optional<InboxEvent> wait(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!cv_.wait_for(lock, timeout, [&] { return !inbox_.empty(); }))
      return std::nullopt;
    InboxEvent event = std::move(inbox_.front());
    inbox_.pop_front();
    return event;
  }

  const TopologyConfig& topology_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<InboxEvent> inbox_;
  std::vector<char> dead_;
  Clock::duration timeout_;
  // Declared last: destroyed first, closing each channel and joining its
  // reader while everything the readers touch still exists.
  std::vector<Conn> conns_;
};

}  // namespace

FlRunResult FederatedRoot::run_with_streams(
    std::vector<net::StreamPtr> streams) {
  Impl& impl = *impl_;
  if (streams.size() != edge_count_)
    throw InvalidArgument("FederatedRoot: got " +
                          std::to_string(streams.size()) + " streams for " +
                          std::to_string(edge_count_) + " edges");
  Timer wall;
  WireEdges wire(std::move(streams), impl.options.heartbeat_timeout_seconds,
                 impl.fingerprint,
                 [&](std::uint32_t e) { return impl.make_manifest(e); },
                 impl.config.topology);
  FlRunResult result =
      run_remote_edges(impl.config, *impl.scheduler, impl.server,
                       impl.population.get(), *impl.tree, *impl.test, wire);
  wire.bye();
  result.total_wall_seconds = wall.seconds();
  return result;
}

}  // namespace fedsz::core
