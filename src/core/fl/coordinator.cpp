#include "core/fl/coordinator.hpp"

#include <algorithm>
#include <cmath>
#include <future>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>

#include "core/codec_spec.hpp"
#include "core/fl/checkpoint.hpp"
#include "net/virtual_clock.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace fedsz::core {

std::string delivery_status_name(DeliveryStatus status) {
  switch (status) {
    case DeliveryStatus::kAggregated:
      return "aggregated";
    case DeliveryStatus::kDropped:
      return "dropped";
    case DeliveryStatus::kEvicted:
      return "evicted";
    case DeliveryStatus::kLate:
      return "late";
    case DeliveryStatus::kIneligible:
      return "ineligible";
  }
  return "unknown";
}

void FailureSchedule::validate() const {
  if (!std::isfinite(dropout_rate) || dropout_rate < 0.0 ||
      dropout_rate > 1.0)
    throw InvalidArgument(
        "FailureSchedule: dropout_rate must be a probability in [0, 1]");
  if (!std::isfinite(edge_failure_rate) || edge_failure_rate < 0.0 ||
      edge_failure_rate > 1.0)
    throw InvalidArgument(
        "FailureSchedule: edge_failure_rate must be a probability in [0, 1]");
  if (!std::isfinite(straggler_deadline_seconds) ||
      straggler_deadline_seconds < 0.0)
    throw InvalidArgument(
        "FailureSchedule: straggler_deadline_seconds must be finite and >= 0 "
        "(0 disables the deadline)");
}

void FlRunConfig::apply_comm_spec(const CodecSpec& spec) {
  downlink_spec = spec.downlink;
  downlink_mode =
      spec.downlink_delta ? DownlinkMode::kDelta : DownlinkMode::kFull;
  error_feedback = spec.error_feedback;
  topology.mode =
      spec.hier_tiers.empty() ? TopologyMode::kFlat : TopologyMode::kHier;
  topology.tiers = spec.hier_tiers;
  topology.backhaul_spec = spec.backhaul;
  topology.tier_backhaul_specs = spec.tier_backhauls;
  topology.edge_mode =
      spec.edge_buffered ? EdgeMode::kBuffered : EdgeMode::kSync;
  topology.edge_buffer = spec.edge_buffer;
  topology.edge_error_feedback = spec.edge_error_feedback;
  topology.sharding = spec.shard_shuffled ? ShardStrategy::kShuffled
                                          : ShardStrategy::kContiguous;
  transport = spec.transport;
  checkpoint_path = spec.checkpoint_path;
  checkpoint_every = spec.checkpoint_every;
  dirichlet_alpha = spec.dirichlet_alpha;
  sizeskew_s = spec.sizeskew_s;
  population = spec.population.empty() ? PopulationConfig{}
                                       : parse_population_spec(spec.population);
}

void FlRunConfig::validate() const {
  if (clients == 0)
    throw InvalidArgument("FlRunConfig: need at least one client");
  if (rounds <= 0) throw InvalidArgument("FlRunConfig: rounds must be >= 1");
  if (threads == 0) throw InvalidArgument("FlRunConfig: threads must be >= 1");
  if (!(compute_seconds_per_sample >= 0.0) ||
      !std::isfinite(compute_seconds_per_sample))
    throw InvalidArgument(
        "FlRunConfig: compute_seconds_per_sample must be finite and >= 0");
  if (!(compute_jitter >= 0.0) || compute_jitter >= 1.0)
    throw InvalidArgument("FlRunConfig: compute_jitter must be in [0, 1)");
  if (client.local_epochs <= 0)
    throw InvalidArgument("FlRunConfig: local_epochs must be >= 1");
  if (client.batch_size == 0)
    throw InvalidArgument("FlRunConfig: batch_size must be >= 1");
  if (!downlink_spec.empty()) {
    // Malformed specs throw InvalidArgument from the parser itself.
    if (parse_codec_spec(downlink_spec).has_comm_keys())
      throw InvalidArgument(
          "FlRunConfig: downlink_spec cannot itself carry comm keys");
  } else if (downlink_mode == DownlinkMode::kDelta) {
    // Catch the downmode=delta-without-downlink= mistake loudly instead of
    // silently running with a free lossless broadcast.
    throw InvalidArgument(
        "FlRunConfig: downlink_mode=kDelta requires a downlink_spec");
  }
  if (!(dirichlet_alpha >= 0.0) || !std::isfinite(dirichlet_alpha))
    throw InvalidArgument(
        "FlRunConfig: dirichlet_alpha must be finite and >= 0 (0 = IID)");
  if (!(sizeskew_s >= 0.0) || !std::isfinite(sizeskew_s))
    throw InvalidArgument(
        "FlRunConfig: sizeskew_s must be finite and >= 0 (0 = off)");
  population.validate();
  if (!population.empty() && heterogeneous)
    throw InvalidArgument(
        "FlRunConfig: population and heterogeneous both configure per-client "
        "links; set at most one");
  failures.validate();
  if (failures.edge_failure_rate > 0.0 && topology.mode != TopologyMode::kHier)
    throw InvalidArgument(
        "FlRunConfig: failures.edge_failure_rate needs an edge tier to "
        "crash -- set topology=hier:<N>[x<M>...]");
  topology.validate();
  if (!transport.empty()) {
    if (transport.rfind("tcp:", 0) != 0)
      throw InvalidArgument(
          "FlRunConfig: transport must be empty (inproc) or tcp:<port>");
    if (topology.mode != TopologyMode::kHier)
      throw InvalidArgument(
          "FlRunConfig: transport=tcp needs edge cohorts to distribute -- "
          "set topology=hier:<N>");
  }
  if (checkpoint_path.empty()) {
    if (checkpoint_every != 0 || resume)
      throw InvalidArgument(
          "FlRunConfig: checkpoint_every/resume need a checkpoint_path");
  } else if (checkpoint_every == 0) {
    throw InvalidArgument(
        "FlRunConfig: checkpoint_path needs checkpoint_every >= 1");
  }
}

std::vector<std::vector<std::size_t>> build_client_shards(
    const data::Dataset& train, const FlRunConfig& config,
    const ClientPopulation* population) {
  Rng rng(config.seed);
  auto shards = config.dirichlet_alpha > 0.0
                    ? data::partition_dirichlet(data::dataset_labels(train),
                                                config.clients,
                                                config.dirichlet_alpha, rng)
                    : data::partition_iid(train.size(), config.clients, rng);
  // A heavily skewed Dirichlet draw can leave a client with no samples;
  // an empty shard cannot train, so deterministically move one sample over
  // from the largest shard (conservation holds, skew barely changes).
  if (config.dirichlet_alpha > 0.0) data::ensure_nonempty_shards(shards);
  if (config.sizeskew_s > 0.0) {
    // Its own stream, so turning size skew on leaves the base partition
    // byte-identical to a sizeskew-free run.
    Rng skew_rng(config.seed ^ 0x517E55EDull);
    data::apply_sizeskew(shards, config.sizeskew_s, skew_rng);
  }
  if (population) {
    // Device-class data weight: a phone holds a fraction of what a laptop
    // does. The shard is already shuffled, so a prefix is an unbiased
    // subsample and costs no randomness.
    for (std::size_t i = 0; i < shards.size(); ++i) {
      if (shards[i].empty()) continue;
      const double weight = population->data_weight(i);
      std::size_t keep = static_cast<std::size_t>(
          std::llround(weight * static_cast<double>(shards[i].size())));
      keep = std::min(std::max<std::size_t>(keep, 1), shards[i].size());
      shards[i].resize(keep);
    }
  }
  return shards;
}

TopologyConfig resolved_topology(const FlRunConfig& config) {
  TopologyConfig topology = config.topology;
  if (topology.sharding == ShardStrategy::kShuffled && topology.shard_seed == 0)
    topology.shard_seed = config.seed ^ 0x5A4DD00Dull;
  return topology;
}

namespace {

FlRunConfig validated(FlRunConfig config) {
  config.validate();
  return config;
}

/// One simulated link per client: the population's correlated device-class
/// profiles when `population` is non-null, else the heterogeneous config or
/// the shared fallback profile.
net::HeterogeneousNetwork build_population_network(
    const FlRunConfig& config, const ClientPopulation* population) {
  if (population)
    return net::HeterogeneousNetwork::from_profiles(
        population->link_profiles());
  return net::build_links(config.heterogeneous, config.network,
                          config.clients);
}

// ---- Round decisions of the engine below ----

/// What a client's local round hands back: the encoded update and the
/// per-update terms its trace row and the round record need.
struct ClientUpdate {
  Bytes payload;
  std::size_t samples = 0;
  CompressionStats stats;  // the encode pass (bytes, plan census, timing)
  double train_seconds = 0.0;
  double mean_loss = 0.0;
  double downlink_decode_seconds = 0.0;  // per-client broadcast decode
  double ef_residual_norm = 0.0;         // after this update's encode
  double ef_decode_seconds = 0.0;  // decoding own payload for the residual
};

/// A client's dispatch: who, under which aggregation point (trace node
/// id), in which round and when, and its downlink leg (zeros when the
/// broadcast is free). Everything a trace row knows before training.
struct Dispatch {
  std::size_t client = 0;
  std::size_t node = 0;
  int round = 0;
  double seconds = 0.0;
  std::size_t downlink_bytes = 0;
  std::size_t downlink_raw_bytes = 0;
  double downlink_seconds = 0.0;
  double downlink_encode_seconds = 0.0;
  double downlink_decode_seconds = 0.0;  // the shared kFull decode
};

/// The row of `dispatch` leaving the round with `status` at `now`: weight 0
/// and no payload, as for dropped, evicted and ineligible clients
/// (make_delivery fills in an update that arrived).
ClientTraceEntry client_trace(const Dispatch& dispatch, DeliveryStatus status,
                              double now, const ClientPopulation* population) {
  ClientTraceEntry trace;
  trace.client = dispatch.client;
  trace.node = dispatch.node;
  trace.dispatch_round = dispatch.round;
  trace.dispatch_seconds = dispatch.seconds;
  trace.arrival_seconds = now;
  trace.downlink_bytes = dispatch.downlink_bytes;
  trace.downlink_seconds = dispatch.downlink_seconds;
  trace.status = status;
  trace.eligible = status != DeliveryStatus::kIneligible;
  if (population) trace.device_class = population->class_name(dispatch.client);
  return trace;
}

/// The delivery of `update`, which reached its aggregation point at
/// `arrival` after `transfer` seconds on its link. Weight, decode time and
/// the Eqn (1) decision stay unset until it folds.
Delivery make_delivery(const Dispatch& dispatch, const ClientUpdate& update,
                       double arrival, double transfer,
                       const ClientPopulation* population) {
  Delivery delivery;
  ClientTraceEntry& trace = delivery.trace;
  trace = client_trace(dispatch, DeliveryStatus::kAggregated, arrival,
                       population);
  trace.transfer_seconds = transfer;
  trace.payload_bytes = update.payload.size();
  trace.raw_bytes = update.stats.original_bytes;
  trace.bound_value = update.stats.mean_bound_value;
  trace.lossy_tensors = update.stats.lossy_tensors;
  trace.lossless_tensors = update.stats.lossless_tensors;
  trace.raw_tensors = update.stats.raw_tensors;
  trace.sparse_tensors = update.stats.sparse_tensors;
  trace.ef_residual_norm = update.ef_residual_norm;
  delivery.train_seconds = update.train_seconds;
  delivery.mean_loss = update.mean_loss;
  delivery.compress_seconds = update.stats.compress_seconds;
  delivery.ef_decode_seconds = update.ef_decode_seconds;
  delivery.downlink_raw_bytes = dispatch.downlink_raw_bytes;
  delivery.downlink_encode_seconds = dispatch.downlink_encode_seconds;
  delivery.downlink_decode_seconds =
      dispatch.downlink_decode_seconds + update.downlink_decode_seconds;
  return delivery;
}

/// The run-seed-derived streams a round open draws from, checkpointed
/// mid-sequence: the scheduler's cohort sampling and population
/// availability.
struct RoundStreams {
  explicit RoundStreams(std::uint64_t seed)
      : cohort(seed ^ 0x5C4ED11Eull), eligibility(seed ^ 0xE11D1B1Eull) {}
  Rng cohort;
  Rng eligibility;
};

/// Round open over `groups`: the tier-1 member lists after any re-homing
/// (a flat run passes one group holding every client in index order). With
/// a population, availability is drawn in (group, member) order and, when
/// every draw failed, the most-available client (lowest index on ties)
/// wakes without a draw. Each group's scheduler draw then runs over its
/// eligible members, skipping groups left with none. Appends one
/// kIneligible row per offline client, in client order, and counts
/// record.eligible_clients / ineligible_clients. Returns each group's
/// cohort, global client ids in dispatch order.
std::vector<std::vector<std::size_t>> draw_cohorts(
    const std::vector<std::vector<std::size_t>>& groups,
    const AggregationTree* tree, Scheduler& scheduler,
    const ClientPopulation* population, double now, RoundStreams& streams,
    RoundRecord& record) {
  std::size_t clients = 0;
  for (const auto& group : groups) clients += group.size();
  std::vector<char> eligible(clients, 1);
  if (population) {
    for (const auto& group : groups)
      for (const std::size_t i : group)
        eligible[i] =
            streams.eligibility.uniform() < population->availability(i, now);
    // Zero-eligible fallback: a campaign never stalls on an unlucky night.
    // Consumes no randomness, so the stream stays aligned with luckier
    // trajectories.
    if (std::find(eligible.begin(), eligible.end(), 1) == eligible.end()) {
      std::size_t best = 0;
      double best_p = -1.0;
      for (std::size_t i = 0; i < clients; ++i) {
        const double p = population->availability(i, now);
        if (p > best_p) {
          best_p = p;
          best = i;
        }
      }
      eligible[best] = 1;
    }
  }
  // The scheduler never sees offline devices: each group's member set
  // shrinks to its eligible clients BEFORE the draw, and the draw's
  // indices are positions in that pool.
  std::vector<std::vector<std::size_t>> cohorts(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    std::vector<std::size_t> pool;
    for (const std::size_t i : groups[g])
      if (eligible[i]) pool.push_back(i);
    if (pool.empty()) continue;
    for (const std::size_t idx :
         scheduler.cohort(record.round, pool.size(), streams.cohort))
      cohorts[g].push_back(pool[idx]);
  }
  if (!population) {
    record.eligible_clients = clients;
    return cohorts;
  }
  std::vector<std::size_t> node(clients, 0);
  if (tree)
    for (std::size_t g = 0; g < groups.size(); ++g)
      for (const std::size_t i : groups[g])
        node[i] = 1 + tree->flat_index(0, g);
  for (std::size_t i = 0; i < clients; ++i) {
    if (eligible[i]) {
      ++record.eligible_clients;
      continue;
    }
    // Offline devices stay visible in the per-round export.
    ++record.ineligible_clients;
    record.clients.push_back(client_trace(
        Dispatch{.client = i, .node = node[i], .round = record.round,
                 .seconds = now},
        DeliveryStatus::kIneligible, now, population));
  }
  return cohorts;
}

/// Append a merged partial's row to `record` and add it to the backhaul
/// sums; `at_root` partials also add their weight to aggregate_weight.
void record_partial(RoundRecord& record, EdgeTraceEntry trace,
                    double decode_seconds, bool at_root) {
  trace.decode_seconds = decode_seconds;
  if (at_root) record.aggregate_weight += trace.weight;
  record.backhaul_bytes += trace.payload_bytes;
  record.backhaul_raw_bytes += trace.raw_bytes;
  record.backhaul_seconds += trace.transfer_seconds;
  record.backhaul_encode_seconds += trace.encode_seconds;
  record.backhaul_decode_seconds += trace.decode_seconds;
  record.backhaul_tier_bytes[trace.tier - 1] += trace.payload_bytes;
  record.backhaul_tier_raw_bytes[trace.tier - 1] += trace.raw_bytes;
  record.edges.push_back(std::move(trace));
}

using Snapshot = std::shared_ptr<const StateDict>;
using PayloadPtr = std::shared_ptr<const Bytes>;

}  // namespace

FlCoordinator::FlCoordinator(const nn::ModelConfig& model_config,
                             data::DatasetPtr train, data::DatasetPtr test,
                             FlRunConfig config, UpdateCodecPtr codec,
                             SchedulerPtr scheduler)
    : model_config_(model_config),
      test_(std::move(test)),
      config_(validated(std::move(config))),
      codec_(std::move(codec)),
      scheduler_(scheduler ? std::move(scheduler) : make_sync_scheduler()),
      server_(model_config),
      population_(config_.population.empty()
                      ? nullptr
                      : std::make_unique<ClientPopulation>(
                            config_.population, config_.clients,
                            config_.seed)),
      network_(build_population_network(config_, population_.get())) {
  if (!codec_) throw InvalidArgument("FlCoordinator: null update codec");
  if (!config_.failures.empty() && scheduler_->continuous())
    // Continuous policies have no round barrier to drop out of or be
    // evicted from; their own staleness handling IS the churn model.
    throw InvalidArgument(
        "FlCoordinator: failure injection requires a barrier scheduler "
        "(sync or sampled_sync)");
  if (population_ && scheduler_->continuous())
    // Eligibility is a round-open concept; a continuous policy has no round
    // open to gate, so the combination would silently ignore availability.
    throw InvalidArgument(
        "FlCoordinator: a client population requires a barrier scheduler "
        "(sync or sampled_sync)");
  if (!config_.checkpoint_path.empty()) {
    // A checkpoint captures state BETWEEN rounds, when the event queue is
    // provably empty. Regimes that keep events alive across a round close
    // (continuous redispatch, pending straggler deadlines, buffered
    // interior nodes with late deliveries in flight) would need the queue
    // itself serialized — closures and all — so they are rejected loudly.
    if (scheduler_->continuous())
      throw InvalidArgument(
          "FlCoordinator: checkpointing requires a barrier scheduler "
          "(sync or sampled_sync)");
    if (config_.failures.straggler_deadline_seconds > 0.0)
      throw InvalidArgument(
          "FlCoordinator: checkpointing is incompatible with a straggler "
          "deadline (its eviction event outlives the round close)");
    if (config_.topology.edge_mode == EdgeMode::kBuffered)
      throw InvalidArgument(
          "FlCoordinator: checkpointing requires edgemode=sync (buffered "
          "rounds can close with deliveries still in flight)");
  }
  if (config_.topology.mode == TopologyMode::kHier) {
    // Continuous policies redispatch on fold; a partial that already left
    // for the root cannot absorb a late fold, so hierarchy requires a
    // barrier over each edge cohort.
    if (scheduler_->continuous())
      throw InvalidArgument(
          "FlCoordinator: hierarchical topology requires a barrier "
          "scheduler (sync or sampled_sync)");
    tree_ = std::make_unique<AggregationTree>(resolved_topology(config_),
                                              config_.clients);
  }
  if (!config_.downlink_spec.empty())
    downlink_ = std::make_unique<DownlinkChannel>(
        DownlinkConfig{config_.downlink_mode,
                       make_codec(parse_codec_spec(config_.downlink_spec))},
        config_.clients);
  feedback_.resize(config_.clients);
  const auto shards = build_client_shards(*train, config_, population_.get());
  // Virtual training time: seconds_per_sample x shard size x local epochs x
  // a speed factor drawn from [1 - jitter, 1 + jitter] on its own stream, x
  // the device class's compute multiplier (applied after the draw, so the
  // stream never depends on the population).
  Rng speed_rng(config_.seed ^ 0xC0DEC10Cull);
  for (std::size_t i = 0; i < config_.clients; ++i) {
    const double factor = speed_rng.uniform(1.0 - config_.compute_jitter,
                                            1.0 + config_.compute_jitter);
    const double class_multiplier =
        population_ ? population_->compute_multiplier(i) : 1.0;
    compute_seconds_.push_back(
        config_.compute_seconds_per_sample *
        static_cast<double>(shards[i].size()) *
        static_cast<double>(config_.client.local_epochs) * factor *
        class_multiplier);
    ClientConfig client_config = config_.client;
    client_config.seed = config_.seed ^ (0xC11E47ull * (i + 1));
    clients_.push_back(std::make_unique<FlClient>(
        static_cast<int>(i), model_config_,
        std::make_shared<data::SubsetDataset>(train, shards[i]),
        client_config));
  }
}

// ---- The round engine ----

/// The virtual-clock event pump behind FlCoordinator::run(), the
/// distributed root (run_remote_edges) and each edge worker
/// (FlCoordinator::run_edge). A round opens (re-home crashed edges, draw
/// cohorts, broadcast) and dispatches its cohort; each update's upload and
/// arrival are events. An arrival folds at the client's aggregation point,
/// full interior nodes ship re-encoded partials that merge one tier up, and
/// the round closes once the root has merged everything it still expects.
/// Each handler is a member function; each scheduled event is a closure
/// calling one.
///
/// Tier-1 edge work has two sides. In process (`local_`), the pool trains
/// and encodes every client, the engine decodes and folds at the edge, and
/// the edge's finalize_and_encode ships the partial. An edge worker runs
/// exactly that for its one edge and round, but reports (`report_`) each
/// arrival's delivery with its upload time and the partial its edge
/// shipped, instead of recording and merging them. Over the wire
/// (`remote_`), the root collects every live edge's report at round open;
/// the engine schedules each reported delivery's upload at the worker's
/// upload time, in cohort order, and its arrival one link transfer later,
/// and ships the worker's partial when its edge's ship rule fires. Both
/// sides run the same handlers, so one set of rules decides every fold,
/// ship and merge order.
class RoundEngine {
 public:
  RoundEngine(FlCoordinator* local, RemoteEdges* remote,
              const FlRunConfig& config, Scheduler& scheduler,
              FlServer& server, const ClientPopulation* population,
              AggregationTree* tree, const data::Dataset& test)
      : config_(config),
        scheduler_(scheduler),
        server_(server),
        population_(population),
        tree_(tree),
        test_(test),
        local_(local),
        remote_(remote),
        downlink_(local ? local->downlink_.get() : nullptr),
        levels_(tree ? tree->levels() : 0),
        edge_count_(tree ? tree->edge_count() : 0),
        ef_on_(local && config.error_feedback && !local->codec_->lossless()),
        flights_(config.clients),
        streams_(config.seed),
        failure_rng_(config.failures.seed ? config.failures.seed
                                          : (config.seed ^ 0xFA17A1E5ull)),
        phase_(config.clients, Phase::kIdle),
        generation_(config.clients, 0),
        dropped_(config.clients, 0),
        owner_round_(config.clients, 0),
        live_(1 + (tree ? tree->interior_nodes() : 0), 0),
        peak_(live_.size(), 0),
        nodes_(levels_),
        edge_members_(edge_count_),
        edge_cohort_(edge_count_),
        children_part_(levels_),
        node_downlink_bytes_(live_.size() - 1, 0),
        node_downlink_seconds_(live_.size() - 1, 0.0),
        edge_partials_(remote ? edge_count_ : 0) {
    result_.scheduler = scheduler_.name();
    for (std::size_t l = 0; l < levels_; ++l) {
      nodes_[l].resize(tree_->level_size(l));
      if (l > 0) children_part_[l].resize(tree_->level_size(l));
    }
    if (!tree_) {
      everyone_.assign(1, std::vector<std::size_t>(config_.clients));
      std::iota(everyone_[0].begin(), everyone_[0].end(), std::size_t{0});
    }
    if (local_) pool_.emplace(std::max<std::size_t>(1, config_.threads));
  }

  /// Pump events until config.rounds aggregations complete.
  FlRunResult run() {
    Timer wall;
    if (resume()) {
      open_round(true);
      while (!stopped_ && queue_.run_next()) {
      }
    }
    // A buffered ancestor can ship early enough that the run's final close
    // leaves weighted partials mid-transfer; their arrival events never
    // run, so account for them here.
    result_.late_events += partials_in_flight_;
    result_.final_accuracy =
        result_.rounds.empty() ? 0.0 : result_.rounds.back().accuracy;
    result_.peak_decoded_updates = peak_[0];
    result_.peak_decoded_per_node = std::move(peak_);
    result_.total_virtual_seconds = queue_.now();
    result_.total_wall_seconds = wall.seconds();
    return std::move(result_);
  }

  /// Tier-1 edge `e` alone runs `round` on `global` from virtual time
  /// `t_open` (an edge worker's round): open the edge, dispatch `cohort`,
  /// and pump until no event is left, so every late arrival is in the
  /// report too.
  WirePartial run_edge(std::size_t e, int round, double t_open,
                       const std::vector<std::size_t>& cohort,
                       const StateDict& global) {
    report_.emplace().round = round;
    completed_ = round;
    queue_.restore_clock(t_open, 0);
    NodeRound& s = nodes_[0][e];
    s.participating = s.open = true;
    s.expected = cohort.size();
    tree_->node(0, e).begin_round(global);
    const auto snapshot = std::make_shared<const StateDict>(global);
    for (const std::size_t i : cohort) {
      owner_round_[i] = e;
      dispatch(i, round, snapshot, nullptr);
    }
    while (queue_.run_next()) {
    }
    return std::move(*report_);
  }

 private:
  // One slot per client; a client has at most one update in flight. `out`
  // is what its real work (broadcast decode + local SGD + update encoding
  // on the pool) hands back; `reported` what its remote edge reported, or
  // on an edge worker the upload time it will report.
  struct InFlight {
    std::future<ClientUpdate> future;
    ClientUpdate out;
    WireDelivery reported;
    Dispatch sent;
    double transfer_seconds = 0.0;
  };
  // Shared kFull broadcast product: encoded once, decoded once, delivered
  // down the tree.
  struct BroadcastReady {
    Bytes payload;
    CompressionStats stats;
    Snapshot model;  // the shared reconstruction
    double decode_seconds = 0.0;
  };
  // Per-client lifecycle. Every scheduled client event carries the
  // generation it was dispatched under; eviction or redispatch bumps it,
  // so stale upload/arrival events for a superseded dispatch are no-ops.
  enum class Phase { kIdle, kPending, kDone, kDropped, kEvicted };
  // Per-node round state (hier only). `expected` counts the children still
  // promised this round — it starts at the cohort/child draw and shrinks
  // when a child drops, is evicted or withdraws, while `folded` only
  // grows; folded >= expected is the sync ship condition.
  struct NodeRound {
    bool participating = false;  // had >= 1 expected child this round
    bool open = false;           // still accepting folds
    std::size_t expected = 0;
    std::size_t folded = 0;
  };

  // Restore everything a checkpoint captured before the first round opens.
  // The remaining rounds then replay the exact event sequence of an
  // uninterrupted run — same RNG streams mid-sequence, same clock, same
  // tie-break counter — so the finished trajectory is bit-identical.
  // Returns false when the checkpointed campaign already finished.
  bool resume() {
    if (!config_.resume || config_.checkpoint_path.empty()) return true;
    std::optional<CheckpointState> loaded =
        read_checkpoint(config_.checkpoint_path);
    // No checkpoint on disk yet (killed before the first save): run fresh.
    if (!loaded) return true;
    CheckpointState& ck = *loaded;
    if (ck.config_fingerprint !=
        run_fingerprint(config_, local_->model_config_))
      throw InvalidArgument("FlCoordinator: checkpoint at '" +
                            config_.checkpoint_path +
                            "' was written by a differently-configured run");
    std::vector<ErrorFeedbackAccumulator>& feedback = local_->feedback_;
    if (ck.client_residuals.size() != feedback.size())
      throw CorruptStream(
          "checkpoint: client residual count does not match the run");
    server_.restore_global_state(std::move(ck.global_state));
    streams_.cohort.restore(ck.cohort_rng);
    failure_rng_.restore(ck.failure_rng);
    streams_.eligibility.restore(ck.eligibility_rng);
    for (std::size_t i = 0; i < feedback.size(); ++i)
      feedback[i].restore_residual(std::move(ck.client_residuals[i]));
    if (downlink_ && downlink_->mode() == DownlinkMode::kDelta)
      downlink_->restore_sessions(std::move(ck.downlink_sessions));
    if (tree_ && config_.topology.edge_error_feedback) {
      if (ck.edge_residuals.size() != tree_->interior_nodes())
        throw CorruptStream(
            "checkpoint: edge residual count does not match the tree");
      std::size_t flat = 0;
      for (std::size_t l = 0; l < levels_; ++l)
        for (std::size_t n = 0; n < tree_->level_size(l); ++n)
          tree_->node(l, n).feedback().restore_residual(
              std::move(ck.edge_residuals[flat++]));
    }
    completed_ = static_cast<int>(ck.completed_rounds);
    queue_.restore_clock(ck.virtual_now, ck.clock_next_seq);
    return completed_ < config_.rounds;
  }

  // Snapshot everything that evolves across rounds. Only called between
  // rounds (from close_round, before the next open), where the barrier
  // restrictions enforced in the FlCoordinator constructor guarantee an
  // empty queue — the virtual clock pair (now, next_seq) then fully
  // determines resumed event ordering.
  void save_checkpoint() {
    if (queue_.pending() != 0)
      throw InvalidArgument(
          "FlCoordinator: internal error -- pending events at checkpoint");
    CheckpointState state;
    state.completed_rounds = static_cast<std::uint64_t>(completed_);
    state.virtual_now = queue_.now();
    state.clock_next_seq = queue_.next_seq();
    state.config_fingerprint = run_fingerprint(config_, local_->model_config_);
    state.global_state = server_.global_state();
    state.cohort_rng = streams_.cohort.state();
    state.failure_rng = failure_rng_.state();
    state.eligibility_rng = streams_.eligibility.state();
    state.client_residuals.reserve(local_->feedback_.size());
    for (const ErrorFeedbackAccumulator& fb : local_->feedback_)
      state.client_residuals.push_back(fb.residual());
    if (downlink_ && downlink_->mode() == DownlinkMode::kDelta)
      state.downlink_sessions = downlink_->sessions();
    if (tree_ && config_.topology.edge_error_feedback)
      for (std::size_t l = 0; l < levels_; ++l)
        for (std::size_t n = 0; n < tree_->level_size(l); ++n)
          state.edge_residuals.push_back(
              tree_->node(l, n).feedback().residual());
    write_checkpoint(config_.checkpoint_path, state);
  }

  void open_round(bool initial) {
    record_ = RoundRecord{};
    record_.round = completed_;
    record_.backhaul_tier_bytes.assign(levels_, 0);
    record_.backhaul_tier_raw_bytes.assign(levels_, 0);
    root_folded_ = 0;
    server_.begin_round();
    if (scheduler_.continuous() && !initial) {
      // Clients redispatch themselves on arrival; just reset the buffer.
      root_goal_ = scheduler_.aggregation_goal(config_.clients);
      record_.eligible_clients = config_.clients;
      return;
    }
    std::fill(phase_.begin(), phase_.end(), Phase::kIdle);
    std::fill(dropped_.begin(), dropped_.end(), 0);
    std::vector<std::size_t> cohort;
    if (tree_) {
      cohort = open_tree();
    } else {
      cohort = std::move(draw_cohorts(everyone_, nullptr, scheduler_,
                                      population_, queue_.now(), streams_,
                                      record_)[0]);
      root_goal_ = scheduler_.aggregation_goal(cohort.size());
    }
    if (config_.failures.dropout_rate > 0.0)
      for (const std::size_t i : cohort)
        dropped_[i] = failure_rng_.uniform() < config_.failures.dropout_rate;
    // Population mid-round offline draws ride the eligibility stream (one
    // unconditional draw per cohort member, so the stream advances the same
    // way whatever the outcomes) and surface through the dropout machinery.
    if (population_ && population_->config().dropout_rate > 0.0)
      for (const std::size_t i : cohort)
        if (streams_.eligibility.uniform() <
            population_->config().dropout_rate)
          dropped_[i] = 1;
    if (remote_) collect_remote();
    if (config_.failures.straggler_deadline_seconds > 0.0)
      queue_.schedule_after(config_.failures.straggler_deadline_seconds,
                            [this, round = completed_] {
                              if (!stopped_ && round == completed_)
                                evict_stragglers();
                            });
    if (cohort.empty()) {
      // Every draw came back empty: nothing will ever arrive, so close on
      // a zero-delay event (the pump still has to see the round).
      queue_.schedule_after(0.0, [this, round = completed_] {
        if (!stopped_ && round == completed_) close_round();
      });
      return;
    }
    const auto snapshot =
        std::make_shared<const StateDict>(server_.global_state());
    if (!downlink_) {
      // Free lossless broadcast: clients start on the exact global at once.
      for (const std::size_t i : cohort)
        dispatch(i, completed_, snapshot, nullptr);
    } else if (downlink_->mode() == DownlinkMode::kFull) {
      broadcast_to(cohort, completed_, snapshot);
    } else {
      for (const std::size_t i : cohort) send_to(i, completed_, snapshot);
    }
  }

  // Open the tree for the round: reset every node, re-home crashed edges'
  // members, draw one cohort per tier-1 edge, and open the participating
  // nodes tier by tier. Returns the cohorts concatenated in edge order.
  std::vector<std::size_t> open_tree() {
    std::fill(node_downlink_bytes_.begin(), node_downlink_bytes_.end(), 0);
    std::fill(node_downlink_seconds_.begin(), node_downlink_seconds_.end(),
              0.0);
    for (std::size_t l = 0; l < levels_; ++l)
      for (std::size_t n = 0; n < nodes_[l].size(); ++n) {
        // A buffered round can close with interior rounds still open;
        // abort leftovers before reopening.
        tree_->node(l, n).abort_round();
        nodes_[l][n] = NodeRound{};
      }
    rehome_crashed_edges();
    for (std::size_t e = 0; e < edge_count_; ++e)
      for (const std::size_t i : edge_members_[e]) owner_round_[i] = e;
    // One scheduler draw per edge cohort, in edge order — the same stream
    // and order as the single-tier runtime when nothing crashed.
    edge_cohort_ = draw_cohorts(edge_members_, tree_, scheduler_, population_,
                                queue_.now(), streams_, record_);
    for (std::size_t e = 0; e < edge_count_; ++e) {
      if (edge_cohort_[e].empty()) continue;
      NodeRound& s = nodes_[0][e];
      s.participating = s.open = true;
      s.expected = edge_cohort_[e].size();
      // A remote edge opens its round on its worker.
      if (local_) tree_->node(0, e).begin_round(server_.global_state());
    }
    // Upper tiers participate when anything below them does; their
    // expectation is the participating child count.
    for (std::size_t l = 1; l < levels_; ++l) {
      for (auto& part : children_part_[l]) part.clear();
      for (std::size_t c = 0; c < nodes_[l - 1].size(); ++c)
        if (nodes_[l - 1][c].participating)
          children_part_[l][tree_->parent_of(l - 1, c)].push_back(c);
      for (std::size_t n = 0; n < nodes_[l].size(); ++n) {
        if (children_part_[l][n].empty()) continue;
        NodeRound& s = nodes_[l][n];
        s.participating = s.open = true;
        s.expected = children_part_[l][n].size();
        tree_->node(l, n).begin_round(server_.global_state());
      }
    }
    root_goal_ = 0;
    for (const NodeRound& top : nodes_[levels_ - 1])
      if (top.participating) ++root_goal_;
    std::vector<std::size_t> cohort;
    for (const auto& edge : edge_cohort_)
      cohort.insert(cohort.end(), edge.begin(), edge.end());
    return cohort;
  }

  // Tier-1 edges start from their static shards. A crashed edge — drawn
  // from the failure schedule in process, or one whose remote worker is
  // gone — hands its members to a seeded shuffle dealt round-robin across
  // the surviving siblings, and is listed in the record.
  void rehome_crashed_edges() {
    for (std::size_t e = 0; e < edge_count_; ++e)
      edge_members_[e] = tree_->base_shards()[e];
    std::vector<char> crashed(edge_count_, 0);
    if (config_.failures.edge_failure_rate > 0.0) {
      bool any_alive = false;
      for (std::size_t e = 0; e < edge_count_; ++e) {
        crashed[e] =
            failure_rng_.uniform() < config_.failures.edge_failure_rate;
        any_alive = any_alive || !crashed[e];
      }
      if (!any_alive) crashed[0] = 0;  // at least one edge survives
    }
    if (remote_) crashed = remote_->dead_edges();
    std::vector<std::size_t> displaced;
    std::vector<std::size_t> alive;
    for (std::size_t e = 0; e < edge_count_; ++e) {
      if (crashed[e]) {
        record_.crashed_nodes.push_back(tree_->flat_index(0, e));
        displaced.insert(displaced.end(), edge_members_[e].begin(),
                         edge_members_[e].end());
        edge_members_[e].clear();
      } else {
        alive.push_back(e);
      }
    }
    if (displaced.empty() || alive.empty()) return;
    // Seeded shuffle so re-homing is deterministic but uncorrelated with
    // index order, then round-robin over the survivors.
    for (std::size_t k = displaced.size(); k > 1; --k)
      std::swap(displaced[k - 1], displaced[failure_rng_.uniform_index(k)]);
    for (std::size_t k = 0; k < displaced.size(); ++k)
      edge_members_[alive[k % alive.size()]].push_back(displaced[k]);
  }

  // Over the wire, every live edge runs the round on its worker now; the
  // dispatches then replay what each reported. An edge that crashed took
  // its whole cohort down with it: those clients drop at round open.
  void collect_remote() {
    std::vector<std::optional<WirePartial>> reports = remote_->run_round(
        completed_, queue_.now(), server_.global_state(), edge_cohort_);
    for (std::size_t e = 0; e < edge_count_; ++e) {
      const std::vector<std::size_t>& cohort = edge_cohort_[e];
      if (cohort.empty()) continue;
      if (!reports[e]) {
        for (const std::size_t i : cohort) dropped_[i] = 1;
        continue;
      }
      for (std::size_t k = 0; k < cohort.size(); ++k)
        flights_[cohort[k]].reported = std::move(reports[e]->deliveries[k]);
      edge_partials_[e] = std::move(reports[e]->partial);
    }
  }

  // The client's real work, run on the pool: decode the broadcast payload
  // when one was delivered (per-client path), train on the resulting model,
  // fold in the carried error-feedback residual, encode, and absorb what
  // the encoder dropped (the reconstruction read back from the payload)
  // into the residual. Per-client state (feedback_[i], downlink session i)
  // is safe without locks because a client never has two tasks alive at
  // once (dispatch waits out a stale evicted task before reusing the slot).
  ClientUpdate client_work(std::size_t i, int round, const Snapshot& model,
                           const PayloadPtr& broadcast) {
    StateDict decoded_model;
    const StateDict* train_on = model.get();
    CompressionStats downlink_stats;
    if (broadcast) {
      const ByteSpan span{broadcast->data(), broadcast->size()};
      decoded_model = downlink_->mode() == DownlinkMode::kDelta
                          ? downlink_->receive(i, span, &downlink_stats)
                          : downlink_->decode_broadcast(span, &downlink_stats);
      train_on = &decoded_model;
    }
    FlClient& client = *local_->clients_[i];
    const UpdateCodec& codec = *local_->codec_;
    ClientRoundResult trained = client.run_round(*train_on);
    EncodeContext ctx;
    ctx.round = round;
    ctx.client_id = client.id();
    ctx.steps = trained.steps;
    StateDict update = std::move(trained.update);
    if (ef_on_) update = local_->feedback_[i].apply(update);
    UpdateCodec::Encoded encoded = codec.encode(update, ctx);
    ClientUpdate out;
    if (ef_on_) {
      // The server will decode exactly this; what it misses is carried over.
      ErrorFeedbackAccumulator& feedback = local_->feedback_[i];
      CompressionStats ef_stats;
      const StateDict reconstruction = codec.decode(
          {encoded.payload.data(), encoded.payload.size()}, &ef_stats);
      feedback.absorb(update, reconstruction);
      out.ef_residual_norm = feedback.residual_norm();
      out.ef_decode_seconds = ef_stats.decompress_seconds;
    }
    out.samples = trained.samples;
    out.stats = encoded.stats;
    out.train_seconds = trained.train_seconds;
    out.mean_loss = trained.mean_loss;
    out.downlink_decode_seconds = downlink_stats.decompress_seconds;
    out.payload = std::move(encoded.payload);
    return out;
  }

  // Start a client: in process, its real work on the pool and its virtual
  // compute timer; over the wire, its reported upload. `model` is the state
  // it trains on (the global snapshot, or the shared kFull broadcast
  // reconstruction); `broadcast` (per-client downlink path) makes the
  // worker decode its own payload first. A dropout never uploads: in
  // process it "trains" for half its compute budget and vanishes; a
  // crashed remote edge's clients vanish at once.
  void dispatch(std::size_t i, int round, Snapshot model,
                PayloadPtr broadcast) {
    InFlight& flight = flights_[i];
    // An evicted client's pool task may still be running; finish it before
    // reusing the per-client state it touches (feedback_, the client).
    if (flight.future.valid()) flight.future.wait();
    flight.sent.client = i;
    flight.sent.node = tree_ ? 1 + tree_->flat_index(0, owner_round_[i]) : 0;
    flight.sent.round = round;
    flight.sent.seconds = queue_.now();
    const std::uint64_t gen = ++generation_[i];
    phase_[i] = Phase::kPending;
    if (dropped_[i]) {
      const double silent = local_ ? 0.5 * local_->compute_seconds_[i] : 0.0;
      queue_.schedule_after(silent, [this, i, gen] { on_drop(i, gen); });
    } else if (remote_) {
      queue_.schedule_at(flight.reported.upload_seconds,
                         [this, i, gen] { on_upload(i, gen); });
    } else {
      flight.future = pool_->submit([this, i, round, model, broadcast] {
        return client_work(i, round, model, broadcast);
      });
      queue_.schedule_after(local_->compute_seconds_[i],
                            [this, i, gen] { on_upload(i, gen); });
    }
  }

  // Per-client downlink: encode this client's broadcast on the pool (the
  // whole global, or its session delta in kDelta mode), then charge the
  // payload against every hop on its path — each ancestor node's own link
  // top-down under a hierarchical topology — before the client's own link
  // and compute may start.
  void send_to(std::size_t i, int round, const Snapshot& snapshot) {
    const bool delta = downlink_->mode() == DownlinkMode::kDelta;
    auto pending = std::make_shared<std::future<BroadcastPayload>>(
        pool_->submit([this, delta, i, round, snapshot] {
          return delta ? downlink_->encode_for_client(i, *snapshot, round)
                       : downlink_->encode_broadcast(*snapshot, round);
        }));
    queue_.schedule_after(0.0, [this, i, round, pending] {
      BroadcastPayload broadcast = pending->get();
      Dispatch& sent = flights_[i].sent;
      auto payload =
          std::make_shared<const Bytes>(std::move(broadcast.payload));
      sent.downlink_bytes = payload->size();
      sent.downlink_raw_bytes = broadcast.stats.original_bytes;
      sent.downlink_encode_seconds = broadcast.stats.compress_seconds;
      sent.downlink_decode_seconds = 0.0;
      sent.downlink_seconds =
          local_->network_.link(i).transfer_seconds(payload->size());
      if (!tree_) {
        queue_.schedule_after(sent.downlink_seconds, [this, i, round,
                                                      payload] {
          dispatch(i, round, nullptr, payload);
        });
        return;
      }
      // The client's ancestor chain, bottom-up: path[l] is the node at
      // level l the payload crosses on its way down.
      auto path = std::make_shared<std::vector<std::size_t>>();
      path->push_back(owner_round_[i]);
      for (std::size_t l = 1; l < levels_; ++l)
        path->push_back(tree_->parent_of(l - 1, path->back()));
      send_hop(0, i, round, path, payload);
    });
  }

  // Hop `k` (0 = topmost: root -> top-tier node) of a per-client downlink
  // path; after the last interior hop comes the client's own link.
  void send_hop(std::size_t k, std::size_t i, int round,
                std::shared_ptr<const std::vector<std::size_t>> path,
                PayloadPtr payload) {
    if (k == levels_) {
      queue_.schedule_after(flights_[i].sent.downlink_seconds,
                            [this, i, round, payload] {
                              dispatch(i, round, nullptr, payload);
                            });
      return;
    }
    const std::size_t l = levels_ - 1 - k;
    const double hop = charge_hop(l, (*path)[l], payload->size());
    queue_.schedule_after(hop, [this, k, i, round, path, payload] {
      send_hop(k + 1, i, round, path, payload);
    });
  }

  // A downlink hop of `bytes` over node (l, n)'s own link: charge it to the
  // node and the round, and return its virtual seconds.
  double charge_hop(std::size_t l, std::size_t n, std::size_t bytes) {
    const std::size_t flat = tree_->flat_index(l, n);
    const double hop = tree_->uplink(l, n).transfer_seconds(bytes);
    node_downlink_bytes_[flat] += bytes;
    node_downlink_seconds_[flat] += hop;
    record_.backhaul_downlink_bytes += bytes;
    record_.backhaul_downlink_seconds += hop;
    return hop;
  }

  // The last downlink leg: charge the shared broadcast payload against the
  // client's own link, then dispatch on the shared reconstruction.
  void deliver_client(std::size_t i, int round,
                      std::shared_ptr<const BroadcastReady> ready) {
    Dispatch& sent = flights_[i].sent;
    sent.downlink_bytes = ready->payload.size();
    sent.downlink_raw_bytes = ready->stats.original_bytes;
    sent.downlink_encode_seconds = ready->stats.compress_seconds;
    sent.downlink_decode_seconds = ready->decode_seconds;
    sent.downlink_seconds =
        local_->network_.link(i).transfer_seconds(ready->payload.size());
    queue_.schedule_after(sent.downlink_seconds,
                          [this, i, round, model = ready->model] {
                            dispatch(i, round, model, nullptr);
                          });
  }

  // Hierarchical kFull fan-out: ONE copy of the broadcast crosses each
  // participating node's link, recursing level by level; a subtree's
  // clients start their own downlink legs when it reaches their edge.
  void deliver_subtree(std::size_t l, std::size_t n, int round,
                       std::shared_ptr<const BroadcastReady> ready) {
    const double hop = charge_hop(l, n, ready->payload.size());
    queue_.schedule_after(hop, [this, l, n, round, ready] {
      if (l == 0) {
        for (const std::size_t i : edge_cohort_[n])
          deliver_client(i, round, ready);
      } else {
        for (const std::size_t c : children_part_[l][n])
          deliver_subtree(l - 1, c, round, ready);
      }
    });
  }

  // kFull cohort broadcast: encode the global ONCE on the pool (overlapped
  // with the event pump), decode it once — every client reconstructs the
  // same model — and fan the same payload out (flat: straight to each
  // client; hier: down the participating subtrees).
  void broadcast_to(const std::vector<std::size_t>& cohort, int round,
                    const Snapshot& snapshot) {
    auto pending = std::make_shared<std::future<BroadcastReady>>(
        pool_->submit([this, round, snapshot]() -> BroadcastReady {
          BroadcastReady ready;
          BroadcastPayload broadcast =
              downlink_->encode_broadcast(*snapshot, round);
          CompressionStats decode_stats;
          ready.model = std::make_shared<const StateDict>(
              downlink_->decode_broadcast(
                  {broadcast.payload.data(), broadcast.payload.size()},
                  &decode_stats));
          ready.payload = std::move(broadcast.payload);
          ready.stats = broadcast.stats;
          ready.decode_seconds = decode_stats.decompress_seconds;
          return ready;
        }));
    queue_.schedule_after(0.0, [this, cohort, round, pending] {
      auto ready = std::make_shared<const BroadcastReady>(pending->get());
      if (!tree_) {
        for (const std::size_t i : cohort) deliver_client(i, round, ready);
        return;
      }
      const std::size_t top = levels_ - 1;
      for (std::size_t n = 0; n < nodes_[top].size(); ++n)
        if (nodes_[top][n].participating) deliver_subtree(top, n, round, ready);
    });
  }

  // True when an upload/arrival event no longer applies: the run stopped,
  // a later dispatch superseded it, or the client already left the round.
  // A kIdle client means its round closed under it — counted as late,
  // since the record is immutable.
  bool superseded(std::size_t i, std::uint64_t gen) {
    if (stopped_ || gen != generation_[i]) return true;
    if (phase_[i] == Phase::kIdle) {
      ++result_.late_events;
      return true;
    }
    return phase_[i] != Phase::kPending;
  }

  // Virtual compute done: collect the encoded update (waiting for the real
  // work if it is still running) and put it on this client's link.
  void on_upload(std::size_t i, std::uint64_t gen) {
    if (superseded(i, gen)) return;
    InFlight& flight = flights_[i];
    if (remote_) {
      flight.transfer_seconds = flight.reported.delivery.trace.transfer_seconds;
    } else {
      flight.out = flight.future.get();
      flight.transfer_seconds =
          local_->network_.link(i).transfer_seconds(flight.out.payload.size());
      flight.reported.upload_seconds = queue_.now();
    }
    queue_.schedule_after(flight.transfer_seconds,
                          [this, i, gen] { on_arrival(i, gen); });
  }

  // An update reached its aggregation point — the root (flat) or the
  // owning edge (hier): fold it there, record it, and trigger the node's
  // close-out once its goal is met.
  void on_arrival(std::size_t i, std::uint64_t gen) {
    if (superseded(i, gen)) return;
    phase_[i] = Phase::kDone;
    InFlight& flight = flights_[i];
    const std::size_t e = tree_ ? owner_round_[i] : 0;
    Delivery delivery =
        remote_ ? std::move(flight.reported.delivery)
                : make_delivery(flight.sent, flight.out, queue_.now(),
                                flight.transfer_seconds, population_);
    if (tree_ && !nodes_[0][e].open) {
      // Its buffered edge already shipped: the update landed with nowhere
      // to fold. Trace it, but keep it out of every round total.
      flight.out = ClientUpdate{};
      delivery.trace.status = DeliveryStatus::kLate;
      record_arrival(i, std::move(delivery));
      return;
    }
    const std::size_t node_id = flight.sent.node;
    ++live_[node_id];
    peak_[node_id] = std::max(peak_[node_id], live_[node_id]);
    // A remote edge's worker already decoded, folded and settled it.
    if (local_) fold_local(i, delivery);
    --live_[node_id];
    record_arrival(i, std::move(delivery));

    if (!tree_) {
      ++root_folded_;
      if (root_folded_ >= root_goal_) close_round();
    } else {
      ++nodes_[0][e].folded;
      check_node(0, e);
    }
    if (!stopped_ && scheduler_.continuous()) {
      const auto snapshot =
          std::make_shared<const StateDict>(server_.global_state());
      // Continuous policies leave with the freshest global, so every
      // redispatch is its own (per-client) broadcast.
      if (downlink_)
        send_to(i, completed_, snapshot);
      else
        dispatch(i, completed_, snapshot, nullptr);
    }
  }

  // In process: decode client `i`'s update (serially per node — at most
  // one decoded update is ever alive there), fold it into its aggregation
  // point, free it, and score its Eqn (1) decision on the client's link.
  void fold_local(std::size_t i, Delivery& delivery) {
    InFlight& flight = flights_[i];
    const ClientUpdate out = std::move(flight.out);
    flight.out = ClientUpdate{};
    CompressionStats decode_stats;
    const StateDict update = local_->codec_->decode(
        {out.payload.data(), out.payload.size()}, &decode_stats);
    const double weight =
        static_cast<double>(out.samples) *
        scheduler_.staleness_scale(flight.sent.round, completed_);
    if (tree_) {
      tree_->node(0, owner_round_[i]).fold(update, weight);
    } else {
      server_.fold(update, weight);
      record_.aggregate_weight += weight;
    }
    ClientTraceEntry& trace = delivery.trace;
    trace.weight = weight;
    trace.decision = net::evaluate_compression(
        trace.raw_bytes, trace.payload_bytes, delivery.compress_seconds,
        decode_stats.decompress_seconds, local_->network_.link(i));
    delivery.decompress_seconds = decode_stats.decompress_seconds;
  }

  // An arrived delivery's row into the round record and, unless it came
  // late, its terms into the per-participant sums (doubles, so arrival
  // order matters). An edge worker reports it instead, with its upload
  // time, for the root to record.
  void record_arrival(std::size_t i, Delivery delivery) {
    if (report_) {
      report_->deliveries.push_back(
          {std::move(delivery), flights_[i].reported.upload_seconds});
      return;
    }
    RoundRecord& r = record_;
    const ClientTraceEntry& trace = delivery.trace;
    if (trace.status != DeliveryStatus::kLate) {
      r.train_seconds += delivery.train_seconds;
      r.compress_seconds += delivery.compress_seconds;
      r.decompress_seconds += delivery.decompress_seconds;
      r.comm_seconds += trace.transfer_seconds;
      r.mean_loss += delivery.mean_loss;
      r.bytes_sent += trace.payload_bytes;
      r.raw_bytes += trace.raw_bytes;
      r.downlink_bytes += trace.downlink_bytes;
      r.downlink_raw_bytes += delivery.downlink_raw_bytes;
      r.downlink_seconds += trace.downlink_seconds;
      r.downlink_encode_seconds += delivery.downlink_encode_seconds;
      r.downlink_decode_seconds += delivery.downlink_decode_seconds;
      r.mean_ef_residual_norm += trace.ef_residual_norm;
      r.ef_decode_seconds += delivery.ef_decode_seconds;
      r.participants += 1;
    }
    r.clients.push_back(std::move(delivery.trace));
  }

  // A client drawn as a dropout vanished mid-round: trace it (weight 0)
  // and release its aggregation point from waiting on it.
  void on_drop(std::size_t i, std::uint64_t gen) {
    if (stopped_) return;
    if (gen != generation_[i] || phase_[i] != Phase::kPending) return;
    phase_[i] = Phase::kDropped;
    // Traced at the moment the client went silent.
    record_.clients.push_back(client_trace(
        flights_[i].sent, DeliveryStatus::kDropped, queue_.now(),
        population_));
    if (!tree_) {
      // Barrier goals equal the cohort size, so one fewer possible arrival
      // is one fewer to wait for.
      if (root_goal_ > 0) --root_goal_;
      maybe_close_root();
    } else {
      node_lost_child(0, owner_round_[i]);
    }
  }

  // Per-node ship/withdraw machinery (hier only). A node ships when every
  // still-promised child delivered (or, buffered, after min(K, expected)
  // folds); a node whose whole expectation churned away withdraws, which
  // cascades one level up.
  void check_node(std::size_t l, std::size_t n) {
    NodeRound& s = nodes_[l][n];
    if (!s.participating || !s.open) return;
    if (s.folded == 0) {
      if (s.expected == 0) withdraw_node(l, n);
      return;
    }
    if (s.folded >= config_.topology.ship_after(s.expected)) ship_node(l, n);
  }

  void ship_node(std::size_t l, std::size_t n) {
    nodes_[l][n].open = false;
    if (report_) {
      // An edge worker ships in its PARTIAL; the root merges it.
      report_->partial = tree_->node(l, n).finalize_and_encode(completed_);
      return;
    }
    // A remote edge's worker already finalized and re-encoded its partial.
    auto partial = std::make_shared<const EncodedPartial>(
        remote_ && l == 0 ? std::move(edge_partials_[n])
                          : tree_->node(l, n).finalize_and_encode(completed_));
    ++partials_in_flight_;
    const double transfer =
        tree_->uplink(l, n).transfer_seconds(partial->payload.size());
    queue_.schedule_after(transfer,
                          [this, l, n, round = completed_, transfer, partial] {
                            on_partial(l, n, round, transfer, *partial);
                          });
  }

  void withdraw_node(std::size_t l, std::size_t n) {
    NodeRound& s = nodes_[l][n];
    s.open = false;
    s.participating = false;
    tree_->node(l, n).abort_round();
    if (l + 1 == levels_) {
      if (root_goal_ > 0) --root_goal_;
      maybe_close_root();
    } else {
      node_lost_child(l + 1, tree_->parent_of(l, n));
    }
  }

  void node_lost_child(std::size_t l, std::size_t n) {
    NodeRound& s = nodes_[l][n];
    if (s.expected > 0) --s.expected;
    check_node(l, n);
  }

  // A node's re-encoded partial crossed its uplink: merge it one level up —
  // into its parent's streaming accumulator, or into the server when it
  // shipped from the top tier. Partials for a closed round or a parent
  // that already shipped merge nowhere (counted/traced, never totaled).
  void on_partial(std::size_t l, std::size_t n, int round, double transfer,
                  const EncodedPartial& partial) {
    --partials_in_flight_;
    if (stopped_) return;
    if (round != completed_) {
      ++result_.late_events;
      return;
    }
    EdgeTraceEntry trace;
    trace.edge = tree_->flat_index(l, n);
    trace.tier = l + 1;
    trace.cohort = partial.clients;
    trace.weight = partial.weight;
    trace.payload_bytes = partial.payload.size();
    trace.raw_bytes = partial.stats.original_bytes;
    trace.encode_seconds = partial.stats.compress_seconds;
    trace.transfer_seconds = transfer;
    trace.arrival_seconds = queue_.now();
    trace.downlink_bytes = node_downlink_bytes_[trace.edge];
    trace.downlink_seconds = node_downlink_seconds_[trace.edge];
    trace.ef_residual_norm = partial.ef_residual_norm;

    const bool at_root = l + 1 == levels_;
    std::size_t parent = 0;
    std::size_t decode_node = 0;  // the root
    if (!at_root) {
      parent = tree_->parent_of(l, n);
      if (!nodes_[l + 1][parent].open) {
        trace.status = DeliveryStatus::kLate;
        record_.edges.push_back(std::move(trace));
        return;
      }
      decode_node = 1 + tree_->flat_index(l + 1, parent);
    }
    CompressionStats decode_stats;
    ++live_[decode_node];
    peak_[decode_node] = std::max(peak_[decode_node], live_[decode_node]);
    StateDict mean = tree_->decode_partial(
        l, {partial.payload.data(), partial.payload.size()}, &decode_stats);
    if (at_root)
      server_.fold(mean, partial.weight);
    else
      tree_->node(l + 1, parent).fold(mean, partial.weight, partial.clients);
    mean = StateDict();  // merged; free it before anything else arrives
    --live_[decode_node];
    record_partial(record_, std::move(trace), decode_stats.decompress_seconds,
                   at_root);
    if (at_root) {
      ++root_folded_;
      maybe_close_root();
    } else {
      ++nodes_[l + 1][parent].folded;
      check_node(l + 1, parent);
    }
  }

  // Close the current aggregation once everything the root still expects
  // has merged. Guarded so churn paths can call it opportunistically.
  void maybe_close_root() {
    if (!stopped_ && root_folded_ >= root_goal_) close_round();
  }

  // The straggler deadline: every client still in flight is evicted
  // (traced with the marker), and open tier-1 edges force-ship what they
  // have (or withdraw empty-handed) — the cascade then resolves the upper
  // tiers.
  void evict_stragglers() {
    const int round = completed_;
    for (std::size_t i = 0; i < config_.clients; ++i) {
      if (phase_[i] != Phase::kPending) continue;
      phase_[i] = Phase::kEvicted;
      // Traced at the moment the server gave up on it.
      record_.clients.push_back(client_trace(flights_[i].sent,
                                             DeliveryStatus::kEvicted,
                                             queue_.now(), population_));
    }
    if (!tree_) {
      root_goal_ = root_folded_;
      maybe_close_root();
      return;
    }
    // Withdrawal cascades can close (and reopen) the round synchronously;
    // the round guard stops the sweep the moment that happens.
    for (std::size_t e = 0; e < edge_count_ && completed_ == round; ++e) {
      NodeRound& s = nodes_[0][e];
      if (!s.participating || !s.open) continue;
      if (s.folded > 0)
        ship_node(0, e);
      else
        withdraw_node(0, e);
    }
  }

  // Close the round: finalize the server's aggregation (abort it when
  // nothing folded), turn the sums into means per participant and per
  // merged partial, stamp the virtual clock, evaluate when the config asks
  // for this round, and open the next one.
  void close_round() {
    RoundRecord& r = record_;
    if (r.participants == 0) {
      // Everything churned away: keep the global untouched this round.
      server_.abort_round();
    } else {
      server_.finalize_round();
      const double inv = 1.0 / static_cast<double>(r.participants);
      r.train_seconds *= inv;
      r.compress_seconds *= inv;
      r.decompress_seconds *= inv;
      r.comm_seconds *= inv;
      r.mean_loss *= inv;
      r.downlink_seconds *= inv;
      r.downlink_encode_seconds *= inv;
      r.downlink_decode_seconds *= inv;
      r.mean_ef_residual_norm *= inv;
      r.ef_decode_seconds *= inv;
    }
    const auto merged = static_cast<std::size_t>(std::count_if(
        r.edges.begin(), r.edges.end(), [](const EdgeTraceEntry& edge) {
          return edge.status == DeliveryStatus::kAggregated;
        }));
    if (merged > 0) {
      const double inv = 1.0 / static_cast<double>(merged);
      r.backhaul_seconds *= inv;
      r.backhaul_encode_seconds *= inv;
      r.backhaul_decode_seconds *= inv;
      r.backhaul_downlink_seconds *= inv;
    }
    r.virtual_seconds = queue_.now();
    if (config_.evaluate_every_round || r.round + 1 == config_.rounds) {
      Timer eval_timer;
      r.accuracy = server_.evaluate(test_, config_.eval_limit);
      r.eval_seconds = eval_timer.seconds();
    }
    result_.rounds.push_back(std::move(record_));
    ++completed_;
    if (!config_.checkpoint_path.empty() &&
        static_cast<std::size_t>(completed_) % config_.checkpoint_every == 0)
      save_checkpoint();
    if (completed_ >= config_.rounds)
      stopped_ = true;
    else
      open_round(false);
  }

  const FlRunConfig& config_;
  Scheduler& scheduler_;
  FlServer& server_;
  const ClientPopulation* population_;
  AggregationTree* tree_;  // null = flat star
  const data::Dataset& test_;
  FlCoordinator* local_;       // in process: clients, codec, links
  RemoteEdges* remote_;        // over the wire: every tier-1 edge
  DownlinkChannel* downlink_;  // null = free broadcast
  const std::size_t levels_;
  const std::size_t edge_count_;
  // EF against a lossless uplink is provably a zero residual forever; skip
  // the per-round payload decode and residual passes outright.
  const bool ef_on_;

  FlRunResult result_;
  net::EventQueue queue_;
  std::vector<InFlight> flights_;
  RoundStreams streams_;
  // Churn draws ride their own stream: a failure-free run consumes exactly
  // the randomness it did before churn existed, keeping trajectory pins.
  Rng failure_rng_;
  int completed_ = 0;  // aggregations finished so far
  bool stopped_ = false;
  RoundRecord record_;
  std::vector<Phase> phase_;
  std::vector<std::uint64_t> generation_;
  std::vector<char> dropped_;  // this round's dropout draws
  // Tier-1 edge owning each client THIS round (crash re-sharding moves it).
  std::vector<std::size_t> owner_round_;
  // Arrivals folded/merged at the root since the round opened and the count
  // that closes it (updates when flat, top-tier partials when hier).
  std::size_t root_folded_ = 0;
  std::size_t root_goal_ = 0;
  // Shipped partials whose arrival event has not executed yet. Whatever is
  // still in flight when the run stops never merges anywhere — fold those
  // into late_events at exit so weight that left an edge is always either
  // merged, traced kLate, or counted late.
  std::size_t partials_in_flight_ = 0;
  // Decoded payloads alive per aggregation point: node 0 = the root,
  // 1 + flat_index for interior nodes. Streaming keeps every count <= 1.
  std::vector<std::size_t> live_;
  std::vector<std::size_t> peak_;
  std::vector<std::vector<NodeRound>> nodes_;
  // This round's member set per tier-1 edge (after crash re-sharding) and
  // the drawn cohort, in dispatch order; a flat run draws from one group of
  // every client.
  std::vector<std::vector<std::size_t>> edge_members_;
  std::vector<std::vector<std::size_t>> edge_cohort_;
  std::vector<std::vector<std::size_t>> everyone_;
  // Participating children of each node above tier 1 (level l-1 indices).
  std::vector<std::vector<std::vector<std::size_t>>> children_part_;
  // Broadcast traffic charged to each interior node's link this round.
  std::vector<std::size_t> node_downlink_bytes_;
  std::vector<double> node_downlink_seconds_;
  // The partial each remote edge reported this round.
  std::vector<EncodedPartial> edge_partials_;
  // An edge worker's round (run_edge): what its PARTIAL reports.
  std::optional<WirePartial> report_;
  // Declared last, so its destructor drains in-flight client tasks (async
  // policies stop mid-flight) while the state they touch still exists.
  std::optional<ThreadPool> pool_;
};

FlRunResult FlCoordinator::run() {
  return RoundEngine(this, nullptr, config_, *scheduler_, server_,
                     population_.get(), tree_.get(), *test_)
      .run();
}

WirePartial FlCoordinator::run_edge(std::size_t edge, int round, double t_open,
                                    const std::vector<std::size_t>& cohort,
                                    const StateDict& global) {
  if (edge >= edge_count())
    throw InvalidArgument("FlCoordinator: edge index out of range");
  return RoundEngine(this, nullptr, config_, *scheduler_, server_,
                     population_.get(), tree_.get(), *test_)
      .run_edge(edge, round, t_open, cohort, global);
}

FlRunResult run_remote_edges(const FlRunConfig& config, Scheduler& scheduler,
                             FlServer& server,
                             const ClientPopulation* population,
                             AggregationTree& tree, const data::Dataset& test,
                             RemoteEdges& remote) {
  return RoundEngine(nullptr, &remote, config, scheduler, server, population,
                     &tree, test)
      .run();
}

}  // namespace fedsz::core
