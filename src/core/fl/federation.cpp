#include "core/fl/federation.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "core/codec_spec.hpp"
#include "core/fl/checkpoint.hpp"
#include "data/synthetic.hpp"
#include "net/bandwidth.hpp"
#include "util/bytebuffer.hpp"
#include "util/timer.hpp"

namespace fedsz::core {

namespace {

using Clock = std::chrono::steady_clock;

ByteSpan view(const Bytes& bytes) { return {bytes.data(), bytes.size()}; }

// ---- field-group (de)serializers shared by the manifest and PARTIAL ----

void put_profile(ByteWriter& out, const net::NetworkProfile& profile) {
  out.put_f64(profile.bandwidth_mbps);
  out.put_f64(profile.latency_s);
}

net::NetworkProfile get_profile(ByteReader& in) {
  net::NetworkProfile profile;
  profile.bandwidth_mbps = in.get_f64();
  profile.latency_s = in.get_f64();
  return profile;
}

void put_heterogeneous(
    ByteWriter& out,
    const std::optional<net::HeterogeneousNetworkConfig>& config) {
  out.put_u8(config ? 1 : 0);
  if (!config) return;
  out.put_u8(static_cast<std::uint8_t>(config->distribution));
  out.put_f64(config->edge_min_mbps);
  out.put_f64(config->edge_max_mbps);
  out.put_f64(config->wan_median_mbps);
  out.put_f64(config->wan_log_sigma);
  out.put_f64(config->two_tier_fast_fraction);
  out.put_f64(config->two_tier_fast_mbps);
  out.put_f64(config->two_tier_slow_mbps);
  out.put_f64(config->latency_s);
  out.put_u64(config->seed);
}

std::optional<net::HeterogeneousNetworkConfig> get_heterogeneous(
    ByteReader& in) {
  const std::uint8_t present = in.get_u8();
  if (present > 1)
    throw CorruptStream("manifest: bad heterogeneous-config flag");
  if (present == 0) return std::nullopt;
  net::HeterogeneousNetworkConfig config;
  config.distribution = static_cast<net::LinkDistribution>(in.get_u8());
  config.edge_min_mbps = in.get_f64();
  config.edge_max_mbps = in.get_f64();
  config.wan_median_mbps = in.get_f64();
  config.wan_log_sigma = in.get_f64();
  config.two_tier_fast_fraction = in.get_f64();
  config.two_tier_fast_mbps = in.get_f64();
  config.two_tier_slow_mbps = in.get_f64();
  config.latency_s = in.get_f64();
  config.seed = in.get_u64();
  return config;
}

void put_stats(ByteWriter& out, const CompressionStats& stats) {
  out.put_varint(stats.original_bytes);
  out.put_varint(stats.compressed_bytes);
  out.put_varint(stats.lossy_original_bytes);
  out.put_varint(stats.lossy_compressed_bytes);
  out.put_varint(stats.lossless_original_bytes);
  out.put_varint(stats.lossless_compressed_bytes);
  out.put_varint(stats.raw_original_bytes);
  out.put_varint(stats.lossy_tensors);
  out.put_varint(stats.lossless_tensors);
  out.put_varint(stats.raw_tensors);
  out.put_varint(stats.lossy_chunks);
  out.put_f64(stats.mean_bound_value);
  out.put_f64(stats.compress_seconds);
  out.put_f64(stats.decompress_seconds);
}

CompressionStats get_stats(ByteReader& in) {
  CompressionStats stats;
  stats.original_bytes = static_cast<std::size_t>(in.get_varint());
  stats.compressed_bytes = static_cast<std::size_t>(in.get_varint());
  stats.lossy_original_bytes = static_cast<std::size_t>(in.get_varint());
  stats.lossy_compressed_bytes = static_cast<std::size_t>(in.get_varint());
  stats.lossless_original_bytes = static_cast<std::size_t>(in.get_varint());
  stats.lossless_compressed_bytes = static_cast<std::size_t>(in.get_varint());
  stats.raw_original_bytes = static_cast<std::size_t>(in.get_varint());
  stats.lossy_tensors = static_cast<std::size_t>(in.get_varint());
  stats.lossless_tensors = static_cast<std::size_t>(in.get_varint());
  stats.raw_tensors = static_cast<std::size_t>(in.get_varint());
  stats.lossy_chunks = static_cast<std::size_t>(in.get_varint());
  stats.mean_bound_value = in.get_f64();
  stats.compress_seconds = in.get_f64();
  stats.decompress_seconds = in.get_f64();
  return stats;
}

// ---- PARTIAL payload ----

/// One client delivery as shipped inside a PARTIAL frame. `pos` is the
/// client's dispatch position WITHIN the edge cohort; the root adds the
/// edge's global offset, which turns (arrival, upload, global pos) into
/// exactly the in-process event queue's (time, tie-break) order.
struct WireClientTrace {
  std::size_t client = 0;
  std::size_t pos = 0;
  double upload_seconds = 0.0;
  double arrival_seconds = 0.0;
  double transfer_seconds = 0.0;
  double weight = 0.0;
  std::size_t payload_bytes = 0;
  std::size_t raw_bytes = 0;
  double bound_value = 0.0;
  std::size_t lossy_tensors = 0;
  std::size_t lossless_tensors = 0;
  std::size_t raw_tensors = 0;
  double ef_residual_norm = 0.0;
  double train_seconds = 0.0;
  double mean_loss = 0.0;
  double compress_seconds = 0.0;
  double decompress_seconds = 0.0;  // edge-side update decode (wall)
  double ef_decode_seconds = 0.0;
};

/// A worker's whole round result: the re-encoded partial plus the ordering
/// keys the root needs to replay the virtual schedule (ship time = the
/// last fold's arrival; the last fold's own key breaks root-side ties the
/// way event-scheduling order would have).
struct WirePartial {
  int round = 0;
  double ship_seconds = 0.0;
  double last_upload_seconds = 0.0;
  std::size_t last_pos = 0;
  Bytes payload;
  double weight = 0.0;
  std::size_t clients = 0;
  double ef_residual_norm = 0.0;
  CompressionStats stats;
  std::vector<WireClientTrace> traces;  // in edge fold order
};

Bytes serialize_partial(const WirePartial& partial) {
  ByteWriter out;
  out.put_varint(static_cast<std::uint64_t>(partial.round));
  out.put_f64(partial.ship_seconds);
  out.put_f64(partial.last_upload_seconds);
  out.put_varint(partial.last_pos);
  out.put_blob(view(partial.payload));
  out.put_f64(partial.weight);
  out.put_varint(partial.clients);
  out.put_f64(partial.ef_residual_norm);
  put_stats(out, partial.stats);
  out.put_varint(partial.traces.size());
  for (const WireClientTrace& t : partial.traces) {
    out.put_varint(t.client);
    out.put_varint(t.pos);
    out.put_f64(t.upload_seconds);
    out.put_f64(t.arrival_seconds);
    out.put_f64(t.transfer_seconds);
    out.put_f64(t.weight);
    out.put_varint(t.payload_bytes);
    out.put_varint(t.raw_bytes);
    out.put_f64(t.bound_value);
    out.put_varint(t.lossy_tensors);
    out.put_varint(t.lossless_tensors);
    out.put_varint(t.raw_tensors);
    out.put_f64(t.ef_residual_norm);
    out.put_f64(t.train_seconds);
    out.put_f64(t.mean_loss);
    out.put_f64(t.compress_seconds);
    out.put_f64(t.decompress_seconds);
    out.put_f64(t.ef_decode_seconds);
  }
  return out.finish();
}

WirePartial parse_partial(ByteSpan bytes) {
  try {
    ByteReader in(bytes);
    WirePartial partial;
    partial.round = static_cast<int>(in.get_varint());
    partial.ship_seconds = in.get_f64();
    partial.last_upload_seconds = in.get_f64();
    partial.last_pos = static_cast<std::size_t>(in.get_varint());
    const ByteSpan payload = in.get_blob_view();
    partial.payload.assign(payload.begin(), payload.end());
    partial.weight = in.get_f64();
    partial.clients = static_cast<std::size_t>(in.get_varint());
    partial.ef_residual_norm = in.get_f64();
    partial.stats = get_stats(in);
    const std::uint64_t count = in.get_varint();
    if (count > in.remaining())
      throw CorruptStream("federation: trace count exceeds the payload");
    partial.traces.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t k = 0; k < count; ++k) {
      WireClientTrace t;
      t.client = static_cast<std::size_t>(in.get_varint());
      t.pos = static_cast<std::size_t>(in.get_varint());
      t.upload_seconds = in.get_f64();
      t.arrival_seconds = in.get_f64();
      t.transfer_seconds = in.get_f64();
      t.weight = in.get_f64();
      t.payload_bytes = static_cast<std::size_t>(in.get_varint());
      t.raw_bytes = static_cast<std::size_t>(in.get_varint());
      t.bound_value = in.get_f64();
      t.lossy_tensors = static_cast<std::size_t>(in.get_varint());
      t.lossless_tensors = static_cast<std::size_t>(in.get_varint());
      t.raw_tensors = static_cast<std::size_t>(in.get_varint());
      t.ef_residual_norm = in.get_f64();
      t.train_seconds = in.get_f64();
      t.mean_loss = in.get_f64();
      t.compress_seconds = in.get_f64();
      t.decompress_seconds = in.get_f64();
      t.ef_decode_seconds = in.get_f64();
      partial.traces.push_back(t);
    }
    if (!in.done())
      throw CorruptStream("federation: trailing bytes after PARTIAL");
    return partial;
  } catch (const CorruptStream&) {
    throw;
  } catch (const std::exception& error) {
    throw CorruptStream(std::string("federation: bad PARTIAL: ") +
                        error.what());
  }
}

// ---- ROUND_OPEN payload ----

struct RoundOpenMsg {
  int round = 0;
  double t_open = 0.0;
  std::vector<std::size_t> cohort;  // global client ids, dispatch order
};

Bytes serialize_round_open(const RoundOpenMsg& msg) {
  ByteWriter out;
  out.put_varint(static_cast<std::uint64_t>(msg.round));
  out.put_f64(msg.t_open);
  out.put_varint(msg.cohort.size());
  for (const std::size_t i : msg.cohort) out.put_varint(i);
  return out.finish();
}

RoundOpenMsg parse_round_open(ByteSpan bytes, std::size_t clients) {
  try {
    ByteReader in(bytes);
    RoundOpenMsg msg;
    msg.round = static_cast<int>(in.get_varint());
    msg.t_open = in.get_f64();
    const std::uint64_t count = in.get_varint();
    if (count > in.remaining())
      throw CorruptStream("federation: cohort count exceeds the payload");
    msg.cohort.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t k = 0; k < count; ++k) {
      const std::uint64_t id = in.get_varint();
      if (id >= clients)
        throw CorruptStream("federation: cohort client id out of range");
      msg.cohort.push_back(static_cast<std::size_t>(id));
    }
    if (!in.done())
      throw CorruptStream("federation: trailing bytes after ROUND_OPEN");
    return msg;
  } catch (const CorruptStream&) {
    throw;
  } catch (const std::exception& error) {
    throw CorruptStream(std::string("federation: bad ROUND_OPEN: ") +
                        error.what());
  }
}

}  // namespace

// ---- manifest ----

Bytes serialize_manifest(const RunManifest& manifest) {
  ByteWriter out;
  out.put_string(manifest.codec_spec);
  out.put_string(manifest.dataset.name);
  out.put_u64(manifest.dataset.seed);
  out.put_varint(manifest.dataset.take);
  out.put_string(manifest.model.arch);
  out.put_varint(static_cast<std::uint64_t>(manifest.model.in_channels));
  out.put_varint(static_cast<std::uint64_t>(manifest.model.image_size));
  out.put_varint(static_cast<std::uint64_t>(manifest.model.num_classes));
  out.put_u8(static_cast<std::uint8_t>(manifest.model.scale));
  out.put_u64(manifest.model.seed);
  out.put_varint(manifest.clients);
  out.put_varint(static_cast<std::uint64_t>(manifest.rounds));
  out.put_u64(manifest.seed);
  out.put_f32(manifest.client.sgd.learning_rate);
  out.put_f32(manifest.client.sgd.momentum);
  out.put_f32(manifest.client.sgd.weight_decay);
  out.put_varint(manifest.client.batch_size);
  out.put_varint(static_cast<std::uint64_t>(manifest.client.local_epochs));
  put_profile(out, manifest.network);
  put_heterogeneous(out, manifest.heterogeneous);
  out.put_f64(manifest.compute_seconds_per_sample);
  out.put_f64(manifest.compute_jitter);
  put_profile(out, manifest.backhaul_network);
  put_heterogeneous(out, manifest.backhaul_heterogeneous);
  out.put_u64(manifest.shard_seed);
  out.put_u32(manifest.edge);
  out.put_u32(manifest.edges);
  out.put_f64(manifest.heartbeat_interval_seconds);
  out.put_u32(manifest.fingerprint);
  return out.finish();
}

RunManifest parse_manifest(ByteSpan bytes) {
  try {
    ByteReader in(bytes);
    RunManifest m;
    m.codec_spec = in.get_string();
    m.dataset.name = in.get_string();
    m.dataset.seed = in.get_u64();
    m.dataset.take = static_cast<std::size_t>(in.get_varint());
    m.model.arch = in.get_string();
    m.model.in_channels = static_cast<int>(in.get_varint());
    m.model.image_size = static_cast<int>(in.get_varint());
    m.model.num_classes = static_cast<int>(in.get_varint());
    m.model.scale = static_cast<nn::ModelScale>(in.get_u8());
    m.model.seed = in.get_u64();
    m.clients = static_cast<std::size_t>(in.get_varint());
    m.rounds = static_cast<int>(in.get_varint());
    m.seed = in.get_u64();
    m.client.sgd.learning_rate = in.get_f32();
    m.client.sgd.momentum = in.get_f32();
    m.client.sgd.weight_decay = in.get_f32();
    m.client.batch_size = static_cast<std::size_t>(in.get_varint());
    m.client.local_epochs = static_cast<int>(in.get_varint());
    m.network = get_profile(in);
    m.heterogeneous = get_heterogeneous(in);
    m.compute_seconds_per_sample = in.get_f64();
    m.compute_jitter = in.get_f64();
    m.backhaul_network = get_profile(in);
    m.backhaul_heterogeneous = get_heterogeneous(in);
    m.shard_seed = in.get_u64();
    m.edge = in.get_u32();
    m.edges = in.get_u32();
    m.heartbeat_interval_seconds = in.get_f64();
    m.fingerprint = in.get_u32();
    if (!in.done())
      throw CorruptStream("manifest: trailing bytes after the manifest");
    return m;
  } catch (const CorruptStream&) {
    throw;
  } catch (const std::exception& error) {
    throw CorruptStream(std::string("manifest: ") + error.what());
  }
}

// ---- edge worker ----

namespace {

/// The worker's rebuilt slice of the run: the same deterministic
/// derivations the in-process coordinator constructor performs (dataset,
/// IID shards, per-client compute budgets, per-client links, codecs),
/// minus everything server-side. Clients materialize lazily — with crash
/// re-homing a worker can be asked to train ANY client, but usually only
/// its own shard.
struct EdgeRuntime {
  RunManifest manifest;
  FlRunConfig config;
  UpdateCodecPtr codec;
  bool ef_on = false;
  std::unique_ptr<AggregationTree> tree;
  std::unique_ptr<ClientPopulation> population;  // before network: links
  net::HeterogeneousNetwork network;
  data::DatasetPtr train;
  std::vector<std::vector<std::size_t>> shards;
  std::vector<double> compute_seconds;
  std::vector<std::unique_ptr<FlClient>> clients;  // lazy, index = id
  std::vector<ErrorFeedbackAccumulator> feedback;

  explicit EdgeRuntime(RunManifest m)
      : manifest(std::move(m)),
        config(config_from(manifest)),
        codec(make_codec(parse_codec_spec(manifest.codec_spec))),
        ef_on(config.error_feedback && !codec->lossless()),
        tree(std::make_unique<AggregationTree>(config.topology,
                                               config.clients)),
        population(config.population.empty()
                       ? nullptr
                       : std::make_unique<ClientPopulation>(
                             config.population, config.clients, config.seed)),
        network(build_population_network(config, population.get())),
        train(build_train(manifest.dataset)) {
    if (manifest.edge >= tree->edge_count())
      throw CorruptStream("manifest: edge index out of range");
    shards = build_client_shards(*train, config, population.get());
    Rng speed_rng(config.seed ^ 0xC0DEC10Cull);
    compute_seconds.reserve(config.clients);
    for (std::size_t i = 0; i < config.clients; ++i) {
      const double factor = speed_rng.uniform(1.0 - config.compute_jitter,
                                              1.0 + config.compute_jitter);
      const double class_multiplier =
          population ? population->compute_multiplier(i) : 1.0;
      compute_seconds.push_back(
          config.compute_seconds_per_sample *
          static_cast<double>(shards[i].size()) *
          static_cast<double>(config.client.local_epochs) * factor *
          class_multiplier);
    }
    clients.resize(config.clients);
    feedback.resize(config.clients);
  }

  static data::DatasetPtr build_train(const DatasetSpec& dataset) {
    data::DatasetPtr train =
        data::make_dataset(dataset.name, dataset.seed).first;
    if (dataset.take > 0) train = data::take(train, dataset.take);
    return train;
  }

  static FlRunConfig config_from(const RunManifest& m) {
    FlRunConfig config;
    config.apply_comm_spec(parse_codec_spec(m.codec_spec));
    config.clients = m.clients;
    config.rounds = m.rounds;
    config.seed = m.seed;
    config.client = m.client;
    config.network = m.network;
    config.heterogeneous = m.heterogeneous;
    config.compute_seconds_per_sample = m.compute_seconds_per_sample;
    config.compute_jitter = m.compute_jitter;
    config.topology.backhaul_network = m.backhaul_network;
    config.topology.backhaul_heterogeneous = m.backhaul_heterogeneous;
    config.topology.shard_seed = m.shard_seed;
    config.validate();
    return config;
  }

  FlClient& client(std::size_t i) {
    if (!clients[i]) {
      ClientConfig client_config = config.client;
      client_config.seed = config.seed ^ (0xC11E47ull * (i + 1));
      clients[i] = std::make_unique<FlClient>(
          static_cast<int>(i), manifest.model,
          std::make_shared<data::SubsetDataset>(train, shards[i]),
          client_config);
    }
    return *clients[i];
  }
};

/// Run one cohort: train every client serially (training is deterministic
/// per client, so serial vs pooled changes nothing but wall time), compute
/// each update's virtual upload/arrival analytically, then fold in the
/// exact order the in-process event queue would have processed the
/// arrivals — (arrival time, upload time, dispatch position).
WirePartial process_round(EdgeRuntime& rt, const RoundOpenMsg& open,
                          const StateDict& global) {
  struct Produced {
    std::size_t client = 0;
    std::size_t pos = 0;
    Bytes payload;
    std::size_t samples = 0;
    CompressionStats stats;
    double train_seconds = 0.0;
    double mean_loss = 0.0;
    double ef_residual_norm = 0.0;
    double ef_decode_seconds = 0.0;
    double upload = 0.0;
    double transfer = 0.0;
    double arrival = 0.0;
  };
  std::vector<Produced> produced;
  produced.reserve(open.cohort.size());
  for (std::size_t pos = 0; pos < open.cohort.size(); ++pos) {
    const std::size_t i = open.cohort[pos];
    Produced p;
    p.client = i;
    p.pos = pos;
    ClientRoundResult round_result = rt.client(i).run_round(global);
    EncodeContext ctx;
    ctx.round = open.round;
    ctx.client_id = static_cast<int>(i);
    ctx.steps = round_result.steps;
    StateDict update = std::move(round_result.update);
    if (rt.ef_on) update = rt.feedback[i].apply(update);
    UpdateCodec::Encoded encoded = rt.codec->encode(update, ctx);
    if (rt.ef_on) {
      CompressionStats ef_stats;
      const StateDict reconstruction = rt.codec->decode(
          {encoded.payload.data(), encoded.payload.size()}, &ef_stats);
      rt.feedback[i].absorb(update, reconstruction);
      p.ef_residual_norm = rt.feedback[i].residual_norm();
      p.ef_decode_seconds = ef_stats.decompress_seconds;
    }
    p.samples = round_result.samples;
    p.stats = encoded.stats;
    p.train_seconds = round_result.train_seconds;
    p.mean_loss = round_result.mean_loss;
    p.payload = std::move(encoded.payload);
    p.upload = open.t_open + rt.compute_seconds[i];
    p.transfer = rt.network.link(i).transfer_seconds(p.payload.size());
    p.arrival = p.upload + p.transfer;
    produced.push_back(std::move(p));
  }

  std::vector<std::size_t> order(produced.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Produced& x = produced[a];
    const Produced& y = produced[b];
    if (x.arrival != y.arrival) return x.arrival < y.arrival;
    if (x.upload != y.upload) return x.upload < y.upload;
    return x.pos < y.pos;
  });

  EdgeAggregator& edge = rt.tree->node(0, rt.manifest.edge);
  edge.begin_round(global);
  WirePartial wire;
  wire.round = open.round;
  wire.traces.reserve(produced.size());
  for (const std::size_t k : order) {
    Produced& p = produced[k];
    CompressionStats decode_stats;
    StateDict update =
        rt.codec->decode(view(p.payload), &decode_stats);
    // Barrier schedulers fold in-round, so the staleness scale is 1 and
    // the aggregation weight is the bare sample count.
    const double weight = static_cast<double>(p.samples);
    edge.fold(update, weight);
    WireClientTrace t;
    t.client = p.client;
    t.pos = p.pos;
    t.upload_seconds = p.upload;
    t.arrival_seconds = p.arrival;
    t.transfer_seconds = p.transfer;
    t.weight = weight;
    t.payload_bytes = p.payload.size();
    t.raw_bytes = p.stats.original_bytes;
    t.bound_value = p.stats.mean_bound_value;
    t.lossy_tensors = p.stats.lossy_tensors;
    t.lossless_tensors = p.stats.lossless_tensors;
    t.raw_tensors = p.stats.raw_tensors;
    t.ef_residual_norm = p.ef_residual_norm;
    t.train_seconds = p.train_seconds;
    t.mean_loss = p.mean_loss;
    t.compress_seconds = p.stats.compress_seconds;
    t.decompress_seconds = decode_stats.decompress_seconds;
    t.ef_decode_seconds = p.ef_decode_seconds;
    wire.traces.push_back(t);
  }

  EncodedPartial partial = edge.finalize_and_encode(open.round);
  const Produced& last = produced[order.back()];
  wire.ship_seconds = last.arrival;
  wire.last_upload_seconds = last.upload;
  wire.last_pos = last.pos;
  wire.payload = std::move(partial.payload);
  wire.weight = partial.weight;
  wire.clients = partial.clients;
  wire.ef_residual_norm = partial.ef_residual_norm;
  wire.stats = partial.stats;
  return wire;
}

}  // namespace

void run_edge_worker(net::StreamPtr stream) {
  net::FrameChannel chan(std::move(stream));
  std::optional<net::Frame> hello = chan.recv();
  if (!hello) throw net::TransportError("federation: peer closed before HELLO");
  if (hello->type != net::FrameType::kHello)
    throw CorruptStream("federation: expected HELLO, got " +
                        net::frame_type_name(hello->type));
  EdgeRuntime rt(parse_manifest(view(hello->payload)));

  ByteWriter ack;
  ack.put_u32(rt.manifest.fingerprint);
  ack.put_varint(rt.manifest.edge);
  const Bytes ack_bytes = ack.finish();
  chan.send(net::FrameType::kAck, view(ack_bytes));

  // Liveness beacon on the WALL clock (the root's crash detector is about
  // real processes, not the simulation). FrameChannel::send serializes
  // with the round loop's PARTIAL sends.
  std::mutex beat_mutex;
  std::condition_variable beat_cv;
  bool beat_stop = false;
  const auto interval = std::chrono::duration<double>(
      std::max(0.01, rt.manifest.heartbeat_interval_seconds));
  std::thread heartbeat([&] {
    std::unique_lock<std::mutex> lock(beat_mutex);
    while (!beat_cv.wait_for(lock, interval, [&] { return beat_stop; })) {
      lock.unlock();
      try {
        chan.send(net::FrameType::kHeartbeat, ByteSpan{});
      } catch (const std::exception&) {
        lock.lock();
        break;
      }
      lock.lock();
    }
  });
  auto stop_heartbeat = [&] {
    {
      std::lock_guard<std::mutex> lock(beat_mutex);
      beat_stop = true;
    }
    beat_cv.notify_all();
    if (heartbeat.joinable()) heartbeat.join();
  };

  try {
    std::optional<RoundOpenMsg> pending;
    while (std::optional<net::Frame> frame = chan.recv()) {
      switch (frame->type) {
        case net::FrameType::kRoundOpen:
          pending = parse_round_open(view(frame->payload), rt.config.clients);
          break;
        case net::FrameType::kBroadcast: {
          ByteReader in(view(frame->payload));
          const int round = static_cast<int>(in.get_varint());
          const StateDict global = StateDict::deserialize(in.get_blob_view());
          if (!pending || pending->round != round)
            throw CorruptStream(
                "federation: BROADCAST without a matching ROUND_OPEN");
          const Bytes out = serialize_partial(
              process_round(rt, *pending, global));
          chan.send(net::FrameType::kPartial, view(out));
          pending.reset();
          break;
        }
        case net::FrameType::kBye:
          stop_heartbeat();
          chan.close();
          return;
        default:
          throw CorruptStream("federation: unexpected " +
                              net::frame_type_name(frame->type) + " frame");
      }
    }
  } catch (...) {
    stop_heartbeat();
    chan.close();
    throw;
  }
  // EOF without BYE: the root vanished; exit quietly (it already has — or
  // never will collect — everything this worker produced).
  stop_heartbeat();
  chan.close();
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
  std::unique_ptr<ClientPopulation> population;  // before network: links
  net::HeterogeneousNetwork network;  // client links (Eqn-1 decisions)
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
                             config.population, config.clients, config.seed)),
        network(build_population_network(config, population.get())) {}

  RunManifest make_manifest(std::uint32_t edge) const {
    RunManifest m;
    m.codec_spec = spec_string;
    m.dataset = train_spec;
    m.model = model_config;
    m.clients = config.clients;
    m.rounds = config.rounds;
    m.seed = config.seed;
    m.client = config.client;
    m.network = config.network;
    m.heterogeneous = config.heterogeneous;
    m.compute_seconds_per_sample = config.compute_seconds_per_sample;
    m.compute_jitter = config.compute_jitter;
    m.backhaul_network = config.topology.backhaul_network;
    m.backhaul_heterogeneous = config.topology.backhaul_heterogeneous;
    m.shard_seed = config.topology.shard_seed;
    m.edge = edge;
    m.edges = static_cast<std::uint32_t>(tree->edge_count());
    m.heartbeat_interval_seconds = options.heartbeat_interval_seconds;
    m.fingerprint = fingerprint;
    return m;
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
  if (impl.config.topology.mode != TopologyMode::kHier ||
      impl.config.topology.resolved_tiers().size() != 1)
    throw InvalidArgument(
        "FederatedRoot: distributed runs need a single-tier hierarchy "
        "(topology=hier:<N>) -- one worker process per tier-1 edge");
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
  if (impl.config.topology.edge_mode != EdgeMode::kSync)
    throw InvalidArgument(
        "FederatedRoot: distributed edges are sync-only (a buffered edge "
        "would need late client arrivals crossing the wire)");
  if (!impl.config.checkpoint_path.empty())
    throw InvalidArgument(
        "FederatedRoot: checkpoint/resume is in-process only for now -- "
        "drop checkpoint= from the spec when using transport=tcp");
  if (impl.config.topology.sharding == ShardStrategy::kShuffled &&
      impl.config.topology.shard_seed == 0)
    impl.config.topology.shard_seed = impl.config.seed ^ 0x5A4DD00Dull;
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
/// draining its frames into the shared inbox, and liveness bookkeeping.
struct Conn {
  std::unique_ptr<net::FrameChannel> chan;
  std::thread reader;
  bool alive = true;
  Clock::time_point last_seen{};
};

struct InboxEvent {
  std::size_t edge = 0;
  std::optional<net::Frame> frame;  // nullopt = disconnect/EOF
  std::string error;
};

}  // namespace

FlRunResult FederatedRoot::run_with_streams(
    std::vector<net::StreamPtr> streams) {
  Impl& impl = *impl_;
  const std::size_t edges = edge_count_;
  if (streams.size() != edges)
    throw InvalidArgument("FederatedRoot: got " +
                          std::to_string(streams.size()) + " streams for " +
                          std::to_string(edges) + " edges");

  Timer wall;
  std::mutex inbox_mutex;
  std::condition_variable inbox_cv;
  std::deque<InboxEvent> inbox;
  std::vector<Conn> conns(edges);

  auto push_event = [&](InboxEvent event) {
    {
      std::lock_guard<std::mutex> lock(inbox_mutex);
      inbox.push_back(std::move(event));
    }
    inbox_cv.notify_all();
  };
  auto wait_event =
      [&](std::chrono::milliseconds timeout) -> std::optional<InboxEvent> {
    std::unique_lock<std::mutex> lock(inbox_mutex);
    if (!inbox_cv.wait_for(lock, timeout, [&] { return !inbox.empty(); }))
      return std::nullopt;
    InboxEvent event = std::move(inbox.front());
    inbox.pop_front();
    return event;
  };

  auto shutdown = [&] {
    for (Conn& conn : conns) {
      if (conn.chan) conn.chan->close();
      if (conn.reader.joinable()) conn.reader.join();
    }
  };

  try {
    const auto start = Clock::now();
    for (std::size_t e = 0; e < edges; ++e) {
      conns[e].chan = std::make_unique<net::FrameChannel>(streams[e]);
      conns[e].last_seen = start;
      const Bytes hello = serialize_manifest(
          impl.make_manifest(static_cast<std::uint32_t>(e)));
      conns[e].chan->send(net::FrameType::kHello, view(hello));
      conns[e].reader = std::thread([&, e] {
        try {
          while (std::optional<net::Frame> frame = conns[e].chan->recv()) {
            const bool beat = frame->type == net::FrameType::kHeartbeat;
            {
              std::lock_guard<std::mutex> lock(inbox_mutex);
              conns[e].last_seen = Clock::now();
              if (!beat) inbox.push_back({e, std::move(*frame), ""});
            }
            if (!beat) inbox_cv.notify_all();
          }
          push_event({e, std::nullopt, ""});
        } catch (const std::exception& error) {
          push_event({e, std::nullopt, error.what()});
        }
      });
    }

    // Handshake: every worker must echo the fingerprint and its edge
    // before the first round — a worker built from different code (or fed
    // a different manifest) fails here, not 40 rounds in.
    std::vector<char> acked(edges, 0);
    std::size_t acks = 0;
    std::vector<InboxEvent> acked_then_died;
    while (acks < edges) {
      std::optional<InboxEvent> event =
          wait_event(std::chrono::milliseconds(500));
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
      if (fp != impl.fingerprint || edge != event->edge)
        throw net::TransportError(
            "federation: worker " + std::to_string(event->edge) +
            " acked a mismatched fingerprint/edge -- incompatible build or "
            "manifest");
      if (!acked[event->edge]) {
        acked[event->edge] = 1;
        ++acks;
      }
    }
    {
      std::lock_guard<std::mutex> lock(inbox_mutex);
      inbox.insert(inbox.begin(),
                   std::make_move_iterator(acked_then_died.begin()),
                   std::make_move_iterator(acked_then_died.end()));
    }

    // ---- the campaign ----
    FlRunResult result;
    result.scheduler = impl.scheduler->name();
    Rng cohort_rng(impl.config.seed ^ 0x5C4ED11Eull);
    Rng eligibility_rng(impl.config.seed ^ 0xE11D1B1Eull);
    std::vector<char> eligible(impl.config.clients, 1);
    std::vector<std::vector<std::size_t>> members = impl.tree->base_shards();
    std::vector<std::size_t> peak(1 + edges, 0);
    std::vector<char> dead(edges, 0);
    std::vector<char> rehomed(edges, 0);
    double virtual_now = 0.0;
    int completed = 0;
    const auto timeout = std::chrono::duration<double>(
        std::max(0.1, impl.options.heartbeat_timeout_seconds));

    while (completed < impl.config.rounds) {
      RoundRecord record;
      record.round = completed;
      record.backhaul_tier_bytes.assign(1, 0);
      record.backhaul_tier_raw_bytes.assign(1, 0);

      // Re-home the members of every edge that died since the last open:
      // round-robin over the survivors, exactly like the in-process crash
      // machinery minus the seeded shuffle (a real crash is not a seeded
      // draw; determinism across runs ends where real failures begin).
      {
        std::vector<std::size_t> displaced;
        for (std::size_t e = 0; e < edges; ++e) {
          if (!dead[e] || rehomed[e]) continue;
          rehomed[e] = 1;
          record.crashed_nodes.push_back(impl.tree->flat_index(0, e));
          displaced.insert(displaced.end(), members[e].begin(),
                           members[e].end());
          members[e].clear();
        }
        std::vector<std::size_t> alive;
        for (std::size_t e = 0; e < edges; ++e)
          if (!dead[e]) alive.push_back(e);
        if (alive.empty())
          throw net::TransportError(
              "federation: every edge worker died with rounds remaining");
        for (std::size_t k = 0; k < displaced.size(); ++k)
          members[alive[k % alive.size()]].push_back(displaced[k]);
      }

      impl.server.begin_round();
      const double t_open = virtual_now;

      // Availability draws replay the in-process (edge order, member order)
      // sequence so both transports consume the eligibility stream
      // identically; the zero-eligible fallback is the same RNG-free
      // most-available-client wake.
      std::fill(eligible.begin(), eligible.end(), 1);
      if (impl.population) {
        for (std::size_t e = 0; e < edges; ++e)
          for (const std::size_t i : members[e])
            eligible[i] = eligibility_rng.uniform() <
                          impl.population->availability(i, t_open);
        bool any = false;
        for (std::size_t i = 0; i < impl.config.clients; ++i)
          any = any || eligible[i];
        if (!any) {
          std::size_t best = 0;
          double best_p = -1.0;
          for (std::size_t i = 0; i < impl.config.clients; ++i) {
            const double p = impl.population->availability(i, t_open);
            if (p > best_p) {
              best_p = p;
              best = i;
            }
          }
          eligible[best] = 1;
        }
      }

      // Cohort draws consume cohort_rng per NON-EMPTY edge in edge order —
      // the same stream positions as the in-process open_round. With a
      // population the member set shrinks to the eligible clients BEFORE
      // the draw, and edges left with no eligible member skip theirs.
      std::vector<std::vector<std::size_t>> cohort(edges);
      std::vector<std::size_t> offset(edges, 0);
      for (std::size_t e = 0; e < edges; ++e) {
        if (dead[e] || members[e].empty()) continue;
        std::vector<std::size_t> pool;
        if (impl.population) {
          for (const std::size_t i : members[e])
            if (eligible[i]) pool.push_back(i);
        } else {
          pool = members[e];
        }
        if (pool.empty()) continue;
        const std::vector<std::size_t> draw =
            impl.scheduler->cohort(completed, pool.size(), cohort_rng);
        for (const std::size_t idx : draw) cohort[e].push_back(pool[idx]);
      }
      {
        std::size_t pos = 0;
        for (std::size_t e = 0; e < edges; ++e) {
          offset[e] = pos;
          pos += cohort[e].size();
        }
      }

      // Offline devices surface first in the round's client list, in
      // client-index order — the order the in-process open_round appends
      // them.
      if (impl.population) {
        std::vector<std::size_t> owner(impl.config.clients, 0);
        for (std::size_t e = 0; e < edges; ++e)
          for (const std::size_t i : members[e]) owner[i] = e;
        for (std::size_t i = 0; i < impl.config.clients; ++i) {
          if (eligible[i]) {
            ++record.eligible_clients;
            continue;
          }
          ++record.ineligible_clients;
          ClientTraceEntry trace;
          trace.client = i;
          trace.node = 1 + impl.tree->flat_index(0, owner[i]);
          trace.dispatch_round = completed;
          trace.dispatch_seconds = t_open;
          trace.arrival_seconds = t_open;
          trace.status = DeliveryStatus::kIneligible;
          trace.device_class = impl.population->class_name(i);
          trace.eligible = false;
          record.clients.push_back(std::move(trace));
        }
      } else {
        record.eligible_clients = impl.config.clients;
      }

      const Bytes global_blob = impl.server.global_state().serialize();
      std::vector<char> expected(edges, 0);
      std::size_t outstanding = 0;
      for (std::size_t e = 0; e < edges; ++e) {
        if (cohort[e].empty()) continue;
        RoundOpenMsg open;
        open.round = completed;
        open.t_open = t_open;
        open.cohort = cohort[e];
        const Bytes open_bytes = serialize_round_open(open);
        ByteWriter bw;
        bw.put_varint(static_cast<std::uint64_t>(completed));
        bw.put_blob(view(global_blob));
        const Bytes broadcast = bw.finish();
        try {
          conns[e].chan->send(net::FrameType::kRoundOpen, view(open_bytes));
          conns[e].chan->send(net::FrameType::kBroadcast, view(broadcast));
          expected[e] = 1;
          ++outstanding;
        } catch (const std::exception&) {
          dead[e] = 1;  // crash handling below traces the cohort
          expected[e] = 1;
          ++outstanding;
        }
      }

      auto crash = [&](std::size_t e, const std::string& why) {
        (void)why;
        dead[e] = 1;
        conns[e].alive = false;
        if (conns[e].chan) conns[e].chan->close();
        if (!expected[e]) return;
        expected[e] = 0;
        --outstanding;
        // The cohort this worker was running vanishes mid-round: trace it
        // like an in-process dropout sweep (weight 0, nothing totaled).
        for (std::size_t pos = 0; pos < cohort[e].size(); ++pos) {
          ClientTraceEntry trace;
          trace.client = cohort[e][pos];
          trace.node = 1 + impl.tree->flat_index(0, e);
          trace.dispatch_round = completed;
          trace.dispatch_seconds = t_open;
          trace.arrival_seconds = t_open;
          trace.status = DeliveryStatus::kDropped;
          if (impl.population)
            trace.device_class = impl.population->class_name(trace.client);
          record.clients.push_back(trace);
        }
      };
      for (std::size_t e = 0; e < edges; ++e)
        if (expected[e] && dead[e]) crash(e, "send failed");

      std::vector<std::optional<WirePartial>> got(edges);
      auto round_start = Clock::now();
      while (outstanding > 0) {
        std::optional<InboxEvent> event =
            wait_event(std::chrono::milliseconds(200));
        if (!event) {
          const auto now = Clock::now();
          for (std::size_t e = 0; e < edges; ++e) {
            if (!expected[e] || dead[e]) continue;
            Clock::time_point seen;
            {
              std::lock_guard<std::mutex> lock(inbox_mutex);
              seen = conns[e].last_seen;
            }
            if (now - std::max(seen, round_start) >
                std::chrono::duration_cast<Clock::duration>(timeout))
              crash(e, "heartbeat timeout");
          }
          continue;
        }
        const std::size_t e = event->edge;
        if (!event->frame) {
          crash(e, event->error.empty() ? "disconnected" : event->error);
          continue;
        }
        if (event->frame->type != net::FrameType::kPartial)
          throw CorruptStream("federation: expected PARTIAL, got " +
                              net::frame_type_name(event->frame->type));
        WirePartial partial = parse_partial(view(event->frame->payload));
        if (partial.round != completed)
          throw CorruptStream("federation: PARTIAL for round " +
                              std::to_string(partial.round) +
                              " while round " + std::to_string(completed) +
                              " is open");
        if (!expected[e])
          throw CorruptStream(
              "federation: unsolicited PARTIAL from edge " +
              std::to_string(e));
        got[e] = std::move(partial);
        expected[e] = 0;
        --outstanding;
      }

      // ---- merge, replaying the in-process event order ----
      struct Arrived {
        std::size_t edge = 0;
        double arrival = 0.0;
        WirePartial partial;
      };
      std::vector<Arrived> arrived;
      for (std::size_t e = 0; e < edges; ++e) {
        if (!got[e]) continue;
        Arrived a;
        a.edge = e;
        a.partial = std::move(*got[e]);
        a.arrival = a.partial.ship_seconds +
                    impl.tree->uplink(0, e).transfer_seconds(
                        a.partial.payload.size());
        arrived.push_back(std::move(a));
      }
      // Partial events sort by (arrival, schedule order); ship events were
      // scheduled in last-fold order, which is itself the global
      // (arrival, upload, dispatch-position) order of the final folds.
      std::sort(arrived.begin(), arrived.end(),
                [&](const Arrived& x, const Arrived& y) {
                  if (x.arrival != y.arrival) return x.arrival < y.arrival;
                  if (x.partial.ship_seconds != y.partial.ship_seconds)
                    return x.partial.ship_seconds < y.partial.ship_seconds;
                  if (x.partial.last_upload_seconds !=
                      y.partial.last_upload_seconds)
                    return x.partial.last_upload_seconds <
                           y.partial.last_upload_seconds;
                  return offset[x.edge] + x.partial.last_pos <
                         offset[y.edge] + y.partial.last_pos;
                });

      // Client deliveries across ALL edges, re-sorted into the global
      // arrival order the in-process pump folded them in, so every
      // non-associative double sum in the record accumulates identically.
      struct GlobalTrace {
        std::size_t edge = 0;
        std::size_t global_pos = 0;
        const WireClientTrace* t = nullptr;
      };
      std::vector<GlobalTrace> folds;
      for (const Arrived& a : arrived)
        for (const WireClientTrace& t : a.partial.traces)
          folds.push_back({a.edge, offset[a.edge] + t.pos, &t});
      std::sort(folds.begin(), folds.end(),
                [](const GlobalTrace& x, const GlobalTrace& y) {
                  if (x.t->arrival_seconds != y.t->arrival_seconds)
                    return x.t->arrival_seconds < y.t->arrival_seconds;
                  if (x.t->upload_seconds != y.t->upload_seconds)
                    return x.t->upload_seconds < y.t->upload_seconds;
                  return x.global_pos < y.global_pos;
                });
      for (const GlobalTrace& g : folds) {
        const WireClientTrace& t = *g.t;
        ClientTraceEntry trace;
        trace.client = t.client;
        if (impl.population)
          trace.device_class = impl.population->class_name(t.client);
        trace.node = 1 + impl.tree->flat_index(0, g.edge);
        trace.dispatch_round = completed;
        trace.dispatch_seconds = t_open;
        trace.arrival_seconds = t.arrival_seconds;
        trace.transfer_seconds = t.transfer_seconds;
        trace.weight = t.weight;
        trace.payload_bytes = t.payload_bytes;
        trace.raw_bytes = t.raw_bytes;
        trace.bound_value = t.bound_value;
        trace.lossy_tensors = t.lossy_tensors;
        trace.lossless_tensors = t.lossless_tensors;
        trace.raw_tensors = t.raw_tensors;
        trace.ef_residual_norm = t.ef_residual_norm;
        trace.decision = net::evaluate_compression(
            t.raw_bytes, t.payload_bytes, t.compress_seconds,
            t.decompress_seconds, impl.network.link(t.client));
        record.train_seconds += t.train_seconds;
        record.compress_seconds += t.compress_seconds;
        record.decompress_seconds += t.decompress_seconds;
        record.comm_seconds += t.transfer_seconds;
        record.mean_loss += t.mean_loss;
        record.bytes_sent += t.payload_bytes;
        record.raw_bytes += t.raw_bytes;
        record.mean_ef_residual_norm += t.ef_residual_norm;
        record.ef_decode_seconds += t.ef_decode_seconds;
        record.participants += 1;
        record.clients.push_back(std::move(trace));
      }

      std::size_t merged_partials = 0;
      for (const Arrived& a : arrived) {
        const WirePartial& p = a.partial;
        EdgeTraceEntry trace;
        trace.edge = impl.tree->flat_index(0, a.edge);
        trace.tier = 1;
        trace.cohort = p.clients;
        trace.weight = p.weight;
        trace.payload_bytes = p.payload.size();
        trace.raw_bytes = p.stats.original_bytes;
        trace.encode_seconds = p.stats.compress_seconds;
        trace.transfer_seconds = a.arrival - p.ship_seconds;
        trace.arrival_seconds = a.arrival;
        trace.ef_residual_norm = p.ef_residual_norm;
        CompressionStats decode_stats;
        StateDict mean =
            impl.tree->decode_partial(0, view(p.payload), &decode_stats);
        impl.server.merge_partial(mean, p.weight);
        record.aggregate_weight += p.weight;
        trace.decode_seconds = decode_stats.decompress_seconds;
        record.backhaul_bytes += trace.payload_bytes;
        record.backhaul_raw_bytes += trace.raw_bytes;
        record.backhaul_seconds += trace.transfer_seconds;
        record.backhaul_encode_seconds += trace.encode_seconds;
        record.backhaul_decode_seconds += trace.decode_seconds;
        record.backhaul_tier_bytes[0] += trace.payload_bytes;
        record.backhaul_tier_raw_bytes[0] += trace.raw_bytes;
        ++merged_partials;
        record.edges.push_back(std::move(trace));
        peak[0] = std::max<std::size_t>(peak[0], 1);
        if (p.clients > 0)
          peak[1 + impl.tree->flat_index(0, a.edge)] = std::max<std::size_t>(
              peak[1 + impl.tree->flat_index(0, a.edge)], 1);
        virtual_now = std::max(virtual_now, a.arrival);
      }

      // ---- close, exactly like the in-process close_round ----
      if (record.participants == 0)
        impl.server.abort_round();
      else
        impl.server.finalize_round();
      if (record.participants > 0) {
        const double inv = 1.0 / static_cast<double>(record.participants);
        record.train_seconds *= inv;
        record.compress_seconds *= inv;
        record.decompress_seconds *= inv;
        record.comm_seconds *= inv;
        record.mean_loss *= inv;
        record.mean_ef_residual_norm *= inv;
        record.ef_decode_seconds *= inv;
      }
      if (merged_partials > 0) {
        const double inv = 1.0 / static_cast<double>(merged_partials);
        record.backhaul_seconds *= inv;
        record.backhaul_encode_seconds *= inv;
        record.backhaul_decode_seconds *= inv;
      }
      record.virtual_seconds = virtual_now;
      if (impl.config.evaluate_every_round ||
          completed + 1 == impl.config.rounds) {
        Timer eval_timer;
        record.accuracy = impl.server.evaluate(*impl.test,
                                               impl.config.eval_limit);
        record.eval_seconds = eval_timer.seconds();
      }
      result.rounds.push_back(std::move(record));
      ++completed;
    }

    const Bytes empty;
    for (std::size_t e = 0; e < edges; ++e) {
      if (dead[e]) continue;
      try {
        conns[e].chan->send(net::FrameType::kBye, view(empty));
      } catch (const std::exception&) {
        // A worker that died between its last partial and BYE changes
        // nothing; the campaign is complete.
      }
    }
    shutdown();

    result.final_accuracy =
        result.rounds.empty() ? 0.0 : result.rounds.back().accuracy;
    result.peak_decoded_updates = peak[0];
    result.peak_decoded_per_node = std::move(peak);
    result.total_virtual_seconds = virtual_now;
    result.total_wall_seconds = wall.seconds();
    return result;
  } catch (...) {
    shutdown();
    throw;
  }
}

}  // namespace fedsz::core
