// One layout per record. Each visit() names every member of its struct
// once, through a structured binding, and hands them in layout order to a
// field codec: Put writes them, Get reads them back. One list fixes a
// record's bytes in both directions, and a member added to any visited
// struct breaks the build here until the layout carries it. core/fl writes
// every structured record this way: the HELLO manifest, ROUND_OPEN,
// PARTIAL, the checkpoint body, and the bytes run_fingerprint hashes.
//
// Integers are varints, floats fixed-width, enums one range-checked byte,
// strings/blobs/state dicts length-prefixed, vectors count-prefixed,
// optionals a presence flag and then the value.
#pragma once

#include <concepts>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/fl/checkpoint.hpp"
#include "core/fl/federation.hpp"
#include "util/bytebuffer.hpp"

namespace fedsz::core::layout {

template <class T, class U>
concept Either = std::same_as<std::remove_const_t<T>, U>;

template <class F, class... Fields>
void each(F& f, Fields&... fields) { (f(fields), ...); }

// ---- run configuration (HELLO manifest, run fingerprint) ----

template <Either<nn::SgdConfig> S, class F>
void visit(S& s, F& f) {
  auto& [learning_rate, momentum, weight_decay] = s;
  each(f, learning_rate, momentum, weight_decay);
}

template <Either<nn::ModelConfig> M, class F>
void visit(M& m, F& f) {
  auto& [arch, in_channels, image_size, num_classes, scale, seed] = m;
  each(f, arch, in_channels, image_size, num_classes, scale, seed);
}

template <Either<net::NetworkProfile> P, class F>
void visit(P& p, F& f) {
  auto& [bandwidth_mbps, latency_s] = p;
  each(f, bandwidth_mbps, latency_s);
}

template <Either<net::HeterogeneousNetworkConfig> H, class F>
void visit(H& h, F& f) {
  auto& [distribution, edge_min_mbps, edge_max_mbps, wan_median_mbps,
         wan_log_sigma, two_tier_fast_fraction, two_tier_fast_mbps,
         two_tier_slow_mbps, latency_s, seed] = h;
  each(f, distribution, edge_min_mbps, edge_max_mbps, wan_median_mbps,
       wan_log_sigma, two_tier_fast_fraction, two_tier_fast_mbps,
       two_tier_slow_mbps, latency_s, seed);
}

template <Either<ClientConfig> C, class F>
void visit(C& c, F& f) {
  auto& [sgd, batch_size, local_epochs, seed] = c;
  each(f, sgd, batch_size, local_epochs, seed);
}

template <Either<TopologyConfig> T, class F>
void visit(T& t, F& f) {
  auto& [mode, tiers, backhaul_spec, tier_backhaul_specs, backhaul_network,
         backhaul_heterogeneous, edge_mode, edge_buffer, edge_error_feedback,
         sharding, shard_seed] = t;
  each(f, mode, tiers, backhaul_spec, tier_backhaul_specs, backhaul_network,
       backhaul_heterogeneous, edge_mode, edge_buffer, edge_error_feedback,
       sharding, shard_seed);
}

template <Either<FailureSchedule> S, class F>
void visit(S& s, F& f) {
  auto& [dropout_rate, edge_failure_rate, straggler_deadline_seconds, seed] =
      s;
  each(f, dropout_rate, edge_failure_rate, straggler_deadline_seconds, seed);
}

template <Either<DeviceClassShare> S, class F>
void visit(S& s, F& f) {
  auto& [name, weight] = s;
  each(f, name, weight);
}

template <Either<PopulationConfig> P, class F>
void visit(P& p, F& f) {
  auto& [preset, mix, availability, flat_availability, period_seconds,
         phase_jitter, dropout_rate, seed] = p;
  each(f, preset, mix, availability, flat_availability, period_seconds,
       phase_jitter, dropout_rate, seed);
}

template <Either<FlRunConfig> C, class F>
void visit(C& c, F& f) {
  auto& [clients, rounds, client, network, heterogeneous, eval_limit, threads,
         seed, evaluate_every_round, compute_seconds_per_sample,
         compute_jitter, downlink_spec, downlink_mode, error_feedback,
         topology, failures, transport, checkpoint_path, checkpoint_every,
         resume, dirichlet_alpha, sizeskew_s, population] = c;
  each(f, clients, rounds, client, network, heterogeneous, eval_limit, threads,
       seed, evaluate_every_round, compute_seconds_per_sample, compute_jitter,
       downlink_spec, downlink_mode, error_feedback, topology, failures,
       transport, checkpoint_path, checkpoint_every, resume, dirichlet_alpha,
       sizeskew_s, population);
}

template <Either<DatasetSpec> D, class F>
void visit(D& d, F& f) {
  auto& [name, seed, take] = d;
  each(f, name, seed, take);
}

template <Either<RunManifest> M, class F>
void visit(M& m, F& f) {
  auto& [codec_spec, dataset, model, config, edge,
         heartbeat_interval_seconds] = m;
  each(f, codec_spec, dataset, model, config, edge,
       heartbeat_interval_seconds);
}

// ---- ROUND_OPEN / PARTIAL ----

template <Either<CompressionStats> S, class F>
void visit(S& s, F& f) {
  auto& [original, compressed, lossy_original, lossy_compressed,
         lossless_original, lossless_compressed, raw_original, sparse_original,
         sparse_compressed, sparse_kept, sparse_total, lossy_tensors,
         lossless_tensors, raw_tensors, sparse_tensors, lossy_chunks,
         mean_bound, compress_seconds, decompress_seconds] = s;
  each(f, original, compressed, lossy_original, lossy_compressed,
       lossless_original, lossless_compressed, raw_original, sparse_original,
       sparse_compressed, sparse_kept, sparse_total, lossy_tensors,
       lossless_tensors, raw_tensors, sparse_tensors, lossy_chunks, mean_bound,
       compress_seconds, decompress_seconds);
}

template <Either<net::CompressionDecision> D, class F>
void visit(D& d, F& f) {
  auto& [compressed_seconds, uncompressed_seconds, worthwhile] = d;
  each(f, compressed_seconds, uncompressed_seconds, worthwhile);
}

template <Either<ClientTraceEntry> T, class F>
void visit(T& t, F& f) {
  auto& [client, dispatch_round, dispatch_seconds, arrival_seconds,
         transfer_seconds, weight, payload_bytes, raw_bytes, bound_value,
         lossy_tensors, lossless_tensors, raw_tensors, sparse_tensors,
         downlink_bytes, downlink_seconds, ef_residual_norm, node, status,
         device_class, eligible, decision] = t;
  each(f, client, dispatch_round, dispatch_seconds, arrival_seconds,
       transfer_seconds, weight, payload_bytes, raw_bytes, bound_value,
       lossy_tensors, lossless_tensors, raw_tensors, sparse_tensors,
       downlink_bytes, downlink_seconds, ef_residual_norm, node, status,
       device_class, eligible, decision);
}

template <Either<Delivery> D, class F>
void visit(D& d, F& f) {
  auto& [trace, train_seconds, mean_loss, compress_seconds, decompress_seconds,
         ef_decode_seconds, downlink_raw_bytes, downlink_encode_seconds,
         downlink_decode_seconds] = d;
  each(f, trace, train_seconds, mean_loss, compress_seconds,
       decompress_seconds, ef_decode_seconds, downlink_raw_bytes,
       downlink_encode_seconds, downlink_decode_seconds);
}

template <Either<WireDelivery> W, class F>
void visit(W& w, F& f) {
  auto& [delivery, upload_seconds] = w;
  each(f, delivery, upload_seconds);
}

template <Either<EncodedPartial> P, class F>
void visit(P& p, F& f) {
  auto& [payload, stats, weight, clients, ef_residual_norm] = p;
  each(f, payload, stats, weight, clients, ef_residual_norm);
}

template <Either<WirePartial> P, class F>
void visit(P& p, F& f) {
  auto& [round, partial, deliveries] = p;
  each(f, round, partial, deliveries);
}

template <Either<RoundOpenMsg> M, class F>
void visit(M& m, F& f) {
  auto& [round, t_open, cohort] = m;
  each(f, round, t_open, cohort);
}

// ---- checkpoint body ----

template <Either<Rng::State> S, class F>
void visit(S& s, F& f) {
  auto& [words, cached, has_cached] = s;
  each(f, words, cached, has_cached);
}

template <Either<CheckpointState> S, class F>
void visit(S& s, F& f) {
  auto& [completed_rounds, virtual_now, clock_next_seq, config_fingerprint,
         global_state, cohort_rng, failure_rng, eligibility_rng,
         client_residuals, downlink_sessions, edge_residuals,
         client_streams] = s;
  each(f, completed_rounds, virtual_now, clock_next_seq, config_fingerprint,
       global_state, cohort_rng, failure_rng, eligibility_rng,
       client_residuals, downlink_sessions, edge_residuals, client_streams);
}

// ---- field codecs ----

struct Put {
  ByteWriter& out;
  void operator()(bool v) { out.put_u8(v ? 1 : 0); }
  template <std::unsigned_integral T>
  void operator()(T v) { out.put_varint(v); }
  void operator()(int v) { out.put_varint(static_cast<std::uint64_t>(v)); }
  void operator()(float v) { out.put_f32(v); }
  void operator()(double v) { out.put_f64(v); }
  template <class E>
    requires std::is_enum_v<E>
  void operator()(E v) {
    out.put_u8(static_cast<std::uint8_t>(v));
  }
  void operator()(const std::string& v) { out.put_string(v); }
  void operator()(const Bytes& v) { out.put_blob(v); }
  void operator()(const StateDict& v) { (*this)(v.serialize()); }
  template <class T, std::size_t N>
  void operator()(const T (&v)[N]) {
    for (const T& item : v) (*this)(item);
  }
  template <class T>
  void operator()(const std::optional<T>& v) {
    (*this)(v.has_value());
    if (v) (*this)(*v);
  }
  template <class T>
  void operator()(const std::vector<T>& v) {
    out.put_varint(v.size());
    for (const T& item : v) (*this)(item);
  }
  template <class T>
    requires std::is_class_v<T>
  void operator()(const T& nested) {
    visit(nested, *this);
  }
};

/// Throws CorruptStream on an out-of-range enum, flag or integer, and on a
/// count past the payload. Each enum names its last value here: an enum
/// member the layout has not ranged does not compile.
struct Get {
  ByteReader& in;
  void operator()(bool& v) { v = byte_at_most(1, "flag") != 0; }
  template <std::unsigned_integral T>
  void operator()(T& v) {
    const std::uint64_t value = in.get_varint();
    if (value > std::numeric_limits<T>::max())
      throw CorruptStream("integer out of range");
    v = static_cast<T>(value);
  }
  void operator()(int& v) {
    // Put widens to 64 bits, so a negative int arrives sign-extended.
    const auto value = static_cast<std::int64_t>(in.get_varint());
    if (value < std::numeric_limits<int>::min() ||
        value > std::numeric_limits<int>::max())
      throw CorruptStream("integer out of range");
    v = static_cast<int>(value);
  }
  void operator()(float& v) { v = in.get_f32(); }
  void operator()(double& v) { v = in.get_f64(); }
  void operator()(nn::ModelScale& v) {
    enum_at_most(v, nn::ModelScale::kPaper, "model scale");
  }
  void operator()(net::LinkDistribution& v) {
    enum_at_most(v, net::LinkDistribution::kTwoTier, "link distribution");
  }
  void operator()(DownlinkMode& v) {
    enum_at_most(v, DownlinkMode::kDelta, "downlink mode");
  }
  void operator()(TopologyMode& v) {
    enum_at_most(v, TopologyMode::kHier, "topology mode");
  }
  void operator()(EdgeMode& v) {
    enum_at_most(v, EdgeMode::kBuffered, "edge mode");
  }
  void operator()(ShardStrategy& v) {
    enum_at_most(v, ShardStrategy::kShuffled, "shard strategy");
  }
  void operator()(AvailabilityMode& v) {
    enum_at_most(v, AvailabilityMode::kAlways, "availability mode");
  }
  void operator()(DeliveryStatus& v) {
    enum_at_most(v, DeliveryStatus::kIneligible, "delivery status");
  }
  void operator()(std::string& v) { v = in.get_string(); }
  void operator()(Bytes& v) {
    const ByteSpan bytes = in.get_blob_view();
    v.assign(bytes.begin(), bytes.end());
  }
  void operator()(StateDict& v) {
    v = StateDict::deserialize(in.get_blob_view());
  }
  template <class T, std::size_t N>
  void operator()(T (&v)[N]) {
    for (T& item : v) (*this)(item);
  }
  template <class T>
  void operator()(std::optional<T>& v) {
    bool present = false;
    (*this)(present);
    v.reset();
    if (present) (*this)(v.emplace());
  }
  template <class T>
  void operator()(std::vector<T>& v) {
    // Every element takes at least one byte: a count past the payload is
    // corrupt before it can drive an allocation.
    const std::uint64_t count = in.get_varint();
    if (count > in.remaining())
      throw CorruptStream("element count exceeds the payload");
    v.resize(static_cast<std::size_t>(count));
    for (T& item : v) (*this)(item);
  }
  template <class T>
    requires std::is_class_v<T>
  void operator()(T& nested) {
    visit(nested, *this);
  }

  std::uint8_t byte_at_most(std::uint8_t max, const char* what) {
    const std::uint8_t byte = in.get_u8();
    if (byte > max) throw CorruptStream(std::string("bad ") + what + " byte");
    return byte;
  }
  template <class E>
  void enum_at_most(E& v, E last, const char* what) {
    v = static_cast<E>(byte_at_most(static_cast<std::uint8_t>(last), what));
  }
};

/// The records' layouts back to back.
template <class... Records>
Bytes serialize(const Records&... records) {
  ByteWriter out;
  Put put{out};
  (put(records), ...);
  return out.finish();
}

/// Throws CorruptStream, its message prefixed with `what`, on truncation,
/// trailing bytes or any field Get rejects.
template <class Record>
Record parse(ByteSpan bytes, const std::string& what) {
  try {
    ByteReader in(bytes);
    Record record;
    Get get{in};
    get(record);
    if (!in.done()) throw CorruptStream("trailing bytes");
    return record;
  } catch (const std::exception& error) {
    throw CorruptStream(what + ": " + error.what());
  }
}

}  // namespace fedsz::core::layout
