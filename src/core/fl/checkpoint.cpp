#include "core/fl/checkpoint.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/bytebuffer.hpp"
#include "util/crc32.hpp"

namespace fedsz::core {

namespace {

void put_rng(ByteWriter& out, const Rng::State& s) {
  for (int i = 0; i < 4; ++i) out.put_u64(s.words[i]);
  out.put_f64(s.cached);
  out.put_u8(s.has_cached ? 1 : 0);
}

Rng::State get_rng(ByteReader& in) {
  Rng::State s;
  for (int i = 0; i < 4; ++i) s.words[i] = in.get_u64();
  s.cached = in.get_f64();
  const std::uint8_t flag = in.get_u8();
  if (flag > 1) throw CorruptStream("checkpoint: bad RNG cache flag");
  s.has_cached = flag == 1;
  return s;
}

void put_dicts(ByteWriter& out, const std::vector<StateDict>& dicts) {
  out.put_varint(dicts.size());
  for (const StateDict& dict : dicts) out.put_blob(dict.serialize());
}

std::vector<StateDict> get_dicts(ByteReader& in) {
  const std::uint64_t count = in.get_varint();
  // Each entry costs at least a length byte; anything bigger than the
  // remaining bytes is a corrupt count, not a huge valid section.
  if (count > in.remaining())
    throw CorruptStream("checkpoint: state-dict count exceeds the payload");
  std::vector<StateDict> dicts;
  dicts.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i)
    dicts.push_back(StateDict::deserialize(in.get_blob_view()));
  return dicts;
}

}  // namespace

Bytes serialize_checkpoint(const CheckpointState& state) {
  ByteWriter body;
  body.put_varint(state.completed_rounds);
  body.put_f64(state.virtual_now);
  body.put_u64(state.clock_next_seq);
  body.put_u32(state.config_fingerprint);
  body.put_blob(state.global_state.serialize());
  body.put_string(state.aggregator_name);
  body.put_blob({state.aggregator_state.data(), state.aggregator_state.size()});
  put_rng(body, state.cohort_rng);
  put_rng(body, state.failure_rng);
  put_rng(body, state.eligibility_rng);
  put_dicts(body, state.client_residuals);
  put_dicts(body, state.downlink_sessions);
  put_dicts(body, state.edge_residuals);

  ByteWriter out;
  out.reserve(body.size() + 16);
  out.put_u32(kCheckpointMagic);
  out.put_u8(kCheckpointVersion);
  out.put_u32(util::crc32(body.view()));
  out.put_varint(body.size());
  out.put_bytes(body.view());
  return out.finish();
}

CheckpointState parse_checkpoint(ByteSpan bytes) {
  ByteReader header(bytes);
  try {
    if (header.get_u32() != kCheckpointMagic)
      throw CorruptStream("checkpoint: bad magic");
    const std::uint8_t version = header.get_u8();
    if (version != kCheckpointVersion)
      throw CorruptStream("checkpoint: unsupported version " +
                          std::to_string(version));
    const std::uint32_t crc = header.get_u32();
    const std::uint64_t length = header.get_varint();
    if (length != header.remaining())
      throw CorruptStream("checkpoint: body length mismatch");
    const ByteSpan body = header.get_bytes(static_cast<std::size_t>(length));
    if (util::crc32(body) != crc)
      throw CorruptStream("checkpoint: body CRC mismatch");

    ByteReader in(body);
    CheckpointState state;
    state.completed_rounds = in.get_varint();
    state.virtual_now = in.get_f64();
    state.clock_next_seq = in.get_u64();
    state.config_fingerprint = in.get_u32();
    state.global_state = StateDict::deserialize(in.get_blob_view());
    state.aggregator_name = in.get_string();
    const ByteSpan agg = in.get_blob_view();
    state.aggregator_state.assign(agg.begin(), agg.end());
    state.cohort_rng = get_rng(in);
    state.failure_rng = get_rng(in);
    state.eligibility_rng = get_rng(in);
    state.client_residuals = get_dicts(in);
    state.downlink_sessions = get_dicts(in);
    state.edge_residuals = get_dicts(in);
    if (!in.done())
      throw CorruptStream("checkpoint: trailing bytes after the body");
    return state;
  } catch (const CorruptStream&) {
    throw;
  } catch (const std::exception& error) {
    // Truncation inside ByteReader and shape errors inside
    // StateDict::deserialize surface as one checkpoint-level failure.
    throw CorruptStream(std::string("checkpoint: ") + error.what());
  }
}

void write_checkpoint(const std::string& path, const CheckpointState& state) {
  const Bytes bytes = serialize_checkpoint(state);
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (!file)
    throw InvalidArgument("checkpoint: cannot open '" + tmp +
                          "': " + std::strerror(errno));
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), file);
  const bool flushed = std::fflush(file) == 0;
  std::fclose(file);
  if (written != bytes.size() || !flushed) {
    std::remove(tmp.c_str());
    throw InvalidArgument("checkpoint: short write to '" + tmp + "'");
  }
  // rename(2) is atomic within a filesystem: observers see the old file or
  // the new one, never a torn mix — the kill-anywhere guarantee.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw InvalidArgument("checkpoint: cannot rename '" + tmp + "' to '" +
                          path + "': " + std::strerror(errno));
  }
}

std::optional<CheckpointState> read_checkpoint(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (!file) return std::nullopt;
  Bytes bytes;
  std::uint8_t buffer[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0)
    bytes.insert(bytes.end(), buffer, buffer + got);
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error)
    throw InvalidArgument("checkpoint: read error on '" + path + "'");
  return parse_checkpoint({bytes.data(), bytes.size()});
}

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
  if (present > 1) throw CorruptStream("bad heterogeneous-config flag");
  if (present == 0) return std::nullopt;
  net::HeterogeneousNetworkConfig config;
  const std::uint8_t distribution = in.get_u8();
  if (distribution > static_cast<std::uint8_t>(net::LinkDistribution::kTwoTier))
    throw CorruptStream("unknown link distribution");
  config.distribution = static_cast<net::LinkDistribution>(distribution);
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

std::uint32_t run_fingerprint(const FlRunConfig& config,
                              const nn::ModelConfig& model) {
  ByteWriter out;
  out.put_u64(config.seed);
  out.put_varint(config.clients);
  out.put_f32(config.client.sgd.learning_rate);
  out.put_f32(config.client.sgd.momentum);
  out.put_f32(config.client.sgd.weight_decay);
  out.put_varint(config.client.batch_size);
  out.put_varint(static_cast<std::uint64_t>(config.client.local_epochs));
  put_profile(out, config.network);
  put_heterogeneous(out, config.heterogeneous);
  out.put_varint(config.eval_limit);
  out.put_u8(config.evaluate_every_round ? 1 : 0);
  out.put_f64(config.compute_seconds_per_sample);
  out.put_f64(config.compute_jitter);
  out.put_string(config.downlink_spec);
  out.put_u8(static_cast<std::uint8_t>(config.downlink_mode));
  out.put_u8(config.error_feedback ? 1 : 0);
  const TopologyConfig& t = config.topology;
  out.put_u8(static_cast<std::uint8_t>(t.mode));
  out.put_varint(t.tiers.size());
  for (const std::size_t fan : t.tiers) out.put_varint(fan);
  out.put_string(t.backhaul_spec);
  out.put_varint(t.tier_backhaul_specs.size());
  for (const std::string& spec : t.tier_backhaul_specs) out.put_string(spec);
  put_profile(out, t.backhaul_network);
  put_heterogeneous(out, t.backhaul_heterogeneous);
  out.put_u8(static_cast<std::uint8_t>(t.edge_mode));
  out.put_varint(t.edge_buffer);
  out.put_u8(t.edge_error_feedback ? 1 : 0);
  out.put_u8(static_cast<std::uint8_t>(t.sharding));
  out.put_u64(t.shard_seed);
  out.put_f64(config.failures.dropout_rate);
  out.put_f64(config.failures.edge_failure_rate);
  out.put_f64(config.failures.straggler_deadline_seconds);
  out.put_u64(config.failures.seed);
  const PopulationConfig& p = config.population;
  out.put_string(p.preset);
  out.put_varint(p.mix.size());
  for (const DeviceClassShare& share : p.mix) {
    out.put_string(share.name);
    out.put_f64(share.weight);
  }
  out.put_u8(static_cast<std::uint8_t>(p.availability));
  out.put_f64(p.flat_availability);
  out.put_f64(p.period_seconds);
  out.put_f64(p.phase_jitter);
  out.put_f64(p.dropout_rate);
  out.put_u64(p.seed);
  out.put_f64(config.dirichlet_alpha);
  out.put_f64(config.sizeskew_s);
  out.put_string(model.arch);
  out.put_varint(static_cast<std::uint64_t>(model.in_channels));
  out.put_varint(static_cast<std::uint64_t>(model.image_size));
  out.put_varint(static_cast<std::uint64_t>(model.num_classes));
  out.put_u8(static_cast<std::uint8_t>(model.scale));
  out.put_u64(model.seed);
  return util::crc32(out.view());
}

}  // namespace fedsz::core
