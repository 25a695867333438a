#include "core/baselines.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "core/fedsz.hpp"
#include "util/bitstream.hpp"
#include "util/bytebuffer.hpp"
#include "util/timer.hpp"

namespace fedsz::core {

namespace {

constexpr char kTopKMagic[4] = {'T', 'P', 'K', '1'};
constexpr char kQsgdMagic[4] = {'Q', 'S', 'G', '1'};

void write_magic(ByteWriter& w, const char magic[4]) {
  w.put_bytes({reinterpret_cast<const std::uint8_t*>(magic), 4});
}

void check_magic(ByteReader& r, const char magic[4], const char* codec) {
  ByteSpan seen = r.get_bytes(4);
  if (std::memcmp(seen.data(), magic, 4) != 0)
    throw CorruptStream(std::string(codec) + ": bad magic");
}

}  // namespace

// ---- Top-K sparsification ----

TopKCodec::TopKCodec(TopKConfig config) : config_(config) {
  if (!(config_.keep_fraction > 0.0) || config_.keep_fraction > 1.0)
    throw InvalidArgument("TopKCodec: keep_fraction must be in (0, 1]");
}

UpdateCodec::Encoded TopKCodec::encode(const StateDict& dict,
                                       const EncodeContext&) const {
  Timer timer;
  ByteWriter w;
  write_magic(w, kTopKMagic);
  StateDict dense_partition;  // sub-threshold tensors, shipped losslessly
  std::uint32_t n_sparse = 0;
  for (const auto& [name, tensor] : dict)
    if (is_lossy_entry(name, tensor.numel(), config_.lossy_threshold))
      ++n_sparse;
  w.put_u32(n_sparse);
  for (const auto& [name, tensor] : dict) {
    if (!is_lossy_entry(name, tensor.numel(), config_.lossy_threshold)) {
      dense_partition.set(name, tensor);
      continue;
    }
    const std::size_t n = tensor.numel();
    const auto keep = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(
               config_.keep_fraction * static_cast<double>(n))));
    // Partial-select the top-|keep| magnitudes.
    std::vector<std::uint32_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
      order[i] = static_cast<std::uint32_t>(i);
    std::nth_element(order.begin(), order.begin() + (keep - 1), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return std::fabs(tensor[a]) > std::fabs(tensor[b]);
                     });
    order.resize(keep);
    std::sort(order.begin(), order.end());  // delta-encodable indices

    write_entry_header(w, name, tensor.shape());
    w.put_varint(keep);
    std::uint32_t previous = 0;
    for (const std::uint32_t idx : order) {
      w.put_varint(idx - previous);  // delta encoding
      previous = idx;
    }
    for (const std::uint32_t idx : order) w.put_f32(tensor[idx]);
  }
  w.put_blob({});  // reserved
  const Bytes dense = dense_partition.serialize();
  w.put_blob({dense.data(), dense.size()});

  Encoded encoded;
  encoded.payload = w.finish();
  encoded.stats.original_bytes = dict.serialize().size();
  encoded.stats.compressed_bytes = encoded.payload.size();
  encoded.stats.compress_seconds = timer.seconds();
  return encoded;
}

StateDict TopKCodec::decode(ByteSpan payload, CompressionStats* stats) const {
  Timer timer;
  ByteReader r(payload);
  check_magic(r, kTopKMagic, "topk");
  const std::uint32_t n_sparse = r.get_u32();
  StateDict out;
  for (std::uint32_t t = 0; t < n_sparse; ++t) {
    const std::string name = r.get_string();
    Shape shape;
    const std::size_t numel = read_stream_shape(r, &shape, name);
    // The dense tensor stays within the container's decompression-bomb
    // floor, and each survivor takes at least a one-byte index delta and a
    // four-byte value.
    if (numel / lossy::kMaxElementsPerPayloadByte > payload.size())
      throw CorruptStream("topk: implausible element count for " + name);
    const std::uint64_t keep = r.get_varint();
    if (keep > numel || keep > r.remaining() / 5)
      throw CorruptStream("topk: survivor count out of range for " + name);
    Tensor tensor(shape);
    std::vector<std::uint32_t> indices(keep);
    std::uint32_t cursor = 0;
    for (auto& idx : indices) {
      cursor += static_cast<std::uint32_t>(r.get_varint());
      if (cursor >= tensor.numel())
        throw CorruptStream("topk: index out of range");
      idx = cursor;
    }
    for (const std::uint32_t idx : indices) tensor[idx] = r.get_f32();
    out.set(name, std::move(tensor));
  }
  (void)r.get_blob_view();  // reserved
  const ByteSpan dense = r.get_blob_view();
  if (!r.done()) throw CorruptStream("topk: trailing bytes");
  const StateDict dense_partition = StateDict::deserialize(dense);
  for (const auto& [name, tensor] : dense_partition) out.set(name, tensor);
  if (stats) {
    *stats = CompressionStats{};
    stats->compressed_bytes = payload.size();
    stats->original_bytes = out.total_bytes();
    stats->decompress_seconds = timer.seconds();
  }
  return out;
}

// ---- QSGD-style stochastic quantization ----

QsgdCodec::QsgdCodec(QsgdConfig config) : config_(config) {
  if (config_.levels < 2 || config_.levels > 65535)
    throw InvalidArgument("QsgdCodec: levels must be in [2, 65535]");
}

UpdateCodec::Encoded QsgdCodec::encode(const StateDict& dict,
                                       const EncodeContext&) const {
  Timer timer;
  Rng rng(config_.seed);
  ByteWriter w;
  write_magic(w, kQsgdMagic);
  w.put_u16(static_cast<std::uint16_t>(config_.levels));
  StateDict dense_partition;
  std::uint32_t n_quantized = 0;
  for (const auto& [name, tensor] : dict)
    if (is_lossy_entry(name, tensor.numel(), config_.lossy_threshold))
      ++n_quantized;
  w.put_u32(n_quantized);
  for (const auto& [name, tensor] : dict) {
    if (!is_lossy_entry(name, tensor.numel(), config_.lossy_threshold)) {
      dense_partition.set(name, tensor);
      continue;
    }
    float max_abs = 0.0f;
    for (std::size_t i = 0; i < tensor.numel(); ++i)
      max_abs = std::max(max_abs, std::fabs(tensor[i]));
    write_entry_header(w, name, tensor.shape());
    w.put_f32(max_abs);
    // Stochastic rounding of |x|/max to `levels` buckets keeps the
    // estimator unbiased (Alistarh et al. 2017); sign packs with the level.
    const double scale = max_abs > 0.0f ? config_.levels / max_abs : 0.0;
    BitWriter bits;
    const unsigned level_bits = std::bit_width(config_.levels);
    for (std::size_t i = 0; i < tensor.numel(); ++i) {
      const float v = tensor[i];
      const double exact = std::fabs(v) * scale;
      auto level = static_cast<std::uint32_t>(exact);
      if (rng.uniform() < exact - static_cast<double>(level)) ++level;
      bits.write_bit(v < 0.0f);
      bits.write(level, level_bits);
    }
    w.put_blob(bits.finish());
  }
  const Bytes dense = dense_partition.serialize();
  w.put_blob({dense.data(), dense.size()});

  Encoded encoded;
  encoded.payload = w.finish();
  encoded.stats.original_bytes = dict.serialize().size();
  encoded.stats.compressed_bytes = encoded.payload.size();
  encoded.stats.compress_seconds = timer.seconds();
  return encoded;
}

StateDict QsgdCodec::decode(ByteSpan payload, CompressionStats* stats) const {
  Timer timer;
  ByteReader r(payload);
  check_magic(r, kQsgdMagic, "qsgd");
  const unsigned levels = r.get_u16();
  if (levels < 2) throw CorruptStream("qsgd: bad level count");
  const std::uint32_t n_quantized = r.get_u32();
  const unsigned level_bits = std::bit_width(levels);
  StateDict out;
  for (std::uint32_t t = 0; t < n_quantized; ++t) {
    const std::string name = r.get_string();
    Shape shape;
    const std::size_t numel = read_stream_shape(r, &shape, name);
    const float max_abs = r.get_f32();
    const ByteSpan packed = r.get_blob_view();
    // Every element packs a sign bit and a level_bits-wide level.
    if (numel > packed.size() * 8 / (1 + level_bits))
      throw CorruptStream("qsgd: tensor larger than its packed levels for " +
                          name);
    BitReader bits(packed);
    Tensor tensor(shape);
    const float step = levels > 0 ? max_abs / static_cast<float>(levels)
                                  : 0.0f;
    for (std::size_t i = 0; i < tensor.numel(); ++i) {
      const bool negative = bits.read_bit();
      const auto level = static_cast<float>(bits.read(level_bits));
      tensor[i] = (negative ? -1.0f : 1.0f) * level * step;
    }
    out.set(name, std::move(tensor));
  }
  const ByteSpan dense = r.get_blob_view();
  if (!r.done()) throw CorruptStream("qsgd: trailing bytes");
  const StateDict dense_partition = StateDict::deserialize(dense);
  for (const auto& [name, tensor] : dense_partition) out.set(name, tensor);
  if (stats) {
    *stats = CompressionStats{};
    stats->compressed_bytes = payload.size();
    stats->original_bytes = out.total_bytes();
    stats->decompress_seconds = timer.seconds();
  }
  return out;
}

// ---- composition ----

ComposedCodec::ComposedCodec(UpdateCodecPtr first, UpdateCodecPtr second)
    : first_(std::move(first)), second_(std::move(second)) {
  if (!first_ || !second_)
    throw InvalidArgument("ComposedCodec: null stage");
}

std::string ComposedCodec::name() const {
  return first_->name() + "+" + second_->name();
}

UpdateCodec::Encoded ComposedCodec::encode(const StateDict& dict,
                                           const EncodeContext& ctx) const {
  Timer timer;
  Encoded first_pass = first_->encode(dict, ctx);
  const StateDict intermediate = first_->decode(
      {first_pass.payload.data(), first_pass.payload.size()});
  Encoded second_pass = second_->encode(intermediate, ctx);
  Encoded encoded;
  encoded.payload = std::move(second_pass.payload);
  encoded.stats.original_bytes = first_pass.stats.original_bytes;
  encoded.stats.compressed_bytes = encoded.payload.size();
  encoded.stats.compress_seconds = timer.seconds();
  return encoded;
}

StateDict ComposedCodec::decode(ByteSpan payload,
                                CompressionStats* stats) const {
  return second_->decode(payload, stats);
}

UpdateCodecPtr make_topk_codec(TopKConfig config) {
  return std::make_shared<TopKCodec>(config);
}

UpdateCodecPtr make_qsgd_codec(QsgdConfig config) {
  return std::make_shared<QsgdCodec>(config);
}

UpdateCodecPtr make_composed_codec(UpdateCodecPtr first,
                                   UpdateCodecPtr second) {
  return std::make_shared<ComposedCodec>(std::move(first), std::move(second));
}

}  // namespace fedsz::core
