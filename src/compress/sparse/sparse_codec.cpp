#include "compress/sparse/sparse_codec.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>

#include "compress/lossy/lossy.hpp"
#include "util/bitstream.hpp"
#include "util/bytebuffer.hpp"

namespace fedsz::sparse {

namespace {

/// Per-thread working storage: reset, never freed, so steady-state encodes
/// perform no heap allocation (the ZstdScratch pattern).
struct SparseScratch {
  std::vector<float> mags;           // |x| copy for the top-k selection
  std::vector<std::uint32_t> indices;
  std::vector<float> values;         // gathered survivors, encode order
  std::vector<std::uint32_t> codes;  // quantized survivors
  BitWriter bits;                    // packed survivor codes
  Bytes compressed;                  // lossless-compressed survivor stream
  ByteWriter frame;
};

SparseScratch& t_scratch() {
  static thread_local SparseScratch scratch;
  return scratch;
}

std::size_t varint_len(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Survivor selection into `indices` (ascending). sparsity = 0 uses the
/// adaptive mean + stddev magnitude threshold; an explicit fraction keeps
/// the top (1 - sparsity) * numel magnitudes with deterministic index-order
/// tie-breaking, so the mask is a pure function of the tensor.
void select_survivors(FloatSpan data, double sparsity, SparseScratch& s) {
  s.indices.clear();
  const std::size_t n = data.size();
  if (n == 0) return;
  if (sparsity <= 0.0) {
    double sum = 0.0, sum_sq = 0.0;
    for (const float v : data) {
      const double m = std::fabs(static_cast<double>(v));
      sum += m;
      sum_sq += m * m;
    }
    const double mean = sum / static_cast<double>(n);
    const double var =
        std::max(0.0, sum_sq / static_cast<double>(n) - mean * mean);
    const double tau = mean + std::sqrt(var);
    for (std::size_t i = 0; i < n; ++i)
      if (std::fabs(static_cast<double>(data[i])) > tau)
        s.indices.push_back(static_cast<std::uint32_t>(i));
    return;
  }
  std::size_t k = static_cast<std::size_t>(
      std::llround((1.0 - sparsity) * static_cast<double>(n)));
  k = std::clamp<std::size_t>(k, 1, n);
  s.mags.resize(n);
  for (std::size_t i = 0; i < n; ++i) s.mags[i] = std::fabs(data[i]);
  std::nth_element(s.mags.begin(), s.mags.begin() + (k - 1), s.mags.end(),
                   std::greater<float>());
  const float tau = s.mags[k - 1];  // k-th largest magnitude
  for (std::size_t i = 0; i < n && s.indices.size() < k; ++i)
    if (std::fabs(data[i]) > tau)
      s.indices.push_back(static_cast<std::uint32_t>(i));
  for (std::size_t i = 0; i < n && s.indices.size() < k; ++i)
    if (std::fabs(data[i]) == tau)
      s.indices.push_back(static_cast<std::uint32_t>(i));
  std::sort(s.indices.begin(), s.indices.end());
}

}  // namespace

void SparseParams::validate() const {
  if (!std::isfinite(sparsity) || sparsity < 0.0 || sparsity >= 1.0)
    throw InvalidArgument("sparse: sparsity must be in [0, 1)");
  if (bits > 31)
    throw InvalidArgument("sparse: bits must be 0 (adaptive) or 1..31");
}

SparseEncodeInfo SparseQuantCodec::compress_into(
    FloatSpan data, double eps, const SparseParams& params,
    const lossless::LosslessCodec& survivors, Bytes& out,
    std::span<float> reconstruction) const {
  params.validate();
  if (!(std::isfinite(eps)) || eps <= 0.0)
    throw InvalidArgument("sparse: error bound must be positive and finite");
  if (data.size() > std::numeric_limits<std::uint32_t>::max())
    throw InvalidArgument("sparse: tensor too large for the sparse path");
  if (!reconstruction.empty() && reconstruction.size() != data.size())
    throw InvalidArgument("sparse: reconstruction size differs from input");
  lossy::require_finite(data, name());

  SparseScratch& s = t_scratch();
  const std::size_t n = data.size();
  select_survivors(data, params.sparsity, s);
  const std::size_t kept = s.indices.size();

  s.values.resize(kept);
  for (std::size_t j = 0; j < kept; ++j) s.values[j] = data[s.indices[j]];

  // Quantize survivors: step = 2 * eps keeps |decoded - original| <= eps;
  // an explicit bits= cap can only shrink the step further. Pathological
  // ranges (code space past 2^31) fall back to verbatim f32 survivors.
  float lo = 0.0f;
  double step = 0.0;
  unsigned bits_tag = 0;
  s.bits.reset();  // kept == 0 must emit an empty stream, not stale bits
  if (kept > 0) {
    const auto [lo_it, hi_it] = std::minmax_element(s.values.begin(),
                                                    s.values.end());
    lo = *lo_it;
    const double range = static_cast<double>(*hi_it) - static_cast<double>(lo);
    step = 2.0 * eps;
    if (params.bits >= 1 && range > 0.0) {
      const double cap_step =
          range / static_cast<double>((std::uint32_t{1} << params.bits) - 1);
      step = std::min(step, cap_step);
    }
    const double needed = range / step;
    if (!(needed < 2147483646.0)) {
      bits_tag = 32;  // verbatim f32 survivors
    } else {
      s.codes.resize(kept);
      std::uint32_t max_code = 0;
      for (std::size_t j = 0; j < kept; ++j) {
        const double delta = static_cast<double>(s.values[j]) -
                             static_cast<double>(lo);
        const std::uint32_t code =
            static_cast<std::uint32_t>(std::llround(delta / step));
        s.codes[j] = code;
        max_code = std::max(max_code, code);
      }
      bits_tag = static_cast<unsigned>(std::bit_width(max_code));
      for (std::size_t j = 0; j < kept; ++j)
        s.bits.write(s.codes[j], bits_tag);
    }
  }

  ByteSpan packed;
  if (bits_tag == 32) {
    packed = ByteSpan{reinterpret_cast<const std::uint8_t*>(s.values.data()),
                      kept * sizeof(float)};
  } else {
    packed = s.bits.finish_view();
  }
  survivors.compress_into(packed, s.compressed);

  // Mask encoding: delta-varint indices when strictly smaller than the
  // bitmap AND the resulting payload still clears the decompression-bomb
  // floor; the bitmap (numel / 8 bytes) always clears it.
  const std::size_t bitmap_bytes = (n + 7) / 8;
  std::size_t index_bytes = 0;
  for (std::size_t j = 0; j < kept; ++j)
    index_bytes += varint_len(j == 0 ? s.indices[j]
                                     : s.indices[j] - s.indices[j - 1]);
  const std::size_t fixed_bytes =
      varint_len(n) + sizeof(double) + varint_len(kept) + 2 +
      (kept > 0 && bits_tag < 32 ? sizeof(float) + sizeof(double) : 0) + 1 +
      varint_len(packed.size()) + varint_len(s.compressed.size()) +
      s.compressed.size();
  const bool use_indices =
      kept > 0 && index_bytes < bitmap_bytes &&
      n / lossy::kMaxElementsPerPayloadByte <= fixed_bytes + index_bytes;

  ByteWriter& w = s.frame;
  w.reset();
  w.put_varint(n);
  w.put_f64(eps);
  w.put_varint(kept);
  w.put_u8(use_indices ? 1 : 0);
  w.put_u8(static_cast<std::uint8_t>(bits_tag));
  if (kept > 0 && bits_tag < 32) {
    w.put_f32(lo);
    w.put_f64(step);
  }
  if (use_indices) {
    for (std::size_t j = 0; j < kept; ++j)
      w.put_varint(j == 0 ? s.indices[j] : s.indices[j] - s.indices[j - 1]);
  } else {
    std::size_t cursor = 0;
    for (std::size_t byte = 0; byte < bitmap_bytes; ++byte) {
      std::uint8_t m = 0;
      while (cursor < kept && s.indices[cursor] / 8 == byte) {
        m |= static_cast<std::uint8_t>(1u << (s.indices[cursor] % 8));
        ++cursor;
      }
      w.put_u8(m);
    }
  }
  w.put_u8(static_cast<std::uint8_t>(survivors.id()));
  w.put_varint(packed.size());
  w.put_blob({s.compressed.data(), s.compressed.size()});

  const ByteSpan frame = w.view();
  out.assign(frame.begin(), frame.end());

  // The decoder's values, from its own expressions on what it reads back:
  // f32 lo widened to double, the f64 step, and each code.
  if (!reconstruction.empty()) {
    std::fill(reconstruction.begin(), reconstruction.end(), 0.0f);
    for (std::size_t j = 0; j < kept; ++j) {
      float value = s.values[j];  // bits_tag 32: verbatim survivors
      if (bits_tag == 0)
        value = lo;
      else if (bits_tag < 32)
        value = static_cast<float>(static_cast<double>(lo) +
                                   static_cast<double>(s.codes[j]) * step);
      reconstruction[s.indices[j]] = value;
    }
  }
  return SparseEncodeInfo{kept};
}

std::vector<float> SparseQuantCodec::decompress(ByteSpan payload) const {
  ByteReader r(payload);
  const std::uint64_t numel = r.get_varint();
  const double eps = r.get_f64();
  if (!std::isfinite(eps) || eps <= 0.0)
    throw CorruptStream("sparse: bad error bound");
  const std::uint64_t kept = r.get_varint();
  if (kept > numel)
    throw CorruptStream("sparse: survivor count exceeds element count");
  if (numel / lossy::kMaxElementsPerPayloadByte > payload.size())
    throw CorruptStream("sparse: implausible element count for payload size");
  const std::uint8_t mask_tag = r.get_u8();
  if (mask_tag > 1) throw CorruptStream("sparse: unknown mask encoding");
  const unsigned bits = r.get_u8();
  if (bits > 32) throw CorruptStream("sparse: bad survivor bit width");
  double lo = 0.0;
  double step = 0.0;
  if (kept > 0 && bits < 32) {
    lo = static_cast<double>(r.get_f32());
    step = r.get_f64();
    if (!std::isfinite(lo) || !std::isfinite(step) || step < 0.0)
      throw CorruptStream("sparse: bad quantization parameters");
  }

  std::vector<float> out;
  std::vector<std::uint32_t> indices;
  try {
    out.assign(numel, 0.0f);
    indices.reserve(kept);
  } catch (const std::bad_alloc&) {
    throw CorruptStream("sparse: tensor too large");
  }

  if (mask_tag == 0) {
    const ByteSpan mask = r.get_bytes((numel + 7) / 8);
    for (std::size_t byte = 0; byte < mask.size(); ++byte) {
      std::uint8_t m = mask[byte];
      while (m != 0) {
        const std::uint64_t idx =
            byte * 8 + static_cast<unsigned>(std::countr_zero(m));
        if (idx >= numel)
          throw CorruptStream("sparse: mask bit past tensor end");
        indices.push_back(static_cast<std::uint32_t>(idx));
        m &= static_cast<std::uint8_t>(m - 1);
      }
    }
    if (indices.size() != kept)
      throw CorruptStream("sparse: mask population != survivor count");
  } else {
    std::uint64_t idx = 0;
    for (std::uint64_t j = 0; j < kept; ++j) {
      const std::uint64_t delta = r.get_varint();
      if (j > 0 && delta == 0)
        throw CorruptStream("sparse: non-increasing survivor index");
      idx = j == 0 ? delta : idx + delta;
      if (idx >= numel)
        throw CorruptStream("sparse: survivor index out of range");
      indices.push_back(static_cast<std::uint32_t>(idx));
    }
  }

  const std::uint8_t lossless_raw = r.get_u8();
  if (!lossless::is_lossless_id(lossless_raw))
    throw CorruptStream("sparse: unknown lossless id");
  const std::uint64_t packed_len = r.get_varint();
  const std::uint64_t expected_len =
      bits == 32 ? kept * sizeof(float)
                 : bits == 0 ? 0 : (kept * bits + 7) / 8;
  if (packed_len != expected_len)
    throw CorruptStream("sparse: packed stream length mismatch");
  const ByteSpan comp = r.get_blob_view();
  if (!r.done()) throw CorruptStream("sparse: trailing bytes");
  const Bytes packed =
      lossless::lossless_codec(static_cast<lossless::LosslessId>(lossless_raw))
          .decompress(comp);
  if (packed.size() != packed_len)
    throw CorruptStream("sparse: survivor stream size mismatch");

  if (bits == 32) {
    for (std::size_t j = 0; j < kept; ++j) {
      float v = 0.0f;
      std::memcpy(&v, packed.data() + j * sizeof(float), sizeof(float));
      out[indices[j]] = v;
    }
  } else if (bits == 0) {
    for (const std::uint32_t idx : indices)
      out[idx] = static_cast<float>(lo);
  } else {
    BitReader br({packed.data(), packed.size()});
    for (std::size_t j = 0; j < kept; ++j) {
      const std::uint64_t code = br.read(bits);
      out[indices[j]] =
          static_cast<float>(lo + static_cast<double>(code) * step);
    }
  }
  return out;
}

const SparseQuantCodec& sparse_codec() {
  static const SparseQuantCodec instance;
  return instance;
}

}  // namespace fedsz::sparse
