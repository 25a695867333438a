// ZFP analogue (Lindstrom 2014, transform-based model): 4-sample 1-D blocks
// are aligned to a per-block common exponent, converted to 30-bit fixed
// point, run through ZFP's orthogonal lifting transform, mapped to
// negabinary, and bit-plane coded most-significant plane first with a
// group-significance bit per plane. Rate control is fixed-precision (keep the
// top `precision` bit planes per block) — the mode the paper selects because
// ZFP has no REL bound (Section V-D1); the requested relative bound is mapped
// to an equivalent precision, so the bound is calibrated, not guaranteed
// (strictly_bounded() == false).
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "compress/lossy/lossy.hpp"
#include "util/bitstream.hpp"
#include "util/bytebuffer.hpp"
#include "util/stats.hpp"

namespace fedsz::lossy {

namespace {

constexpr std::size_t kBlockSize = 4;
constexpr std::uint32_t kNegabinaryMask = 0xAAAAAAAAu;
constexpr int kFixedPointBits = 30;
constexpr std::uint8_t kEmptyBlockExponent = 0;  // biased-exponent sentinel

// Modular add/sub: the lifting transform works in Z/2^32 by design (extreme
// fixed-point coefficients wrap), so spell the wraparound out in unsigned
// arithmetic instead of overflowing signed ints.
inline std::int32_t wrap_add(std::int32_t a, std::int32_t b) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) +
                                   static_cast<std::uint32_t>(b));
}

inline std::int32_t wrap_sub(std::int32_t a, std::int32_t b) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) -
                                   static_cast<std::uint32_t>(b));
}

// ZFP's 1-D forward/inverse lifting transform (nearly-orthogonal; the integer
// shifts make it approximately invertible, exact in the retained planes).
void forward_lift(std::int32_t* p) {
  std::int32_t x = p[0], y = p[1], z = p[2], w = p[3];
  x = wrap_add(x, w); x >>= 1; w = wrap_sub(w, x);
  z = wrap_add(z, y); z >>= 1; y = wrap_sub(y, z);
  x = wrap_add(x, z); x >>= 1; z = wrap_sub(z, x);
  w = wrap_add(w, y); w >>= 1; y = wrap_sub(y, w);
  w = wrap_add(w, y >> 1); y = wrap_sub(y, w >> 1);
  p[0] = x; p[1] = y; p[2] = z; p[3] = w;
}

void inverse_lift(std::int32_t* p) {
  std::int32_t x = p[0], y = p[1], z = p[2], w = p[3];
  y = wrap_add(y, w >> 1); w = wrap_sub(w, y >> 1);
  y = wrap_add(y, w); w = wrap_add(w, w); w = wrap_sub(w, y);
  z = wrap_add(z, x); x = wrap_add(x, x); x = wrap_sub(x, z);
  y = wrap_add(y, z); z = wrap_add(z, z); z = wrap_sub(z, y);
  w = wrap_add(w, x); x = wrap_add(x, x); x = wrap_sub(x, w);
  p[0] = x; p[1] = y; p[2] = z; p[3] = w;
}

std::uint32_t int_to_negabinary(std::int32_t v) {
  return (static_cast<std::uint32_t>(v) + kNegabinaryMask) ^ kNegabinaryMask;
}

std::int32_t negabinary_to_int(std::uint32_t v) {
  return static_cast<std::int32_t>((v ^ kNegabinaryMask) - kNegabinaryMask);
}

class ZfpCodec final : public LossyCodec {
 public:
  LossyId id() const override { return LossyId::kZfp; }
  std::string name() const override { return "zfp"; }
  bool strictly_bounded() const override { return false; }

  /// Fixed-precision equivalent of a relative bound: truncating below plane
  /// 32-p leaves error ~2^(3-p) of the block's dynamic range.
  static unsigned precision_for(double relative_bound) {
    const double log_term = std::log2(1.0 / relative_bound);
    const int p = static_cast<int>(std::ceil(log_term)) + 3;
    return static_cast<unsigned>(std::clamp(p, 4, 32));
  }

 private:
  // A wanted reconstruction is decoded from the fresh stream.
  void encode(FloatSpan data, const ErrorBound& bound, Bytes& out,
              std::span<float> reconstruction) const override {
    require_finite(data, name());
    bound.validate();
    double rel = bound.value;
    if (bound.mode == BoundMode::kAbsolute) {
      const auto s = stats::summarize(data);
      // Degenerate ranges (constant or single-element input) fall back to
      // the magnitude scale so the precision mapping stays meaningful.
      double scale = s.range();
      if (scale <= 0.0) scale = std::max(std::fabs(s.min), std::fabs(s.max));
      rel = scale > 0.0 ? bound.value / scale : 1.0;
    }
    const unsigned precision = precision_for(rel);

    ByteWriter w;
    w.put_varint(data.size());
    w.put_u8(static_cast<std::uint8_t>(precision));
    if (data.empty()) {
      out = w.finish();
      return;
    }

    BitWriter bw;
    const std::size_t n_blocks = (data.size() + kBlockSize - 1) / kBlockSize;
    for (std::size_t b = 0; b < n_blocks; ++b) {
      const std::size_t begin = b * kBlockSize;
      const std::size_t len = std::min(kBlockSize, data.size() - begin);
      float block[kBlockSize];
      for (std::size_t i = 0; i < kBlockSize; ++i)
        block[i] = data[begin + std::min(i, len - 1)];  // pad tail blocks

      float max_abs = 0.0f;
      for (const float v : block) max_abs = std::max(max_abs, std::fabs(v));
      if (max_abs == 0.0f) {
        bw.write(kEmptyBlockExponent, 8);
        continue;
      }
      int emax;
      std::frexp(max_abs, &emax);  // max_abs in [2^(emax-1), 2^emax)
      const int biased = std::clamp(emax + 128, 1, 255);
      bw.write(static_cast<std::uint32_t>(biased), 8);
      emax = biased - 128;

      std::int32_t q[kBlockSize];
      for (std::size_t i = 0; i < kBlockSize; ++i)
        q[i] = static_cast<std::int32_t>(
            std::lround(std::ldexp(static_cast<double>(block[i]),
                                   kFixedPointBits - emax)));
      forward_lift(q);
      std::uint32_t nb[kBlockSize];
      for (std::size_t i = 0; i < kBlockSize; ++i)
        nb[i] = int_to_negabinary(q[i]);

      // Bit-plane coding, MSB first, with a per-plane group-significance bit.
      bool significant[kBlockSize] = {false, false, false, false};
      unsigned n_sig = 0;
      for (unsigned plane = 0; plane < precision; ++plane) {
        const unsigned bit_index = 31 - plane;
        for (std::size_t i = 0; i < kBlockSize; ++i)
          if (significant[i]) bw.write_bit((nb[i] >> bit_index) & 1u);
        if (n_sig == kBlockSize) continue;
        bool any_new = false;
        for (std::size_t i = 0; i < kBlockSize; ++i)
          if (!significant[i] && ((nb[i] >> bit_index) & 1u)) any_new = true;
        bw.write_bit(any_new);
        if (!any_new) continue;
        for (std::size_t i = 0; i < kBlockSize; ++i) {
          if (significant[i]) continue;
          const bool bit = (nb[i] >> bit_index) & 1u;
          bw.write_bit(bit);
          if (bit) {
            significant[i] = true;
            ++n_sig;
          }
        }
      }
    }
    w.put_bytes({bw.finish()});
    out = w.finish();
    if (!reconstruction.empty())
      decode({out.data(), out.size()}, DecodeTarget(reconstruction));
  }

  void decode(ByteSpan stream, const DecodeTarget& target) const override {
    ByteReader r(stream);
    const auto n = static_cast<std::size_t>(r.get_varint());
    const unsigned precision = r.get_u8();
    if (n == 0) {
      if (!r.done()) throw CorruptStream("zfp: trailing bytes");
      target.claim(0, "zfp");
      return;
    }
    if (precision < 1 || precision > 32)
      throw CorruptStream("zfp: invalid precision");

    ByteSpan payload = r.get_bytes(r.remaining());
    // Every block starts with an 8-bit exponent, so a corrupt element count
    // is rejected before the destination is sized.
    if (n > kBlockSize * payload.size())
      throw CorruptStream("zfp: element count exceeds stream");
    const std::size_t n_blocks = (n + kBlockSize - 1) / kBlockSize;
    float* out = target.claim(n, "zfp").data();
    BitReader br(payload);
    for (std::size_t b = 0; b < n_blocks; ++b) {
      const std::size_t begin = b * kBlockSize;
      const std::size_t len = std::min(kBlockSize, n - begin);
      const auto biased = static_cast<std::uint32_t>(br.read(8));
      if (biased == kEmptyBlockExponent) {
        std::fill_n(out + begin, len, 0.0f);
        continue;
      }
      const int emax = static_cast<int>(biased) - 128;
      std::uint32_t nb[kBlockSize] = {0, 0, 0, 0};
      bool significant[kBlockSize] = {false, false, false, false};
      unsigned n_sig = 0;
      for (unsigned plane = 0; plane < precision; ++plane) {
        const unsigned bit_index = 31 - plane;
        for (std::size_t i = 0; i < kBlockSize; ++i)
          if (significant[i] && br.read_bit())
            nb[i] |= (1u << bit_index);
        if (n_sig == kBlockSize) continue;
        if (!br.read_bit()) continue;
        for (std::size_t i = 0; i < kBlockSize; ++i) {
          if (significant[i]) continue;
          if (br.read_bit()) {
            nb[i] |= (1u << bit_index);
            significant[i] = true;
            ++n_sig;
          }
        }
      }
      std::int32_t q[kBlockSize];
      for (std::size_t i = 0; i < kBlockSize; ++i)
        q[i] = negabinary_to_int(nb[i]);
      inverse_lift(q);
      for (std::size_t i = 0; i < len; ++i)
        out[begin + i] = static_cast<float>(
            std::ldexp(static_cast<double>(q[i]), emax - kFixedPointBits));
    }
    // The encoder pads only the last byte, so the bits must end in it.
    if (br.bits_left() >= 8) throw CorruptStream("zfp: trailing bytes");
  }
};

}  // namespace

const LossyCodec& zfp_codec_instance() {
  static const ZfpCodec codec;
  return codec;
}

}  // namespace fedsz::lossy
