// SZ3 analogue (Liang et al. 2023 / Zhao et al. 2021): multi-level spline
// interpolation prediction. Index 0 is seeded, then strides halve from the
// largest power of two; each point at an odd multiple of the stride is
// predicted from already-reconstructed neighbors (cubic 4-point spline when
// both outer neighbors exist, else linear, else previous). No per-block
// coefficients are stored — SZ3's key advantage over SZ2 at high error
// bounds — at the cost of a more expensive traversal. Residuals share the
// SZ2 quantizer/Huffman/LZ back end.
//
// The traversal is laid out as explicit per-level loops: within one stride
// the first point is never cubic (no far-left neighbor), every interior
// point while i + 3*stride < n is always cubic, and at most two tail points
// fall back to linear/previous — so the boundary checks run per level, not
// per element, and the cubic inner loop is branchless on geometry.
#include <bit>
#include <cmath>
#include <cstring>

#include "compress/lossless/huffman.hpp"
#include "compress/lossless/lossless.hpp"
#include "compress/lossy/arena.hpp"
#include "compress/lossy/lossy.hpp"
#include "compress/lossy/quantizer.hpp"

namespace fedsz::lossy {

namespace {

class Sz3Codec final : public LossyCodec {
 public:
  LossyId id() const override { return LossyId::kSz3; }
  std::string name() const override { return "sz3"; }
  bool strictly_bounded() const override { return true; }

 private:
  void encode(FloatSpan data, const ErrorBound& bound, Bytes& out,
              std::span<float> reconstruction) const override {
    require_finite(data, name());
    const double eps = bound.absolute_for(data);
    EncodeArena& arena = EncodeArena::local();
    const lossless::LosslessCodec& backend =
        lossless::lossless_codec(lossless::LosslessId::kZstd);

    ByteWriter& body = arena.body;
    body.reset();
    body.put_varint(data.size());
    body.put_f64(eps);
    if (data.empty()) {
      backend.compress_into(body.view(), out);
      return;
    }

    const LinearQuantizer quantizer(eps);
    const std::size_t n = data.size();
    // Codes are emitted in traversal order (seed, then level order).
    arena.codes.resize(n);
    arena.verbatim.clear();
    // The traversal predicts from reconstructed values, so it keeps them
    // all; a wanted reconstruction is that buffer.
    float* recon = reconstruction.data();
    if (reconstruction.empty()) {
      arena.recon.resize(n);
      recon = arena.recon.data();
    }
    std::uint32_t* codes = arena.codes.data();
    std::size_t pos = 0;

    const auto encode_point = [&](std::size_t i, double pred) {
      const double residual = static_cast<double>(data[i]) - pred;
      const std::uint32_t code = quantizer.quantize(residual);
      codes[pos++] = code;
      if (code == LinearQuantizer::kUnpredictable) {
        arena.verbatim.push_back(data[i]);
        recon[i] = data[i];
      } else {
        recon[i] = static_cast<float>(pred + quantizer.reconstruct(code));
      }
    };

    encode_point(0, 0.0);
    if (n >= 2) {
      for (std::size_t stride = std::bit_floor(n - 1); stride >= 1;
           stride /= 2) {
        // First point of the level (i = stride < 3*stride): never cubic.
        std::size_t i = stride;
        if (i + stride < n) {
          encode_point(i, 0.5 * (static_cast<double>(recon[i - stride]) +
                                 recon[i + stride]));
        } else {
          encode_point(i, recon[i - stride]);
        }
        // Interior points: all four neighbors exist, always cubic.
        for (i += 2 * stride; i + 3 * stride < n; i += 2 * stride) {
          const double pred = (-static_cast<double>(recon[i - 3 * stride]) +
                               9.0 * recon[i - stride] +
                               9.0 * recon[i + stride] -
                               static_cast<double>(recon[i + 3 * stride])) /
                              16.0;
          encode_point(i, pred);
        }
        // At most two tail points: linear when the right neighbor exists.
        for (; i < n; i += 2 * stride) {
          if (i + stride < n) {
            encode_point(i, 0.5 * (static_cast<double>(recon[i - stride]) +
                                   recon[i + stride]));
          } else {
            encode_point(i, recon[i - stride]);
          }
        }
        if (stride == 1) break;
      }
    }

    arena.entropy.reset();
    lossless::huffman_encode(arena.codes, arena.entropy, arena.bits,
                             arena.huff);
    body.put_blob(arena.entropy.view());
    body.put_varint(arena.verbatim.size());
    body.put_bytes(as_bytes({arena.verbatim.data(), arena.verbatim.size()}));
    backend.compress_into(body.view(), out);
  }

  void decode(ByteSpan stream, const DecodeTarget& target) const override {
    const Bytes body = lossless::lossless_codec(lossless::LosslessId::kZstd)
                           .decompress(stream);
    ByteReader r({body.data(), body.size()});
    const auto n = static_cast<std::size_t>(r.get_varint());
    const double eps = r.get_f64();
    if (n == 0) {
      if (!r.done()) throw CorruptStream("sz3: trailing bytes");
      target.claim(0, "sz3");
      return;
    }

    const LinearQuantizer quantizer(eps);
    EncodeArena& arena = EncodeArena::local();
    const ByteSpan huffman = r.get_blob_view();
    lossless::huffman_decode(huffman, arena.codes);
    if (arena.codes.size() != n) throw CorruptStream("sz3: code count mismatch");
    // Validate every entropy-decoded code up front, and count the verbatim
    // values they call for: the loop below neither range-checks nor bounds
    // the verbatim cursor.
    const std::size_t n_unpredictable =
        quantizer.count_unpredictable(arena.codes, "sz3");
    const auto n_verbatim = static_cast<std::size_t>(r.get_varint());
    // Guard the multiply below: a corrupt count can wrap n_verbatim * 4 to
    // a small value and request an absurd allocation.
    if (n_verbatim > r.remaining() / sizeof(float))
      throw CorruptStream("sz3: verbatim count exceeds stream");
    ByteSpan raw = r.get_bytes(n_verbatim * sizeof(float));
    if (!r.done()) throw CorruptStream("sz3: trailing bytes");
    if (n_verbatim != n_unpredictable)
      throw CorruptStream("sz3: verbatim count differs from the "
                          "unpredictable codes");
    arena.verbatim.resize(n_verbatim);
    if (n_verbatim > 0)
      std::memcpy(arena.verbatim.data(), raw.data(), raw.size());

    // Every prediction reads only points decoded at a coarser level, so
    // the destination's prior contents never matter.
    float* recon = target.claim(n, "sz3").data();
    const std::uint32_t* codes = arena.codes.data();
    std::size_t next_code = 0, next_verbatim = 0;
    const auto decode_point = [&](std::size_t i, double pred) {
      const std::uint32_t code = codes[next_code++];
      if (code == LinearQuantizer::kUnpredictable) {
        recon[i] = arena.verbatim[next_verbatim++];
      } else {
        recon[i] = static_cast<float>(pred + quantizer.reconstruct(code));
      }
    };

    decode_point(0, 0.0);
    if (n >= 2) {
      for (std::size_t stride = std::bit_floor(n - 1); stride >= 1;
           stride /= 2) {
        std::size_t i = stride;
        if (i + stride < n) {
          decode_point(i, 0.5 * (static_cast<double>(recon[i - stride]) +
                                 recon[i + stride]));
        } else {
          decode_point(i, recon[i - stride]);
        }
        for (i += 2 * stride; i + 3 * stride < n; i += 2 * stride) {
          const double pred = (-static_cast<double>(recon[i - 3 * stride]) +
                               9.0 * recon[i - stride] +
                               9.0 * recon[i + stride] -
                               static_cast<double>(recon[i + 3 * stride])) /
                              16.0;
          decode_point(i, pred);
        }
        for (; i < n; i += 2 * stride) {
          if (i + stride < n) {
            decode_point(i, 0.5 * (static_cast<double>(recon[i - stride]) +
                                   recon[i + stride]));
          } else {
            decode_point(i, recon[i - stride]);
          }
        }
        if (stride == 1) break;
      }
    }
  }
};

}  // namespace

const LossyCodec& sz3_codec_instance() {
  static const Sz3Codec codec;
  return codec;
}

}  // namespace fedsz::lossy
