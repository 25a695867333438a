// Error-bounded lossy compressor (EBLC) suite: from-scratch analogues of the
// four compressors the paper characterizes (Section II-A, Table I), one per
// classic compression model:
//
//   SZ2  prediction-based: blockwise Lorenzo/linear-regression hybrid
//        prediction, error-bounded quantization, Huffman + LZ back end
//   SZ3  prediction-based: multi-level spline interpolation prediction
//        (no stored regression coefficients), same quantization back end
//   SZx  bit-wise: constant-block detection + fixed-point bit truncation,
//        designed for speed
//   ZFP  transform-based: 4-sample blocks, orthogonal lifting transform,
//        negabinary bit-plane coding, fixed-precision rate control
//
// All compressed buffers are self-contained (length, resolved epsilon and
// codec parameters embedded). SZ2/SZ3/SZx guarantee max|x - x'| <= epsilon
// (strictly_bounded() == true); ZFP's fixed-precision mode is calibrated to
// the requested bound but not pointwise-guaranteed, matching the real tool's
// lack of a REL mode (Section V-D1).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "compress/lossy/error_bound.hpp"
#include "util/common.hpp"

namespace fedsz::lossy {

enum class LossyId : std::uint8_t {
  kSz2 = 1,
  kSz3 = 2,
  kSzx = 3,
  kZfp = 4,
};

class LossyCodec {
 public:
  virtual ~LossyCodec() = default;
  virtual LossyId id() const = 0;
  virtual std::string name() const = 0;
  /// True if every reconstructed element is guaranteed within epsilon.
  virtual bool strictly_bounded() const = 0;

  /// Compress into `out` (contents replaced, capacity reused). Input must
  /// be finite (NaN/Inf rejected with InvalidArgument). The hot codecs
  /// (SZ2/SZ3/SZx) draw working buffers from the calling thread's
  /// EncodeArena and allocate nothing once `out` has grown.
  ///
  /// A non-empty `reconstruction` (exactly data.size() elements, else
  /// InvalidArgument; it must not overlap `data`) receives the values
  /// decompress(out) returns, bit for bit. SZ2 and SZ3 write them while
  /// they quantize; SZx and ZFP decode their fresh stream into it.
  void compress_into(FloatSpan data, const ErrorBound& bound, Bytes& out,
                     std::span<float> reconstruction = {}) const {
    if (!reconstruction.empty() && reconstruction.size() != data.size())
      throw InvalidArgument(name() + ": reconstruction holds " +
                            std::to_string(reconstruction.size()) +
                            " elements, input " +
                            std::to_string(data.size()));
    encode(data, bound, out, reconstruction);
  }
  /// Allocating wrapper around compress_into.
  Bytes compress(FloatSpan data, const ErrorBound& bound) const {
    Bytes out;
    compress_into(data, bound, out);
    return out;
  }
  /// Decompress a buffer produced by the same codec straight into `out`,
  /// which must hold exactly the stream's element count: a stream of any
  /// other length throws CorruptStream before an element is written.
  void decompress_into(ByteSpan data, std::span<float> out) const {
    decode(data, DecodeTarget(out));
  }
  /// Allocating wrapper over the same decode.
  std::vector<float> decompress(ByteSpan data) const {
    std::vector<float> out;
    decode(data, DecodeTarget(out));
    return out;
  }

 protected:
  /// Where a decode writes: a caller's fixed span, or a vector resized to
  /// the stream's element count.
  class DecodeTarget {
   public:
    explicit DecodeTarget(std::span<float> fixed) : fixed_(fixed) {}
    explicit DecodeTarget(std::vector<float>& grow) : grow_(&grow) {}
    /// Memory for the stream's `n` elements. Called once, after the stream
    /// has shown it can hold `n` elements; a fixed span of another size
    /// throws CorruptStream naming `codec`.
    std::span<float> claim(std::size_t n, const char* codec) const;

   private:
    std::span<float> fixed_;
    std::vector<float>* grow_ = nullptr;
  };

 private:
  /// The codec's one encode routine, behind compress_into (which has
  /// checked the reconstruction's size; empty means not wanted).
  virtual void encode(FloatSpan data, const ErrorBound& bound, Bytes& out,
                      std::span<float> reconstruction) const = 0;
  /// The codec's one decode routine; decompress and decompress_into wrap
  /// it. Stream damage throws CorruptStream.
  virtual void decode(ByteSpan data, const DecodeTarget& out) const = 0;
};

// Registry access. Codec instances are stateless immutable singletons:
// lookups and compress()/decompress() calls are safe from any number of
// threads concurrently, which is what lets the chunked FedSZ pipeline share
// one codec across all pool workers.
const LossyCodec& lossy_codec(LossyId id);
const LossyCodec& lossy_codec(const std::string& name);
std::vector<const LossyCodec*> all_lossy_codecs();

/// True when `raw` is a registered LossyId value (stream validation and
/// randomized-test id sampling).
bool is_lossy_id(std::uint8_t raw);

/// Shared input validation: throws InvalidArgument on non-finite values.
void require_finite(FloatSpan data, const std::string& codec_name);

/// Decompression-bomb floor: a payload of P bytes may declare at most
/// P * kMaxElementsPerPayloadByte elements, checked before a decoder
/// allocates. The FedSZ container's chunk tables and sparse entries, the
/// sparse codec and the TopK baseline all check it, for two reasons:
///  - the most compressible lossy input, a constant tensor under SZ2,
///    measures ~618 elements per byte at every size, so 2^13 leaves ~13x
///    headroom while capping a malicious header at 32 KiB of allocation
///    per stream byte;
///  - the sparse encoder keeps every payload above the floor by falling
///    back to its bitmap mask, whose size is proportional to numel.
constexpr std::uint64_t kMaxElementsPerPayloadByte = std::uint64_t{1} << 13;

}  // namespace fedsz::lossy
