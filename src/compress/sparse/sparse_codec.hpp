// Adaptive sparse-quantization codec (FedSparQ-style, arXiv:2511.05591).
//
// Each tensor is compressed in three stages:
//
//   1. Threshold. A keep-mask is derived from per-tensor magnitude
//      statistics: with sparsity = 0 (adaptive) the threshold is
//      mean(|x|) + stddev(|x|); with an explicit sparsity fraction s the
//      top (1 - s) * numel elements by magnitude survive (deterministic
//      tie-break by index). Dropped elements decode to exactly 0.0f, which
//      is what lets the error-feedback accumulator recover them on later
//      rounds.
//   2. Quantize. Survivors are uniformly quantized against the tensor's
//      resolved error bound eps with step = 2 * eps, then bit-packed at
//      the adaptive width bit_width(max_code). An explicit bits= cap can
//      only tighten the step (never loosen it past the bound), so the
//      |decoded - original| <= eps guarantee holds for every survivor
//      regardless of the requested width. Degenerate ranges fall back to
//      verbatim f32 survivors (bits tag 32) or a single shared value
//      (bits tag 0).
//   3. Entropy. The packed survivor stream runs through one of the
//      existing lossless backends (id embedded in the payload); the mask
//      is stored as either an LSB-first bitmap or delta varint indices,
//      whichever is smaller — subject to the decompression-bomb floor
//      (lossy::kMaxElementsPerPayloadByte) so a tiny index mask can never
//      under-declare a huge tensor.
//
// Payloads are self-contained (element count, eps, mask encoding, bit
// width, lossless id are all embedded) and fully validated on decode:
// mask popcount, index monotonicity, packed-stream length, and the
// element-count-vs-payload-size plausibility guard all throw CorruptStream
// before any large allocation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "compress/lossless/lossless.hpp"
#include "util/common.hpp"

namespace fedsz::sparse {

/// Per-tensor knobs carried by a TensorPlan (and the codec_spec keys
/// sparsity= / bits=).
struct SparseParams {
  /// Fraction of elements to drop, in (0, 1). 0 selects the adaptive
  /// mean + stddev magnitude threshold.
  double sparsity = 0.0;
  /// Cap on the survivor quantization bit width, 1..31. 0 selects the
  /// bound-adaptive width. The cap never loosens the error bound.
  unsigned bits = 0;

  /// Throws InvalidArgument on out-of-range values.
  void validate() const;
};

/// Encoder-side tallies surfaced into CompressionStats.
struct SparseEncodeInfo {
  std::size_t kept = 0;  // survivors actually encoded
};

/// Stateless; all working storage lives in thread-local scratch, so the
/// singleton is shared across pool workers and steady-state encodes
/// perform no heap allocation.
class SparseQuantCodec {
 public:
  std::string name() const { return "sparse"; }

  /// Encode `data` against resolved bound `eps` (> 0), routing the packed
  /// survivor stream through `survivors`. `out` is replaced (capacity
  /// reused). A non-empty `reconstruction` (exactly data.size() elements,
  /// else InvalidArgument; not overlapping `data`) receives what
  /// decompress(out) returns, bit for bit: zeros, with each survivor's
  /// dequantized value at its index.
  SparseEncodeInfo compress_into(FloatSpan data, double eps,
                                 const SparseParams& params,
                                 const lossless::LosslessCodec& survivors,
                                 Bytes& out,
                                 std::span<float> reconstruction = {}) const;

  /// Decode a self-contained payload. Throws CorruptStream on any
  /// malformed field; never allocates more than the payload plausibly
  /// declares.
  std::vector<float> decompress(ByteSpan payload) const;
};

/// The shared stateless instance.
const SparseQuantCodec& sparse_codec();

}  // namespace fedsz::sparse
