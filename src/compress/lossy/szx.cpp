// SZx analogue (Yu et al., HPDC'22): designed for raw speed. The array is cut
// into fixed blocks; a block whose value range fits inside 2*epsilon is a
// "constant block" stored as a single f32 midpoint; other blocks store
// error-bounded fixed-point codes packed at the per-block minimum bit width
// (the bit-wise truncation model). No prediction, no entropy coding, no LZ —
// which is why SZx tops the throughput column of Table I by orders of
// magnitude while offering the least rate flexibility.
//
// Note: this implementation honors the error bound exactly, so unlike the
// paper's observed SZx accuracy collapse (attributed by the authors to block
// mean storage), model accuracy is preserved; see EXPERIMENTS.md.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "compress/lossy/arena.hpp"
#include "compress/lossy/lossy.hpp"
#include "util/bitstream.hpp"
#include "util/bytebuffer.hpp"

namespace fedsz::lossy {

namespace {

constexpr std::size_t kBlockSize = 128;
constexpr std::uint8_t kBlockConstant = 0;
constexpr std::uint8_t kBlockPacked = 1;
constexpr std::uint8_t kBlockVerbatim = 2;

class SzxCodec final : public LossyCodec {
 public:
  LossyId id() const override { return LossyId::kSzx; }
  std::string name() const override { return "szx"; }
  bool strictly_bounded() const override { return true; }

 private:
  // A wanted reconstruction is decoded from the fresh stream.
  void encode(FloatSpan data, const ErrorBound& bound, Bytes& out,
              std::span<float> reconstruction) const override {
    require_finite(data, name());
    const double eps = bound.absolute_for(data);
    EncodeArena& arena = EncodeArena::local();

    ByteWriter& w = arena.body;
    w.reset();
    w.put_varint(data.size());
    w.put_f64(eps);
    if (data.empty()) {
      const ByteSpan frame = w.view();
      out.assign(frame.begin(), frame.end());
      return;
    }

    const double step = eps > 0.0 ? 2.0 * eps : 0.0;
    const std::size_t n_blocks = (data.size() + kBlockSize - 1) / kBlockSize;
    for (std::size_t b = 0; b < n_blocks; ++b) {
      const std::size_t begin = b * kBlockSize;
      const std::size_t len = std::min(kBlockSize, data.size() - begin);
      FloatSpan block = data.subspan(begin, len);
      float lo = block[0], hi = block[0];
      for (const float v : block) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      const double range = static_cast<double>(hi) - lo;
      const float mid = static_cast<float>(0.5 * (static_cast<double>(hi) + lo));
      if (range <= step && std::fabs(static_cast<double>(mid) - lo) <= eps) {
        w.put_u8(kBlockConstant);
        w.put_f32(mid);
        continue;
      }
      if (step <= 0.0) {  // degenerate bound: store exactly
        w.put_u8(kBlockVerbatim);
        w.put_bytes(as_bytes(block));
        continue;
      }
      // Fixed-point codes relative to the block minimum.
      const auto max_code = static_cast<std::uint64_t>(
          std::llround(range / step) + 1);
      const unsigned bits = std::bit_width(max_code);
      if (bits >= 32) {  // bound far below float resolution: store exactly
        w.put_u8(kBlockVerbatim);
        w.put_bytes(as_bytes(block));
        continue;
      }
      w.put_u8(kBlockPacked);
      w.put_u8(static_cast<std::uint8_t>(bits));
      w.put_f32(lo);
      BitWriter& bw = arena.bits;
      bw.reset();
      for (const float v : block) {
        const auto code = static_cast<std::uint64_t>(
            std::llround((static_cast<double>(v) - lo) / step));
        bw.write(code, bits);
      }
      w.put_blob(bw.finish_view());
      bw.reset();
    }
    const ByteSpan frame = w.view();
    out.assign(frame.begin(), frame.end());
    if (!reconstruction.empty())
      decode({out.data(), out.size()}, DecodeTarget(reconstruction));
  }

  void decode(ByteSpan stream, const DecodeTarget& target) const override {
    ByteReader r(stream);
    const auto n = static_cast<std::size_t>(r.get_varint());
    const double eps = r.get_f64();
    const double step = 2.0 * eps;
    // Every block takes at least 5 bytes (a tag and an f32), so a corrupt
    // element count is rejected before the destination is sized.
    if (n > kBlockSize * (r.remaining() / 5))
      throw CorruptStream("szx: element count exceeds stream");
    const std::size_t n_blocks = (n + kBlockSize - 1) / kBlockSize;
    float* out = target.claim(n, "szx").data();
    for (std::size_t b = 0; b < n_blocks; ++b) {
      const std::size_t begin = b * kBlockSize;
      const std::size_t len = std::min(kBlockSize, n - begin);
      float* values = out + begin;
      const std::uint8_t tag = r.get_u8();
      if (tag == kBlockConstant) {
        std::fill_n(values, len, r.get_f32());
      } else if (tag == kBlockVerbatim) {
        ByteSpan raw = r.get_bytes(len * sizeof(float));
        std::memcpy(values, raw.data(), raw.size());
      } else if (tag == kBlockPacked) {
        const unsigned bits = r.get_u8();
        const float lo = r.get_f32();
        const ByteSpan packed = r.get_blob_view();
        BitReader br(packed);
        for (std::size_t i = 0; i < len; ++i) {
          const std::uint64_t code = br.read(bits);
          values[i] =
              static_cast<float>(lo + static_cast<double>(code) * step);
        }
      } else {
        throw CorruptStream("szx: unknown block tag");
      }
    }
    if (!r.done()) throw CorruptStream("szx: trailing bytes");
  }
};

}  // namespace

const LossyCodec& szx_codec_instance() {
  static const SzxCodec codec;
  return codec;
}

}  // namespace fedsz::lossy
