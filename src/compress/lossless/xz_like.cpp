// xz analogue: an LZMA-lite — LZ77 with a 4 MiB window and deep chains, the
// token stream coded with the adaptive binary range coder using contextual
// probabilities (literal bytes conditioned on the previous byte's high bits,
// LZMA-style length coder, offset-slot bit tree plus direct bits). Slowest of
// the suite, best ratio: the xz row of Table II.
#include <algorithm>
#include <bit>

#include "compress/lossless/lossless.hpp"
#include "compress/lossless/lz77.hpp"
#include "compress/lossless/range_coder.hpp"
#include "util/bytebuffer.hpp"

namespace fedsz::lossless {

namespace {

constexpr std::uint8_t kModeRaw = 0;
constexpr std::uint8_t kModeCompressed = 1;
constexpr unsigned kMinMatch = 3;
// Length coder ranges: [0,8) low tree, [8,24) mid tree, [24,24+256) high tree.
constexpr std::uint32_t kLenLowLimit = 8;
constexpr std::uint32_t kLenMidLimit = 24;
constexpr std::uint32_t kMaxEncodedLen = kLenMidLimit + 255;

struct Contexts {
  BitProb is_match;
  std::vector<std::vector<BitProb>> literal;  // [prev byte >> 5][bit tree 256]
  BitProb len_choice1, len_choice2;
  std::vector<BitProb> len_low, len_mid, len_high;
  std::vector<BitProb> offset_slot;

  Contexts()
      : literal(8, std::vector<BitProb>(256)),
        len_low(8),
        len_mid(16),
        len_high(256),
        offset_slot(64) {}
};

/// LZMA-style offset slot: offsets < 4 code as themselves; otherwise the slot
/// stores the bit width and the bit below the MSB, remaining bits go direct.
std::uint32_t offset_slot_for(std::uint32_t off1) {
  if (off1 < 4) return off1;
  const unsigned k = std::bit_width(off1) - 1;
  return (k << 1) | ((off1 >> (k - 1)) & 1u);
}

unsigned slot_direct_bits(std::uint32_t slot) {
  return slot < 4 ? 0 : (slot >> 1) - 1;
}

class XzLikeCodec final : public LosslessCodec {
 public:
  LosslessId id() const override { return LosslessId::kXz; }
  std::string name() const override { return "xz"; }

  void compress_into(ByteSpan data, Bytes& out) const override {
    ByteWriter w;
    w.put_varint(data.size());
    if (data.empty()) {
      w.put_u8(kModeRaw);
      out = w.finish();
      return;
    }
    LzParams params;
    params.window_log = 22;  // 4 MiB window
    params.min_match = kMinMatch;
    params.max_match = kMinMatch + kMaxEncodedLen - 1;
    params.max_chain = 256;
    params.lazy = true;
    const auto seqs = lz77_parse(data, params);

    RangeEncoder rc;
    Contexts ctx;
    std::size_t cursor = 0;  // number of input bytes represented so far
    for (const LzSequence& seq : seqs) {
      for (std::uint32_t i = 0; i < seq.literal_len; ++i) {
        const std::uint8_t prev = cursor > 0 ? data[cursor - 1] : 0;
        rc.encode_bit(ctx.is_match, 0);
        rc.encode_tree(ctx.literal[prev >> 5], 8, data[cursor]);
        ++cursor;
      }
      if (seq.match_len == 0) continue;
      rc.encode_bit(ctx.is_match, 1);
      const std::uint32_t len2 = seq.match_len - kMinMatch;
      if (len2 < kLenLowLimit) {
        rc.encode_bit(ctx.len_choice1, 0);
        rc.encode_tree(ctx.len_low, 3, len2);
      } else if (len2 < kLenMidLimit) {
        rc.encode_bit(ctx.len_choice1, 1);
        rc.encode_bit(ctx.len_choice2, 0);
        rc.encode_tree(ctx.len_mid, 4, len2 - kLenLowLimit);
      } else {
        rc.encode_bit(ctx.len_choice1, 1);
        rc.encode_bit(ctx.len_choice2, 1);
        rc.encode_tree(ctx.len_high, 8, len2 - kLenMidLimit);
      }
      const std::uint32_t off1 = seq.match_offset - 1;
      const std::uint32_t slot = offset_slot_for(off1);
      rc.encode_tree(ctx.offset_slot, 6, slot);
      const unsigned direct = slot_direct_bits(slot);
      if (direct > 0) rc.encode_direct(off1 & ((1u << direct) - 1), direct);
      cursor += seq.match_len;
    }

    Bytes body = rc.finish();
    if (body.size() >= data.size()) {
      w.put_u8(kModeRaw);
      w.put_bytes(data);
    } else {
      w.put_u8(kModeCompressed);
      w.put_bytes({body.data(), body.size()});
    }
    out = w.finish();
  }

  Bytes decompress(ByteSpan data) const override {
    ByteReader r(data);
    const auto raw_size = static_cast<std::size_t>(r.get_varint());
    const std::uint8_t mode = r.get_u8();
    if (mode == kModeRaw) {
      ByteSpan raw = r.get_bytes(raw_size);
      return Bytes(raw.begin(), raw.end());
    }
    if (mode != kModeCompressed)
      throw CorruptStream("xz-like: unknown mode byte");
    ByteSpan body = r.get_bytes(r.remaining());
    RangeDecoder rc(body);
    Contexts ctx;
    Bytes out;
    // raw_size is stream-borne: reserve at most a generous multiple of the
    // body (the vector grows past it on demand). The loop stops at
    // raw_size, and the decoder throws once it reads past the body.
    out.reserve(std::min<std::size_t>(raw_size, body.size() * 256));
    while (out.size() < raw_size) {
      if (rc.decode_bit(ctx.is_match) == 0) {
        const std::uint8_t prev = out.empty() ? 0 : out.back();
        out.push_back(static_cast<std::uint8_t>(
            rc.decode_tree(ctx.literal[prev >> 5], 8)));
        continue;
      }
      std::uint32_t len2;
      if (rc.decode_bit(ctx.len_choice1) == 0) {
        len2 = rc.decode_tree(ctx.len_low, 3);
      } else if (rc.decode_bit(ctx.len_choice2) == 0) {
        len2 = kLenLowLimit + rc.decode_tree(ctx.len_mid, 4);
      } else {
        len2 = kLenMidLimit + rc.decode_tree(ctx.len_high, 8);
      }
      const std::uint32_t len = len2 + kMinMatch;
      const std::uint32_t slot = rc.decode_tree(ctx.offset_slot, 6);
      std::uint32_t off1;
      if (slot < 4) {
        off1 = slot;
      } else {
        const unsigned direct = slot_direct_bits(slot);
        const std::uint32_t prefix = 2u | (slot & 1u);
        off1 = (prefix << direct) | rc.decode_direct(direct);
      }
      const std::uint32_t offset = off1 + 1;
      if (offset > out.size())
        throw CorruptStream("xz-like: offset out of range");
      const std::size_t from = out.size() - offset;
      for (std::uint32_t i = 0; i < len && out.size() < raw_size; ++i)
        out.push_back(out[from + i]);
    }
    return out;
  }
};

}  // namespace

const LosslessCodec& xz_codec_instance() {
  static const XzLikeCodec codec;
  return codec;
}

}  // namespace fedsz::lossless
