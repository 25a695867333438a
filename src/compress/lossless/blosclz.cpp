// blosc-lz analogue: optional byte-shuffle (typesize 4, matching the float32
// payloads FedSZ feeds it) followed by an LZ4-style token format with no
// entropy coding. Chosen for exactly the property Table II reports: an order
// of magnitude faster than deflate-family codecs while the shuffle keeps its
// ratio competitive on float arrays.
#include "compress/lossless/lossless.hpp"

#include "compress/lossless/lz77.hpp"
#include "util/bytebuffer.hpp"

namespace fedsz::lossless {

namespace {

constexpr std::uint8_t kFlagShuffled = 0x01;
constexpr std::uint8_t kFlagStoredRaw = 0x02;

Bytes encode_lz4_style(ByteSpan data, const std::vector<LzSequence>& seqs) {
  ByteWriter w;
  for (const LzSequence& seq : seqs) {
    const std::uint32_t lit = seq.literal_len;
    const bool has_match = seq.match_len > 0;
    const std::uint32_t mlen = has_match ? seq.match_len - 4 : 0;
    const std::uint8_t token =
        static_cast<std::uint8_t>((std::min<std::uint32_t>(lit, 15) << 4) |
                                  std::min<std::uint32_t>(mlen, 15));
    w.put_u8(token);
    if (lit >= 15) {
      std::uint32_t rest = lit - 15;
      while (rest >= 255) {
        w.put_u8(255);
        rest -= 255;
      }
      w.put_u8(static_cast<std::uint8_t>(rest));
    }
    w.put_bytes(data.subspan(seq.literal_start, seq.literal_len));
    if (has_match) {
      w.put_u16(static_cast<std::uint16_t>(seq.match_offset - 1));
      if (mlen >= 15) {
        std::uint32_t rest = mlen - 15;
        while (rest >= 255) {
          w.put_u8(255);
          rest -= 255;
        }
        w.put_u8(static_cast<std::uint8_t>(rest));
      }
    }
  }
  return w.finish();
}

Bytes decode_lz4_style(ByteReader& r, std::size_t raw_size) {
  Bytes out;
  // raw_size is stream-borne: reserve no more than the body can produce
  // (no sequence yields more than 256 bytes per byte it occupies).
  out.reserve(std::min<std::size_t>(raw_size, r.remaining() * 256));
  while (out.size() < raw_size) {
    const std::uint8_t token = r.get_u8();
    std::uint32_t lit = token >> 4;
    if (lit == 15) {
      std::uint8_t b;
      do {
        b = r.get_u8();
        lit += b;
      } while (b == 255);
    }
    ByteSpan literals = r.get_bytes(lit);
    out.insert(out.end(), literals.begin(), literals.end());
    if (out.size() >= raw_size) break;  // final sequence: literals only
    const std::uint32_t offset = static_cast<std::uint32_t>(r.get_u16()) + 1;
    std::uint32_t mlen = (token & 0x0F) + 4;
    if ((token & 0x0F) == 15) {
      std::uint8_t b;
      do {
        b = r.get_u8();
        mlen += b;
      } while (b == 255);
    }
    if (offset > out.size())
      throw CorruptStream("blosclz: match offset out of range");
    const std::size_t from = out.size() - offset;
    for (std::uint32_t i = 0; i < mlen; ++i) out.push_back(out[from + i]);
  }
  if (out.size() != raw_size) throw CorruptStream("blosclz: size mismatch");
  return out;
}

class BloscLzCodec final : public LosslessCodec {
 public:
  LosslessId id() const override { return LosslessId::kBloscLz; }
  std::string name() const override { return "blosc-lz"; }

  void compress_into(ByteSpan data, Bytes& out) const override {
    ByteWriter header;
    std::uint8_t flags = 0;
    Bytes shuffled;
    ByteSpan payload = data;
    if (data.size() >= 8 && data.size() % 4 == 0) {
      shuffled = shuffle_bytes(data, 4);
      payload = {shuffled.data(), shuffled.size()};
      flags |= kFlagShuffled;
    }
    LzParams params;
    params.window_log = 16;
    params.min_match = 4;
    params.max_chain = 8;
    params.lazy = false;
    const auto seqs = lz77_parse(payload, params);
    Bytes body = encode_lz4_style(payload, seqs);
    if (body.size() >= data.size()) {  // incompressible: store original
      header.put_u8(kFlagStoredRaw);
      header.put_varint(data.size());
      header.put_bytes(data);
      out = header.finish();
      return;
    }
    header.put_u8(flags);
    header.put_varint(data.size());
    header.put_bytes({body.data(), body.size()});
    out = header.finish();
  }

  Bytes decompress(ByteSpan data) const override {
    ByteReader r(data);
    const std::uint8_t flags = r.get_u8();
    const auto raw_size = static_cast<std::size_t>(r.get_varint());
    if (flags & kFlagStoredRaw) {
      ByteSpan raw = r.get_bytes(raw_size);
      if (!r.done()) throw CorruptStream("blosclz: trailing bytes");
      return Bytes(raw.begin(), raw.end());
    }
    Bytes out = decode_lz4_style(r, raw_size);
    if (!r.done()) throw CorruptStream("blosclz: trailing bytes");
    if (flags & kFlagShuffled) out = unshuffle_bytes(out, 4);
    return out;
  }
};

}  // namespace

const LosslessCodec& blosclz_codec_instance() {
  static const BloscLzCodec codec;
  return codec;
}

}  // namespace fedsz::lossless
