// zstd analogue: LZ77 with a large (1 MiB) window and lazy matching, token
// stream split into independent streams (literal bytes; literal-length,
// match-length and offset bucket codes), each entropy-coded with its own
// canonical Huffman table, extra bits in a shared raw bitstream. This is
// zstd's architectural split (literals vs sequences, per-stream entropy
// tables), trading a little speed for ratio over deflate.
//
// Invariant: a compressed frame is always the exact (every-position, lazy)
// parse's, byte for byte. The encoder first sizes the frame from a cheap
// skip-ahead screening parse; that screen only decides "raw" sooner. It can
// send raw a body the exact parse would have shrunk (when skipping misses
// the matches), but it never changes the bytes of a compressed frame.
#include <algorithm>
#include <array>
#include <bit>
#include <cassert>

#include "compress/lossless/huffman.hpp"
#include "compress/lossless/lossless.hpp"
#include "compress/lossless/lz77.hpp"
#include "util/bitstream.hpp"
#include "util/bytebuffer.hpp"

namespace fedsz::lossless {

namespace {

constexpr std::uint8_t kModeRaw = 0;
constexpr std::uint8_t kModeCompressed = 1;
constexpr unsigned kMinMatch = 4;
// The screening parse's skip-ahead: zstd's kSearchStrength.
constexpr unsigned kScreenSkipLog = 8;

struct CodedValue {
  std::uint32_t code;
  unsigned extra_bits;
  std::uint32_t extra;
};

/// Values < 16 code as themselves; larger values bucket by bit width
/// (code = 12 + bit_width, which starts at 16 and so never collides).
CodedValue value_code(std::uint32_t v) {
  if (v < 16) return {v, 0, 0};
  const unsigned k = std::bit_width(v) - 1;  // v >= 16 -> k >= 4
  return {12 + k, k, v - (1u << k)};
}

std::uint32_t decode_value(std::uint32_t code, BitReader& bits) {
  if (code < 16) return code;
  const unsigned k = code - 12;
  if (k >= 32) throw CorruptStream("zstd-like: bad value code");
  return (1u << k) + static_cast<std::uint32_t>(bits.read(k));
}

// Per-thread working buffers, reset (not freed) between calls — steady-state
// encode and decode reuse the same heap blocks across chunks and rounds.
struct ZstdScratch {
  std::vector<LzSequence> seqs;
  // The four entropy-coded streams, in frame order: literal bytes, then the
  // literal-length, match-length and offset codes of each sequence.
  std::array<std::vector<std::uint32_t>, 4> streams;
  std::array<HuffmanWorkspace, 4> huff;  // one codebook per stream
  BitWriter extras;   // the sequences' raw extra bits
  BitWriter bits;     // bit-packing scratch shared by the four streams
  ByteWriter framed;  // full frame for the compress_into path
};

ZstdScratch& t_scratch() {
  static thread_local ZstdScratch scratch;
  return scratch;
}

class ZstdLikeCodec final : public LosslessCodec {
 public:
  LosslessId id() const override { return LosslessId::kZstd; }
  std::string name() const override { return "zstd"; }

  void compress_into(ByteSpan data, Bytes& out) const override {
    ByteWriter& w = t_scratch().framed;
    w.reset();
    encode_frame(data, w);
    const ByteSpan frame = w.view();
    out.assign(frame.begin(), frame.end());
  }

 private:
  /// The parse in s.seqs split into the four symbol streams and the extra
  /// bits, with each stream's codebook planned: everything a compressed
  /// frame writes, sized before a single bit is packed.
  struct BodyPlan {
    std::uint64_t trailing_literals = 0;
    std::array<std::size_t, 4> block_sizes{};
    ByteSpan extras;       // view into s.extras
    std::size_t size = 0;  // exact body size after the mode byte
  };

  static BodyPlan plan_body(ByteSpan data, ZstdScratch& s) {
    std::vector<std::uint32_t>& literal_syms = s.streams[0];
    std::vector<std::uint32_t>& ll_codes = s.streams[1];
    std::vector<std::uint32_t>& ml_codes = s.streams[2];
    std::vector<std::uint32_t>& of_codes = s.streams[3];
    literal_syms.clear();
    ll_codes.clear();
    ml_codes.clear();
    of_codes.clear();
    BitWriter& extras = s.extras;
    extras.reset();
    BodyPlan plan;
    for (const LzSequence& seq : s.seqs) {
      const std::uint8_t* lit = data.data() + seq.literal_start;
      literal_syms.insert(literal_syms.end(), lit, lit + seq.literal_len);
      if (seq.match_len == 0) {
        plan.trailing_literals = seq.literal_len;
        continue;
      }
      const CodedValue ll = value_code(seq.literal_len);
      const CodedValue ml = value_code(seq.match_len - kMinMatch);
      const CodedValue of = value_code(seq.match_offset);
      ll_codes.push_back(ll.code);
      ml_codes.push_back(ml.code);
      of_codes.push_back(of.code);
      extras.write(ll.extra, ll.extra_bits);
      extras.write(ml.extra, ml.extra_bits);
      extras.write(of.extra, of.extra_bits);
    }
    plan.extras = extras.finish_view();

    plan.size = varint_size(plan.trailing_literals);
    for (std::size_t k = 0; k < 4; ++k) {
      huffman_count(s.streams[k], s.huff[k]);
      plan.block_sizes[k] = huffman_plan(s.huff[k]);
      plan.size += varint_size(plan.block_sizes[k]) + plan.block_sizes[k];
    }
    plan.size += varint_size(plan.extras.size()) + plan.extras.size();
    return plan;
  }

  // Screen, then size exactly, then pack. A skip-ahead parse sizes the
  // frame first; when even that does not shrink the input — the common
  // case for already entropy-coded input such as the SZ bodies — the frame
  // is written raw after a few probes per literal run. Otherwise the exact
  // every-position parse is sized and decides, and a compressed frame
  // reuses the codebooks its size was computed from.
  void encode_frame(ByteSpan data, ByteWriter& w) const {
    w.put_varint(data.size());
    if (data.empty()) {
      w.put_u8(kModeRaw);
      return;
    }
    LzParams params;
    params.window_log = 20;  // 1 MiB window
    params.min_match = kMinMatch;
    params.max_chain = 64;
    params.lazy = true;
    params.skip_log = kScreenSkipLog;
    ZstdScratch& s = t_scratch();
    lz77_parse(data, params, s.seqs);
    BodyPlan plan = plan_body(data, s);
    if (plan.size < data.size()) {
      params.skip_log = 0;
      lz77_parse(data, params, s.seqs);
      plan = plan_body(data, s);
    }
    if (plan.size >= data.size()) {
      w.put_u8(kModeRaw);
      w.put_bytes(data);
      return;
    }

    w.put_u8(kModeCompressed);
    w.put_varint(plan.trailing_literals);
    for (std::size_t k = 0; k < 4; ++k) {
      w.put_varint(plan.block_sizes[k]);
      [[maybe_unused]] const std::size_t before = w.size();
      huffman_write(s.streams[k], s.huff[k], w, s.bits);
      assert(w.size() - before == plan.block_sizes[k]);
    }
    w.put_blob(plan.extras);
  }

 public:
  Bytes decompress(ByteSpan data) const override {
    ByteReader r(data);
    const std::uint64_t raw_size = r.get_varint();
    const std::uint8_t mode = r.get_u8();
    if (mode == kModeRaw) {
      ByteSpan raw = r.get_bytes(static_cast<std::size_t>(raw_size));
      if (!r.done()) throw CorruptStream("zstd-like: trailing bytes");
      return Bytes(raw.begin(), raw.end());
    }
    if (mode != kModeCompressed)
      throw CorruptStream("zstd-like: unknown mode byte");
    const std::uint64_t trailing_literals = r.get_varint();
    ZstdScratch& s = t_scratch();
    for (std::vector<std::uint32_t>& stream : s.streams)
      huffman_decode(r.get_blob_view(), stream);
    const ByteSpan extras_bytes = r.get_blob_view();
    if (!r.done()) throw CorruptStream("zstd-like: trailing bytes");
    const std::vector<std::uint32_t>& literals = s.streams[0];
    const std::vector<std::uint32_t>& ll_codes = s.streams[1];
    const std::vector<std::uint32_t>& ml_codes = s.streams[2];
    const std::vector<std::uint32_t>& of_codes = s.streams[3];
    if (ll_codes.size() != ml_codes.size() ||
        ll_codes.size() != of_codes.size())
      throw CorruptStream("zstd-like: sequence stream length mismatch");
    BitReader extras(extras_bytes);

    // raw_size is stream-borne: reserve no more than the decoded streams
    // can produce (every match is at most max_match bytes long), and never
    // let the output grow past raw_size.
    const std::uint64_t producible =
        literals.size() + ll_codes.size() * std::uint64_t{LzParams{}.max_match};
    Bytes out;
    out.reserve(static_cast<std::size_t>(std::min(raw_size, producible)));
    auto require_room = [&](std::uint64_t n) {
      if (n > raw_size - out.size())
        throw CorruptStream("zstd-like: output exceeds the declared size");
    };
    std::size_t lit_pos = 0;
    auto take_literals = [&](std::uint64_t n) {
      if (n > literals.size() - lit_pos)
        throw CorruptStream("zstd-like: literal stream exhausted");
      require_room(n);
      for (std::uint64_t i = 0; i < n; ++i)
        out.push_back(static_cast<std::uint8_t>(literals[lit_pos++]));
    };
    for (std::size_t k = 0; k < ll_codes.size(); ++k) {
      const std::uint32_t lit_len = decode_value(ll_codes[k], extras);
      const std::uint64_t match_len =
          std::uint64_t{decode_value(ml_codes[k], extras)} + kMinMatch;
      const std::uint32_t offset = decode_value(of_codes[k], extras);
      take_literals(lit_len);
      if (offset == 0 || offset > out.size())
        throw CorruptStream("zstd-like: bad offset");
      require_room(match_len);
      const std::size_t from = out.size() - offset;
      for (std::uint64_t i = 0; i < match_len; ++i)
        out.push_back(out[from + i]);
    }
    take_literals(trailing_literals);
    if (out.size() != raw_size) throw CorruptStream("zstd-like: size mismatch");
    return out;
  }
};

}  // namespace

const LosslessCodec& zstd_codec_instance() {
  static const ZstdLikeCodec codec;
  return codec;
}

}  // namespace fedsz::lossless
