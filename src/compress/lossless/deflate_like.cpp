// deflate-family analogue backing both the zlib-like and gzip-like registry
// entries: LZ77 (32 KiB window, min match 3) with the token stream coded by
// two canonical Huffman alphabets — a unified literal/length alphabet (0-255
// literals, 256 end-of-block, 257+ length buckets with extra bits) and a
// distance alphabet (30 buckets with extra bits), the deflate design. The two
// registry entries differ only in match-finder effort, which is also how
// zlib and gzip differ in practice.
#include <algorithm>
#include <array>

#include "compress/lossless/huffman.hpp"
#include "compress/lossless/lossless.hpp"
#include "compress/lossless/lz77.hpp"
#include "util/bitstream.hpp"
#include "util/bytebuffer.hpp"

namespace fedsz::lossless {

namespace {

struct Bucket {
  std::uint32_t base;
  unsigned extra_bits;
};

/// Length buckets for match lengths 3..258 (deflate-style geometry).
const std::vector<Bucket>& length_buckets() {
  static const std::vector<Bucket> buckets = [] {
    std::vector<Bucket> b;
    for (std::uint32_t len = 3; len <= 10; ++len) b.push_back({len, 0});
    std::uint32_t base = 11;
    for (unsigned e = 1; e <= 5; ++e) {
      for (int k = 0; k < 4; ++k) {
        b.push_back({base, e});
        base += 1u << e;
      }
    }
    return b;  // last bucket: base 227, 5 extra bits -> covers up to 258
  }();
  return buckets;
}

/// Distance buckets for offsets 1..32768.
const std::vector<Bucket>& distance_buckets() {
  static const std::vector<Bucket> buckets = [] {
    std::vector<Bucket> b;
    for (std::uint32_t d = 1; d <= 4; ++d) b.push_back({d, 0});
    std::uint32_t base = 5;
    for (unsigned e = 1; e <= 13; ++e) {
      for (int k = 0; k < 2; ++k) {
        b.push_back({base, e});
        base += 1u << e;
      }
    }
    return b;
  }();
  return buckets;
}

std::size_t bucket_for(const std::vector<Bucket>& buckets, std::uint32_t v) {
  // Largest bucket whose base <= v.
  std::size_t lo = 0, hi = buckets.size();
  while (hi - lo > 1) {
    const std::size_t mid = (lo + hi) / 2;
    if (buckets[mid].base <= v)
      lo = mid;
    else
      hi = mid;
  }
  return lo;
}

constexpr std::uint32_t kEndOfBlock = 256;
constexpr std::uint32_t kLengthCodeBase = 257;
constexpr std::uint8_t kModeRaw = 0;
constexpr std::uint8_t kModeCompressed = 1;

// Per-thread working buffers, reset (not freed) between compress calls —
// same pattern as ZstdScratch so the chunked pipeline's steady state stays
// allocation-free. Both registry entries (zlib, gzip) share one scratch per
// thread; the codebooks are rebuilt in place per call.
struct DeflateScratch {
  std::vector<LzSequence> seqs;
  std::vector<std::uint32_t> litlen_syms, dist_syms;
  HuffmanCodebook litlen_book, dist_book;
  HuffmanWorkspace hws;
  BitWriter bits;
  ByteWriter body;
  ByteWriter framed;  // full frame for the compress_into path
};

DeflateScratch& t_scratch() {
  static thread_local DeflateScratch scratch;
  return scratch;
}

class DeflateLikeCodec final : public LosslessCodec {
 public:
  DeflateLikeCodec(LosslessId id, std::string name, unsigned max_chain)
      : id_(id), name_(std::move(name)), max_chain_(max_chain) {}

  LosslessId id() const override { return id_; }
  std::string name() const override { return name_; }

  void compress_into(ByteSpan data, Bytes& out) const override {
    ByteWriter& w = t_scratch().framed;
    w.reset();
    encode_frame(data, w);
    const ByteSpan frame = w.view();
    out.assign(frame.begin(), frame.end());
  }

 private:
  void encode_frame(ByteSpan data, ByteWriter& w) const {
    w.put_varint(data.size());
    if (data.empty()) {
      w.put_u8(kModeRaw);
      return;
    }
    LzParams params;
    params.window_log = 15;  // 32 KiB, the deflate window
    params.min_match = 3;
    params.max_match = 258;
    params.max_chain = max_chain_;
    params.lazy = true;
    DeflateScratch& s = t_scratch();
    lz77_parse(data, params, s.seqs);

    // Gather symbol statistics for the two alphabets.
    std::vector<std::uint32_t>& litlen_syms = s.litlen_syms;
    std::vector<std::uint32_t>& dist_syms = s.dist_syms;
    litlen_syms.clear();
    dist_syms.clear();
    for (const LzSequence& seq : s.seqs) {
      for (std::uint32_t i = 0; i < seq.literal_len; ++i)
        litlen_syms.push_back(data[seq.literal_start + i]);
      if (seq.match_len > 0) {
        litlen_syms.push_back(
            kLengthCodeBase +
            static_cast<std::uint32_t>(
                bucket_for(length_buckets(), seq.match_len)));
        dist_syms.push_back(static_cast<std::uint32_t>(
            bucket_for(distance_buckets(), seq.match_offset)));
      }
    }
    litlen_syms.push_back(kEndOfBlock);

    s.litlen_book.rebuild_from_symbols(litlen_syms, s.hws);
    s.dist_book.rebuild_from_symbols(dist_syms, s.hws);

    ByteWriter& body = s.body;
    body.reset();
    s.litlen_book.write_table(body);
    s.dist_book.write_table(body);
    BitWriter& bits = s.bits;
    bits.reset();
    for (const LzSequence& seq : s.seqs) {
      for (std::uint32_t i = 0; i < seq.literal_len; ++i)
        s.litlen_book.encode(bits, data[seq.literal_start + i]);
      if (seq.match_len > 0) {
        const std::size_t lb = bucket_for(length_buckets(), seq.match_len);
        s.litlen_book.encode(bits,
                             kLengthCodeBase + static_cast<std::uint32_t>(lb));
        bits.write(seq.match_len - length_buckets()[lb].base,
                   length_buckets()[lb].extra_bits);
        const std::size_t db = bucket_for(distance_buckets(), seq.match_offset);
        s.dist_book.encode(bits, static_cast<std::uint32_t>(db));
        bits.write(seq.match_offset - distance_buckets()[db].base,
                   distance_buckets()[db].extra_bits);
      }
    }
    s.litlen_book.encode(bits, kEndOfBlock);
    body.put_blob(bits.finish_view());

    const ByteSpan body_bytes = body.view();
    if (body_bytes.size() >= data.size()) {
      w.put_u8(kModeRaw);
      w.put_bytes(data);
    } else {
      w.put_u8(kModeCompressed);
      w.put_bytes(body_bytes);
    }
  }

 public:

  Bytes decompress(ByteSpan data) const override {
    ByteReader r(data);
    const auto raw_size = static_cast<std::size_t>(r.get_varint());
    const std::uint8_t mode = r.get_u8();
    if (mode == kModeRaw) {
      ByteSpan raw = r.get_bytes(raw_size);
      if (!r.done()) throw CorruptStream("deflate-like: trailing bytes");
      return Bytes(raw.begin(), raw.end());
    }
    if (mode != kModeCompressed)
      throw CorruptStream("deflate-like: unknown mode byte");
    const HuffmanCodebook litlen_book = HuffmanCodebook::read_table(r);
    const HuffmanCodebook dist_book = HuffmanCodebook::read_table(r);
    const Bytes payload = r.get_blob();
    if (!r.done()) throw CorruptStream("deflate-like: trailing bytes");
    BitReader bits({payload.data(), payload.size()});
    Bytes out;
    // raw_size is stream-borne: reserve no more than the payload can
    // produce (each code is at least one bit and yields at most 258 bytes).
    out.reserve(std::min<std::size_t>(raw_size, payload.size() * 8 * 258));
    while (true) {
      const std::uint32_t sym = litlen_book.decode(bits);
      if (sym < 256) {
        out.push_back(static_cast<std::uint8_t>(sym));
        continue;
      }
      if (sym == kEndOfBlock) break;
      const std::size_t lb = sym - kLengthCodeBase;
      if (lb >= length_buckets().size())
        throw CorruptStream("deflate-like: bad length code");
      const std::uint32_t len =
          length_buckets()[lb].base +
          static_cast<std::uint32_t>(
              bits.read(length_buckets()[lb].extra_bits));
      const std::size_t db = dist_book.decode(bits);
      if (db >= distance_buckets().size())
        throw CorruptStream("deflate-like: bad distance code");
      const std::uint32_t dist =
          distance_buckets()[db].base +
          static_cast<std::uint32_t>(
              bits.read(distance_buckets()[db].extra_bits));
      if (dist > out.size())
        throw CorruptStream("deflate-like: distance out of range");
      const std::size_t from = out.size() - dist;
      for (std::uint32_t i = 0; i < len; ++i) out.push_back(out[from + i]);
    }
    // The encoder pads only the last byte, so the codes must end in it.
    if (bits.bits_left() >= 8)
      throw CorruptStream("deflate-like: bytes after the end-of-block code");
    if (out.size() != raw_size)
      throw CorruptStream("deflate-like: size mismatch");
    return out;
  }

 private:
  LosslessId id_;
  std::string name_;
  unsigned max_chain_;
};

}  // namespace

const LosslessCodec& zlib_codec_instance() {
  static const DeflateLikeCodec codec(LosslessId::kZlib, "zlib", 48);
  return codec;
}

const LosslessCodec& gzip_codec_instance() {
  static const DeflateLikeCodec codec(LosslessId::kGzip, "gzip", 256);
  return codec;
}

}  // namespace fedsz::lossless
