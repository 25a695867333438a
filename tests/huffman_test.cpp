// Tests for the canonical Huffman coder shared by SZ2/SZ3 and the
// deflate/zstd-like lossless codecs.
#include <gtest/gtest.h>

#include <bit>

#include "compress/lossless/huffman.hpp"
#include "util/rng.hpp"

namespace fedsz::lossless {
namespace {

std::vector<std::uint32_t> roundtrip(std::span<const std::uint32_t> symbols) {
  const Bytes encoded = huffman_encode(symbols);
  return huffman_decode({encoded.data(), encoded.size()});
}

TEST(Huffman, EmptyInput) {
  const std::vector<std::uint32_t> symbols;
  EXPECT_EQ(roundtrip(symbols), symbols);
}

TEST(Huffman, SingleSymbolRepeated) {
  const std::vector<std::uint32_t> symbols(1000, 42);
  EXPECT_EQ(roundtrip(symbols), symbols);
  // One distinct symbol should cost ~1 bit each.
  const Bytes encoded = huffman_encode(symbols);
  EXPECT_LT(encoded.size(), 1000u / 8 + 32);
}

TEST(Huffman, TwoSymbols) {
  std::vector<std::uint32_t> symbols;
  for (int i = 0; i < 100; ++i) symbols.push_back(i % 2 ? 7 : 9);
  EXPECT_EQ(roundtrip(symbols), symbols);
}

TEST(Huffman, SkewedDistributionCompresses) {
  Rng rng(3);
  std::vector<std::uint32_t> symbols(20000);
  for (auto& s : symbols)
    s = rng.uniform() < 0.95 ? 0 : static_cast<std::uint32_t>(
                                       rng.uniform_index(200));
  EXPECT_EQ(roundtrip(symbols), symbols);
  const Bytes encoded = huffman_encode(symbols);
  // ~0.95*log2(1/0.95) + ... entropy well under 1 bit/symbol; allow slack.
  EXPECT_LT(encoded.size(), symbols.size() / 2);
}

TEST(Huffman, UniformDistributionRoundTrips) {
  Rng rng(5);
  std::vector<std::uint32_t> symbols(5000);
  for (auto& s : symbols)
    s = static_cast<std::uint32_t>(rng.uniform_index(256));
  EXPECT_EQ(roundtrip(symbols), symbols);
}

TEST(Huffman, LargeSparseAlphabet) {
  Rng rng(7);
  std::vector<std::uint32_t> symbols(5000);
  for (auto& s : symbols)
    s = 30000 + static_cast<std::uint32_t>(rng.uniform_index(5000));
  EXPECT_EQ(roundtrip(symbols), symbols);
}

TEST(Huffman, QuantizationCodeShapedData) {
  // Codes clustered around a radius midpoint, like SZ quantization output.
  Rng rng(9);
  std::vector<std::uint32_t> symbols(50000);
  for (auto& s : symbols)
    s = static_cast<std::uint32_t>(32768.0 + rng.laplace(0.0, 3.0));
  EXPECT_EQ(roundtrip(symbols), symbols);
  const Bytes encoded = huffman_encode(symbols);
  EXPECT_LT(encoded.size(), symbols.size());  // well under 8 bits each
}

TEST(Huffman, ExtremeSkewTriggersLengthLimit) {
  // Exponentially decaying frequencies force the unlimited Huffman tree past
  // 16 levels; the length-limit repair must keep the code decodable.
  std::vector<std::uint32_t> symbols;
  std::size_t count = 1;
  for (std::uint32_t s = 0; s < 24; ++s) {
    for (std::size_t i = 0; i < count; ++i) symbols.push_back(s);
    count *= 2;
    if (count > 500000) count = 500000;
  }
  EXPECT_EQ(roundtrip(symbols), symbols);
}

TEST(Huffman, CodebookCodeLengthsAreOrderedByFrequency) {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> freqs{
      {0, 1000}, {1, 100}, {2, 10}, {3, 1}};
  const HuffmanCodebook book = HuffmanCodebook::from_frequencies(freqs);
  EXPECT_LE(book.code_length(0), book.code_length(1));
  EXPECT_LE(book.code_length(1), book.code_length(2));
  EXPECT_LE(book.code_length(2), book.code_length(3));
  EXPECT_EQ(book.code_length(99), 0u);  // not in book
}

TEST(Huffman, CodebookEncodeUnknownSymbolThrows) {
  const HuffmanCodebook book = HuffmanCodebook::from_frequencies({{1, 5},
                                                                  {2, 5}});
  BitWriter bits;
  EXPECT_THROW(book.encode(bits, 3), InvalidArgument);
}

TEST(Huffman, TableRoundTripViaByteWriter) {
  Rng rng(11);
  std::vector<std::uint32_t> symbols(2000);
  for (auto& s : symbols) s = static_cast<std::uint32_t>(rng.uniform_index(50));
  const HuffmanCodebook book = HuffmanCodebook::from_symbols(symbols);
  ByteWriter w;
  book.write_table(w);
  const Bytes table = w.finish();
  ByteReader r({table.data(), table.size()});
  const HuffmanCodebook back = HuffmanCodebook::read_table(r);
  EXPECT_EQ(back.distinct_symbols(), book.distinct_symbols());
  // Codes must agree: encode with one, decode with the other.
  BitWriter bits;
  for (const auto s : symbols) book.encode(bits, s);
  const Bytes payload = bits.finish();
  BitReader br({payload.data(), payload.size()});
  for (const auto s : symbols) EXPECT_EQ(back.decode(br), s);
}

TEST(Huffman, DecodeCorruptStreamThrows) {
  // A codebook with lengths >1 cannot decode a stream of pure 1-bits longer
  // than any code if 0b111... is not assigned.
  const HuffmanCodebook book = HuffmanCodebook::from_frequencies(
      {{0, 8}, {1, 4}, {2, 2}, {3, 1}, {4, 1}});
  const Bytes all_ones(4, 0xFF);
  BitReader r({all_ones.data(), all_ones.size()});
  // Either decodes valid symbols or throws; drain and accept both, but a
  // truncated stream must eventually throw.
  EXPECT_THROW(
      {
        for (int i = 0; i < 100; ++i) (void)book.decode(r);
      },
      CorruptStream);
}

TEST(Huffman, TooManyDistinctSymbolsThrows) {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> freqs;
  freqs.reserve(65537);
  for (std::uint32_t s = 0; s < 65537; ++s) freqs.emplace_back(s, 1);
  EXPECT_THROW(HuffmanCodebook::from_frequencies(freqs), InvalidArgument);
}

TEST(Huffman, SymbolSpanOfTwoToTheSixteenThrows) {
  // Encoder tables are dense over [min, max] symbol, so max - min must stay
  // below 2^16.
  const std::vector<std::uint32_t> too_wide{7, 7 + 65536, 7};
  HuffmanWorkspace ws;
  EXPECT_THROW(huffman_count(too_wide, ws), InvalidArgument);
  EXPECT_THROW(huffman_encode(too_wide), InvalidArgument);
  EXPECT_THROW(HuffmanCodebook::from_frequencies({{7, 2}, {7 + 65536, 1}}),
               InvalidArgument);
  const std::vector<std::uint32_t> widest{7, 7 + 65535, 7};
  EXPECT_EQ(roundtrip(widest), widest);
}

TEST(Huffman, DeterministicEncoding) {
  Rng rng(13);
  std::vector<std::uint32_t> symbols(3000);
  for (auto& s : symbols) s = static_cast<std::uint32_t>(rng.uniform_index(99));
  EXPECT_EQ(huffman_encode(symbols), huffman_encode(symbols));
}

TEST(Huffman, CallerBufferEncodeMatchesOneShotEncode) {
  Rng rng(47);
  ByteWriter out;
  BitWriter bits;
  // Dirty, reused buffers across wildly different payload sizes: the
  // appended bytes must always equal the self-contained one-shot encoding.
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{4096}, std::size_t{33},
                              std::size_t{20000}, std::size_t{2}}) {
    std::vector<std::uint32_t> symbols(n);
    for (auto& s : symbols)
      s = static_cast<std::uint32_t>(rng.uniform_index(300));
    const Bytes reference = huffman_encode(symbols);
    out.reset();
    huffman_encode(symbols, out, bits);
    const ByteSpan view = out.view();
    EXPECT_EQ(Bytes(view.begin(), view.end()), reference) << "n=" << n;
  }
}

TEST(Huffman, CallerBufferDecodeMatchesOneShotDecode) {
  Rng rng(48);
  std::vector<std::uint32_t> decoded;
  decoded.assign(999, 0xDEADBEEF);  // stale content must be discarded
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{512}, std::size_t{3}, std::size_t{9000}}) {
    std::vector<std::uint32_t> symbols(n);
    for (auto& s : symbols)
      s = static_cast<std::uint32_t>(rng.uniform_index(64));
    const Bytes encoded = huffman_encode(symbols);
    huffman_decode({encoded.data(), encoded.size()}, decoded);
    EXPECT_EQ(decoded, symbols) << "n=" << n;
  }
}

TEST(Huffman, CallerBufferEncodeAppendsAfterExistingBytes) {
  // The overload appends to whatever `out` already holds (the sz2/sz3
  // arena writes a codec header first), so a prefix must survive intact.
  std::vector<std::uint32_t> symbols{5, 5, 5, 9, 9, 2};
  ByteWriter out;
  out.put_u8(0xAB);
  out.put_u8(0xCD);
  BitWriter bits;
  huffman_encode(symbols, out, bits);
  const ByteSpan view = out.view();
  ASSERT_GE(view.size(), 2u);
  EXPECT_EQ(view[0], 0xAB);
  EXPECT_EQ(view[1], 0xCD);
  const Bytes reference = huffman_encode(symbols);
  EXPECT_EQ(Bytes(view.begin() + 2, view.end()), reference);
}

/// A stream declaring `count` symbols of a one-symbol book (code length 1)
/// over `payload_bytes` zero bytes.
Bytes one_symbol_stream(std::uint64_t count, std::size_t payload_bytes) {
  ByteWriter w;
  w.put_varint(count);
  w.put_varint(1);  // table: one symbol
  w.put_varint(5);  // symbol 5
  w.put_u8(1);      // code length 1
  const Bytes payload(payload_bytes, 0);
  w.put_blob({payload.data(), payload.size()});
  return w.finish();
}

TEST(Huffman, OversizedDeclaredCountThrowsCorruptStream) {
  // Every code is at least one bit, so a count above 8 per payload byte is
  // corrupt — rejected before the output is sized, not attempted as a
  // multi-terabyte allocation.
  std::vector<std::uint32_t> out;
  for (const std::uint64_t count :
       {std::uint64_t{9}, std::uint64_t{1} << 40, std::uint64_t{1} << 62}) {
    const Bytes stream = one_symbol_stream(count, 1);
    EXPECT_THROW(huffman_decode({stream.data(), stream.size()}, out),
                 CorruptStream)
        << count;
  }
  // Exactly 8 one-bit codes per byte is the limit and decodes.
  const Bytes full = one_symbol_stream(8, 1);
  huffman_decode({full.data(), full.size()}, out);
  EXPECT_EQ(out, std::vector<std::uint32_t>(8, 5));
}

TEST(Huffman, DecodeAllMatchesPerSymbolDecode) {
  // The word-at-a-time block decoder must agree with one decode() call per
  // symbol: same symbols from valid streams, and CorruptStream at the same
  // point from damaged or truncated ones (including codes longer than the
  // root table and the buffer tail where the word loads stop).
  Rng rng(61);
  for (int trial = 0; trial < 200; ++trial) {
    // Geometric symbols over thousands of draws give codes longer than
    // kDecodeRootBits; the other trials draw from small or wide alphabets.
    const bool geometric = trial % 4 == 3;
    const std::size_t alphabet = 1 + rng.uniform_index(trial % 2 ? 40 : 3000);
    std::vector<std::uint32_t> symbols(
        1 + rng.uniform_index(geometric ? 6000 : 400));
    for (auto& s : symbols) {
      s = geometric ? static_cast<std::uint32_t>(std::countr_zero(
                          rng.next_u64() | (std::uint64_t{1} << 20)))
                    : static_cast<std::uint32_t>(rng.uniform_index(alphabet));
    }
    const HuffmanCodebook book = HuffmanCodebook::from_symbols(symbols);
    BitWriter w;
    book.encode_all(symbols, w);
    Bytes payload = w.finish();
    if (trial % 3 == 1 && !payload.empty())
      payload[rng.uniform_index(payload.size())] ^=
          static_cast<std::uint8_t>(1u << rng.uniform_index(8));
    if (trial % 3 == 2) payload.resize(payload.size() / 2);
    const ByteSpan span{payload.data(), payload.size()};

    std::vector<std::uint32_t> one_by_one;
    bool one_by_one_threw = false;
    BitReader a(span);
    try {
      for (std::size_t i = 0; i < symbols.size(); ++i)
        one_by_one.push_back(book.decode(a));
    } catch (const CorruptStream&) {
      one_by_one_threw = true;
    }
    std::vector<std::uint32_t> block(symbols.size());
    bool block_threw = false;
    BitReader b(span);
    try {
      book.decode_all(b, block);
    } catch (const CorruptStream&) {
      block_threw = true;
    }
    ASSERT_EQ(block_threw, one_by_one_threw) << "trial " << trial;
    if (!block_threw) {
      EXPECT_EQ(block, one_by_one) << "trial " << trial;
      EXPECT_EQ(b.bits_left(), a.bits_left()) << "trial " << trial;
      if (trial % 3 == 0) {
        EXPECT_EQ(block, symbols) << "trial " << trial;
      }
    }
  }
}

TEST(Huffman, PlannedSizeMatchesEncodedSize) {
  Rng rng(62);
  HuffmanWorkspace ws;
  ByteWriter out;
  BitWriter bits;
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{300}, std::size_t{65536}}) {
    // 65536 is the widest span an encoder accepts.
    for (const std::uint32_t spread : {1u, 7u, 200u, 65536u}) {
      std::vector<std::uint32_t> symbols(n);
      for (auto& s : symbols)
        s = 32768 + static_cast<std::uint32_t>(rng.uniform_index(spread));
      huffman_count(symbols, ws);
      const std::size_t planned = huffman_plan(ws);
      out.reset();
      huffman_write(symbols, ws, out, bits);
      EXPECT_EQ(out.size(), planned) << "n=" << n << " spread=" << spread;
      const ByteSpan view = out.view();
      EXPECT_EQ(Bytes(view.begin(), view.end()), huffman_encode(symbols))
          << "n=" << n << " spread=" << spread;
    }
  }
}

}  // namespace
}  // namespace fedsz::lossless
