// Parameterized conformance tests over the whole lossless codec suite:
// every codec must round-trip every data pattern exactly, behave on empty
// and incompressible input, and stay within stored-raw overhead bounds.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "compress/lossless/huffman.hpp"
#include "compress/lossless/lossless.hpp"
#include "compress/lossy/lossy.hpp"
#include "util/bitstream.hpp"
#include "util/bytebuffer.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace fedsz::lossless {
namespace {

// ---- data pattern generators ----

Bytes pattern_empty(Rng&) { return {}; }

Bytes pattern_single_byte(Rng&) { return {0x42}; }

Bytes pattern_zeros(Rng&) { return Bytes(10000, 0); }

Bytes pattern_constant(Rng&) { return Bytes(8192, 0xA5); }

Bytes pattern_random(Rng& rng) {
  Bytes data(30000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  return data;
}

Bytes pattern_text(Rng& rng) {
  const char* words[] = {"client", "server", "gradient", "round", "epoch",
                         "model",  "update", "the",      "and"};
  Bytes data;
  while (data.size() < 30000) {
    const char* w = words[rng.uniform_index(9)];
    data.insert(data.end(), w, w + std::strlen(w));
    data.push_back(' ');
  }
  return data;
}

Bytes pattern_float_weights(Rng& rng) {
  std::vector<float> values(8000);
  for (auto& v : values) v = static_cast<float>(rng.laplace(0.0, 0.05));
  Bytes data(values.size() * sizeof(float));
  std::memcpy(data.data(), values.data(), data.size());
  return data;
}

Bytes pattern_ramp(Rng&) {
  Bytes data(20000);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i / 100);
  return data;
}

/// `block` followed by a copy of itself.
Bytes twice(const Bytes& block) {
  Bytes data;
  for (int i = 0; i < 2; ++i)
    data.insert(data.end(), block.begin(), block.end());
  return data;
}

Bytes pattern_random_plus_copy(Rng& rng) {
  // A long literal run, then a repeat of all of it: a skip-ahead parse is
  // stepping quickly by the time the copy starts.
  return twice(pattern_random(rng));
}

Bytes pattern_repeating_block(Rng& rng) {
  Bytes block(97);
  for (auto& b : block) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  Bytes data;
  for (int i = 0; i < 300; ++i)
    data.insert(data.end(), block.begin(), block.end());
  return data;
}

struct PatternCase {
  const char* name;
  Bytes (*make)(Rng&);
  bool expect_compressible;
};

const PatternCase kPatterns[] = {
    {"empty", pattern_empty, false},
    {"single_byte", pattern_single_byte, false},
    {"zeros", pattern_zeros, true},
    {"constant", pattern_constant, true},
    {"random", pattern_random, false},
    {"random_plus_copy", pattern_random_plus_copy, true},
    {"text", pattern_text, true},
    {"float_weights", pattern_float_weights, false},
    {"ramp", pattern_ramp, true},
    {"repeating_block", pattern_repeating_block, true},
};

struct Case {
  LosslessId codec;
  const PatternCase* pattern;
};

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const LosslessCodec* codec : all_lossless_codecs())
    for (const PatternCase& p : kPatterns) cases.push_back({codec->id(), &p});
  return cases;
}

class LosslessRoundTrip : public ::testing::TestWithParam<Case> {};

TEST_P(LosslessRoundTrip, ExactReconstruction) {
  const auto& [id, pattern] = GetParam();
  const LosslessCodec& codec = lossless_codec(id);
  Rng rng(1001);
  const Bytes data = pattern->make(rng);
  const Bytes compressed = codec.compress({data.data(), data.size()});
  const Bytes back = codec.decompress({compressed.data(), compressed.size()});
  EXPECT_EQ(back, data);
}

TEST_P(LosslessRoundTrip, BoundedExpansion) {
  const auto& [id, pattern] = GetParam();
  const LosslessCodec& codec = lossless_codec(id);
  Rng rng(1002);
  const Bytes data = pattern->make(rng);
  const Bytes compressed = codec.compress({data.data(), data.size()});
  // Stored-raw fallback caps expansion at a small constant header.
  EXPECT_LE(compressed.size(), data.size() + 16);
}

TEST_P(LosslessRoundTrip, CompressibleDataShrinks) {
  const auto& [id, pattern] = GetParam();
  if (!pattern->expect_compressible) GTEST_SKIP();
  const LosslessCodec& codec = lossless_codec(id);
  Rng rng(1003);
  const Bytes data = pattern->make(rng);
  const Bytes compressed = codec.compress({data.data(), data.size()});
  // blosc-lz (fast LZ, no entropy stage) compresses text least; 2/3 is a
  // floor every codec clears, the entropy-coded ones by a wide margin.
  EXPECT_LT(compressed.size(), data.size() * 2 / 3)
      << codec.name() << " on " << pattern->name;
}

TEST_P(LosslessRoundTrip, DeterministicOutput) {
  const auto& [id, pattern] = GetParam();
  const LosslessCodec& codec = lossless_codec(id);
  Rng rng_a(1004), rng_b(1004);
  const Bytes a = pattern->make(rng_a);
  const Bytes b = pattern->make(rng_b);
  EXPECT_EQ(codec.compress({a.data(), a.size()}),
            codec.compress({b.data(), b.size()}));
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  std::string name = lossless_codec(info.param.codec).name() + "_" +
                     info.param.pattern->name;
  for (auto& c : name)
    if (c == '-') c = '_';
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllCodecsAllPatterns, LosslessRoundTrip,
                         ::testing::ValuesIn(all_cases()), case_name);

// ---- registry & codec-specific behaviour ----

TEST(LosslessRegistry, AllFiveCodecsPresent) {
  const auto codecs = all_lossless_codecs();
  ASSERT_EQ(codecs.size(), 5u);
  std::vector<std::string> names;
  for (const auto* c : codecs) names.push_back(c->name());
  EXPECT_EQ(names[0], "blosc-lz");
  EXPECT_EQ(names[1], "zlib");
  EXPECT_EQ(names[2], "zstd");
  EXPECT_EQ(names[3], "gzip");
  EXPECT_EQ(names[4], "xz");
}

TEST(LosslessRegistry, LookupByNameAndId) {
  EXPECT_EQ(lossless_codec("zstd").id(), LosslessId::kZstd);
  EXPECT_EQ(lossless_codec(LosslessId::kXz).name(), "xz");
  EXPECT_THROW(lossless_codec("lz999"), InvalidArgument);
  EXPECT_THROW(lossless_codec(static_cast<LosslessId>(99)), InvalidArgument);
}

TEST(Lossless, XzBeatsBloscOnText) {
  Rng rng(2001);
  const Bytes data = pattern_text(rng);
  const Bytes xz = lossless_codec(LosslessId::kXz).compress({data.data(),
                                                             data.size()});
  const Bytes blosc = lossless_codec(LosslessId::kBloscLz)
                          .compress({data.data(), data.size()});
  EXPECT_LT(xz.size(), blosc.size());
}

TEST(Lossless, ShuffleMakesBloscCompetitiveOnFloats) {
  // The Table II surprise: blosc-lz (shuffle + fast LZ) reaches xz-class
  // ratios on float metadata while deflate-family codecs lag.
  Rng rng(2002);
  std::vector<float> values(16384);
  for (auto& v : values) v = static_cast<float>(rng.normal(0.0, 0.02));
  ByteSpan raw = as_bytes({values.data(), values.size()});
  const std::size_t blosc =
      lossless_codec(LosslessId::kBloscLz).compress(raw).size();
  const std::size_t zlib =
      lossless_codec(LosslessId::kZlib).compress(raw).size();
  EXPECT_LT(blosc, raw.size());      // compresses at all
  EXPECT_LT(blosc, zlib + zlib / 4); // and is at least zlib-class
}

TEST(Lossless, DecompressGarbageThrowsOrFailsSafely) {
  Rng rng(2003);
  Bytes garbage(100);
  for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  for (const LosslessCodec* codec : all_lossless_codecs()) {
    try {
      const Bytes out = codec->decompress({garbage.data(), garbage.size()});
      // Some random buffers happen to parse; that's acceptable as long as no
      // crash/UB occurs. Nothing to assert in that case.
      (void)out;
    } catch (const CorruptStream&) {
    } catch (const InvalidArgument&) {
    }
  }
}

TEST(Lossless, DecompressEmptyBufferThrows) {
  for (const LosslessCodec* codec : all_lossless_codecs())
    EXPECT_THROW(codec->decompress({}), CorruptStream) << codec->name();
}

TEST(Lossless, StoredRawFrameDeclaringNearSizeMaxThrows) {
  // A stored-raw frame that declares 2^64-1 or 2^64-2 bytes but carries
  // one: the stream-borne size must not wrap the reader's bounds check.
  for (const LosslessCodec* codec : all_lossless_codecs()) {
    for (const std::uint64_t declared : {UINT64_MAX, UINT64_MAX - 1}) {
      ByteWriter w;
      if (codec->id() == LosslessId::kBloscLz) {
        w.put_u8(0x02);  // flags: stored raw; the size follows
        w.put_varint(declared);
      } else {
        w.put_varint(declared);
        w.put_u8(0);  // mode: stored raw
      }
      w.put_u8(0xAB);  // the one byte actually present
      const Bytes frame = w.finish();
      EXPECT_THROW(codec->decompress({frame.data(), frame.size()}),
                   CorruptStream)
          << codec->name() << " declaring " << declared;
    }
  }
}

TEST(Lossless, CompressedFrameDeclaringNearSizeMaxThrows) {
  // A real compressed body under a declared size of 2^64-1 or 2^64-2: the
  // decoder must neither reserve the declared size nor run past the body.
  Bytes data(4096);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i % 7);
  for (const LosslessId id : {LosslessId::kBloscLz, LosslessId::kXz}) {
    const LosslessCodec& codec = lossless_codec(id);
    const Bytes frame = codec.compress({data.data(), data.size()});
    ByteReader r({frame.data(), frame.size()});
    const bool flags_first = id == LosslessId::kBloscLz;
    const std::uint8_t flags = flags_first ? r.get_u8() : 0;
    r.get_varint();  // the true size, 4096
    const std::uint8_t mode = flags_first ? 0 : r.get_u8();
    const ByteSpan body = r.get_bytes(r.remaining());
    ASSERT_LT(body.size(), data.size()) << codec.name();  // compressed
    for (const std::uint64_t declared : {UINT64_MAX, UINT64_MAX - 1}) {
      ByteWriter w;
      if (flags_first) w.put_u8(flags);
      w.put_varint(declared);
      if (!flags_first) w.put_u8(mode);
      w.put_bytes(body);
      const Bytes forged = w.finish();
      EXPECT_THROW(codec.decompress({forged.data(), forged.size()}),
                   CorruptStream)
          << codec.name() << " declaring " << declared;
    }
  }
}

TEST(Lossless, LargeInputRoundTrips) {
  Rng rng(2004);
  Bytes data(2 * 1024 * 1024);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>((i / 512 + rng.uniform_index(3)) % 256);
  for (const LosslessCodec* codec : all_lossless_codecs()) {
    const Bytes compressed = codec->compress({data.data(), data.size()});
    EXPECT_EQ(codec->decompress({compressed.data(), compressed.size()}), data)
        << codec->name();
    EXPECT_LT(compressed.size(), data.size()) << codec->name();
  }
}

// ---- zstd-like byte pins ----
//
// The zstd-like encoder picks a raw or a compressed frame from the exact
// body size, computed before any bits are packed. These size/CRC pins were
// recorded from the encoder that packed the whole body first and compared
// afterwards; the inputs sit on both sides of that decision.

Bytes random_bytes(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  Bytes data(n);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  return data;
}

Bytes header_then_random(std::size_t header_repeats, std::size_t n) {
  const char* header = "fedsz-chunk:";
  Bytes data;
  for (std::size_t i = 0; i < header_repeats; ++i)
    data.insert(data.end(), header, header + std::strlen(header));
  const Bytes tail = random_bytes(77, n);
  data.insert(data.end(), tail.begin(), tail.end());
  return data;
}

struct ZstdPin {
  std::string name;
  Bytes input;
  std::size_t frame_size;
  std::uint32_t frame_crc;
  bool compressed;
};

std::vector<ZstdPin> zstd_pins() {
  std::vector<ZstdPin> pins{
      {"random_4096", random_bytes(71, 4096), 0, 0, false},
      // 56 header repeats is the longest header that still leaves the
      // frame raw; one more tips it to compressed.
      {"header56_random", header_then_random(56, 4096), 0, 0, false},
      {"header57_random", header_then_random(57, 4096), 0, 0, true},
      {"zeros_10000", Bytes(10000, 0), 0, 0, true},
  };
  for (std::size_t n = 1; n <= 8; ++n)
    pins.push_back({"random_" + std::to_string(n), random_bytes(100 + n, n),
                    0, 0, false});
  const std::pair<std::size_t, std::uint32_t> recorded[] = {
      {4099, 1541044009u}, {4771, 3128297918u}, {4777, 1957305382u},
      {35, 4151841679u},   {3, 3347054823u},    {4, 1729314084u},
      {5, 655678001u},     {6, 3442697661u},    {7, 4600907u},
      {8, 3751724113u},    {9, 3095694292u},    {10, 3724149709u}};
  for (std::size_t i = 0; i < pins.size(); ++i) {
    pins[i].frame_size = recorded[i].first;
    pins[i].frame_crc = recorded[i].second;
  }
  return pins;
}

TEST(ZstdLike, FramesMatchRecordedBytes) {
  const LosslessCodec& zstd = lossless_codec(LosslessId::kZstd);
  for (const ZstdPin& pin : zstd_pins()) {
    const ByteSpan input{pin.input.data(), pin.input.size()};
    const Bytes frame = zstd.compress(input);
    Bytes into;
    zstd.compress_into(input, into);
    EXPECT_EQ(into, frame) << pin.name;
    EXPECT_EQ(frame.size(), pin.frame_size) << pin.name;
    EXPECT_EQ(util::crc32({frame.data(), frame.size()}), pin.frame_crc)
        << pin.name;
    // Mode byte follows the size varint: 1 = compressed, 0 = raw.
    ASSERT_GT(frame.size(), varint_size(pin.input.size())) << pin.name;
    EXPECT_EQ(frame[varint_size(pin.input.size())], pin.compressed ? 1 : 0)
        << pin.name;
    EXPECT_EQ(zstd.decompress({frame.data(), frame.size()}), pin.input)
        << pin.name;
  }
}

TEST(ZstdLike, BytesAfterTheFrameThrow) {
  const LosslessCodec& zstd = lossless_codec(LosslessId::kZstd);
  const Bytes inputs[] = {random_bytes(93, 4096), Bytes(10000, 0)};
  for (const Bytes& input : inputs) {
    Bytes frame = zstd.compress({input.data(), input.size()});
    ASSERT_EQ(zstd.decompress({frame.data(), frame.size()}), input);
    frame.push_back(0);
    frame.push_back(0);
    EXPECT_THROW(zstd.decompress({frame.data(), frame.size()}), CorruptStream)
        << "mode " << int{frame[varint_size(input.size())]};
  }
}

// ---- zstd-like screening parse ----
//
// Each frame is sized from a skip-ahead parse first; only a frame that
// shrinks under it runs the exact parse, which then decides and writes.

TEST(ZstdLike, ScreenDoesNotMissALongRepeat) {
  // The copy starts 16 KB into a literal run, where the screen steps ~65
  // bytes at a time; the frame must still come out compressed.
  const LosslessCodec& zstd = lossless_codec(LosslessId::kZstd);
  const Bytes block = random_bytes(91, 16 * 1024);
  const Bytes data = twice(block);
  const Bytes frame = zstd.compress({data.data(), data.size()});
  EXPECT_EQ(frame[varint_size(data.size())], 1);  // compressed
  // The copy costs one match: the frame is the first block's literals.
  EXPECT_LT(frame.size(), block.size() + block.size() / 8);
  EXPECT_EQ(zstd.decompress({frame.data(), frame.size()}), data);
}

TEST(ZstdLike, RoundTripsRealSzBodies) {
  // The bodies SZ2/SZ3 hand this backend; random, random-plus-copy and
  // all-zero input run through every codec in AllCodecsAllPatterns.
  const LosslessCodec& zstd = lossless_codec(LosslessId::kZstd);
  Rng rng(95);
  std::vector<float> weights(65536);
  for (auto& v : weights) v = static_cast<float>(rng.laplace(0.0, 0.05));
  for (const lossy::LossyId id : {lossy::LossyId::kSz2, lossy::LossyId::kSz3})
    for (const double rel : {1e-2, 1e-4}) {
      const lossy::LossyCodec& codec = lossy::lossy_codec(id);
      SCOPED_TRACE(codec.name() + " rel=" + std::to_string(rel));
      const Bytes stream = codec.compress({weights.data(), weights.size()},
                                          lossy::ErrorBound::relative(rel));
      const Bytes body = zstd.decompress({stream.data(), stream.size()});
      // The codec's own stream is this backend's frame of its body.
      EXPECT_EQ(zstd.compress({body.data(), body.size()}), stream);
      EXPECT_LE(stream.size(), body.size() + 16);
    }
}

TEST(ZstdLike, OversizedDeclaredSizeThrowsCorruptStream) {
  // A compressed frame declaring 2^62 output bytes but carrying empty
  // streams: rejected as corrupt, not attempted as a 4 EiB reservation.
  ByteWriter w;
  w.put_varint(std::uint64_t{1} << 62);
  w.put_u8(1);      // compressed
  w.put_varint(0);  // trailing literals
  const std::uint8_t empty_stream[] = {0};
  for (int k = 0; k < 4; ++k) w.put_blob(empty_stream);
  w.put_blob({});  // extras
  const Bytes frame = w.finish();
  EXPECT_THROW(lossless_codec(LosslessId::kZstd)
                   .decompress({frame.data(), frame.size()}),
               CorruptStream);
}

TEST(ZstdLike, MatchPastDeclaredSizeThrowsBeforeGrowing) {
  // One literal, then a ~2^31-byte match against a declared size of 10:
  // rejected before the match is copied.
  const std::uint32_t literal[] = {'a'};
  const std::uint32_t ll[] = {1};   // literal length 1
  const std::uint32_t ml[] = {43};  // 2^31 + 31 extra bits (zero) + 4
  const std::uint32_t of[] = {1};   // offset 1
  BitWriter extras;
  extras.write(0, 31);
  ByteWriter w;
  w.put_varint(10);
  w.put_u8(1);      // compressed
  w.put_varint(0);  // trailing literals
  for (const auto stream : {std::span<const std::uint32_t>(literal),
                            std::span<const std::uint32_t>(ll),
                            std::span<const std::uint32_t>(ml),
                            std::span<const std::uint32_t>(of)}) {
    const Bytes block = huffman_encode(stream);
    w.put_blob({block.data(), block.size()});
  }
  w.put_blob(extras.finish_view());
  const Bytes frame = w.finish();
  EXPECT_THROW(lossless_codec(LosslessId::kZstd)
                   .decompress({frame.data(), frame.size()}),
               CorruptStream);
}

TEST(DeflateLike, BytesAfterTheEndOfBlockCodeThrowCorruptStream) {
  // A compressed zlib or gzip frame ends in its Huffman codes as one
  // length-prefixed blob. Raising that length by one and appending a zero
  // byte leaves every code intact, so only a check that the codes end in
  // the blob's last byte rejects the frame.
  Bytes data;
  for (int i = 0; i < 8192; ++i)
    data.push_back(static_cast<std::uint8_t>("federated"[i % 9]));
  for (const LosslessId id : {LosslessId::kZlib, LosslessId::kGzip}) {
    const LosslessCodec& codec = lossless_codec(id);
    SCOPED_TRACE(codec.name());
    const Bytes frame = codec.compress({data.data(), data.size()});
    ByteReader r({frame.data(), frame.size()});
    r.get_varint();                  // raw size
    ASSERT_EQ(r.get_u8(), 1);        // a compressed frame
    HuffmanCodebook::read_table(r);  // literal/length codes
    HuffmanCodebook::read_table(r);  // distance codes
    const std::size_t blob_at = frame.size() - r.remaining();
    Bytes codes = r.get_blob();
    ASSERT_TRUE(r.done());
    codes.push_back(0);
    ByteWriter w;
    w.put_bytes({frame.data(), blob_at});
    w.put_blob({codes.data(), codes.size()});
    const Bytes padded = w.finish();
    EXPECT_EQ(codec.decompress({frame.data(), frame.size()}), data);
    EXPECT_THROW(codec.decompress({padded.data(), padded.size()}),
                 CorruptStream);
  }
}

}  // namespace
}  // namespace fedsz::lossless
