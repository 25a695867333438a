// Tests for the shared LZ77 match finder and the byte-shuffle transform.
#include <gtest/gtest.h>

#include <cstring>

#include "compress/lossless/lz77.hpp"
#include "util/rng.hpp"

namespace fedsz::lossless {
namespace {

Bytes ascii(const std::string& s) {
  return Bytes(s.begin(), s.end());
}

Bytes random_data(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  Bytes data(n);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  return data;
}

Bytes text_data(std::uint64_t seed) {
  Rng rng(seed);
  Bytes data;
  const char* words[] = {"federated", "learning", "compression", "error",
                         "bounded", "lossy", "the", "of"};
  for (int i = 0; i < 2000; ++i) {
    const char* word = words[rng.uniform_index(8)];
    data.insert(data.end(), word, word + std::strlen(word));
    data.push_back(' ');
  }
  return data;
}

Bytes roundtrip(ByteSpan data, const LzParams& params) {
  const auto seqs = lz77_parse(data, params);
  return lz77_reconstruct(data, seqs, data.size());
}

TEST(Lz77, EmptyInputProducesNoSequences) {
  EXPECT_TRUE(lz77_parse({}, LzParams{}).empty());
}

TEST(Lz77, AllLiteralInputRoundTrips) {
  const Bytes data = ascii("abcdefgh");
  const auto seqs = lz77_parse({data.data(), data.size()}, LzParams{});
  ASSERT_EQ(seqs.size(), 1u);
  EXPECT_EQ(seqs[0].match_len, 0u);
  EXPECT_EQ(seqs[0].literal_len, data.size());
  EXPECT_EQ(roundtrip({data.data(), data.size()}, LzParams{}), data);
}

TEST(Lz77, RepeatedPatternFindsMatches) {
  Bytes data;
  for (int i = 0; i < 50; ++i) {
    const Bytes chunk = ascii("pattern!");
    data.insert(data.end(), chunk.begin(), chunk.end());
  }
  const auto seqs = lz77_parse({data.data(), data.size()}, LzParams{});
  EXPECT_LT(seqs.size(), 6u);  // nearly everything collapses to matches
  EXPECT_EQ(roundtrip({data.data(), data.size()}, LzParams{}), data);
}

TEST(Lz77, OverlappingMatchRunLengthEncoding) {
  const Bytes data(500, 0x55);  // RLE degenerates to offset-1 matches
  const auto seqs = lz77_parse({data.data(), data.size()}, LzParams{});
  ASSERT_GE(seqs.size(), 1u);
  EXPECT_EQ(seqs[0].match_offset, 1u);
  EXPECT_EQ(roundtrip({data.data(), data.size()}, LzParams{}), data);
}

TEST(Lz77, RandomDataRoundTrips) {
  const Bytes data = random_data(3, 20000);
  EXPECT_EQ(roundtrip({data.data(), data.size()}, LzParams{}), data);
}

TEST(Lz77, TextLikeDataRoundTripsWithLazyMatching) {
  const Bytes data = text_data(5);
  LzParams lazy;
  lazy.lazy = true;
  lazy.max_chain = 64;
  EXPECT_EQ(roundtrip({data.data(), data.size()}, lazy), data);
  // Lazy matching should not produce more sequences than greedy.
  LzParams greedy = lazy;
  greedy.lazy = false;
  EXPECT_LE(lz77_parse({data.data(), data.size()}, lazy).size(),
            lz77_parse({data.data(), data.size()}, greedy).size() + 50);
}

TEST(Lz77, MinMatchThreeSupported) {
  LzParams params;
  params.min_match = 3;
  Bytes data = ascii("abcXabcYabcZ");
  const auto seqs = lz77_parse({data.data(), data.size()}, params);
  EXPECT_EQ(roundtrip({data.data(), data.size()}, params), data);
  bool found_match = false;
  for (const auto& s : seqs)
    if (s.match_len >= 3) found_match = true;
  EXPECT_TRUE(found_match);
}

TEST(Lz77, MinMatchBelowThreeThrows) {
  LzParams params;
  params.min_match = 2;
  const Bytes data = ascii("xx");
  EXPECT_THROW(lz77_parse({data.data(), data.size()}, params),
               InvalidArgument);
}

TEST(Lz77, WindowLimitRespected) {
  LzParams params;
  params.window_log = 8;  // 256-byte window
  Rng rng(7);
  Bytes data(4096);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_index(4));
  const auto seqs = lz77_parse({data.data(), data.size()}, params);
  for (const auto& s : seqs)
    EXPECT_LE(s.match_offset, (1u << 8) + 0u);
  EXPECT_EQ(roundtrip({data.data(), data.size()}, params), data);
}

TEST(Lz77, MaxMatchCapRespected) {
  LzParams params;
  params.max_match = 64;
  const Bytes data(1000, 0xAA);
  const auto seqs = lz77_parse({data.data(), data.size()}, params);
  for (const auto& s : seqs) EXPECT_LE(s.match_len, 64u);
  EXPECT_EQ(roundtrip({data.data(), data.size()}, params), data);
}

TEST(Lz77, ReconstructValidatesBounds) {
  const Bytes data = ascii("abc");
  std::vector<LzSequence> bad{{0, 3, 5, 10}};  // offset 10 > output size
  EXPECT_THROW(lz77_reconstruct({data.data(), data.size()}, bad, 8),
               CorruptStream);
}

// ---- skip-ahead (screening) parse ----

LzParams skip_ahead() {
  LzParams params;
  params.window_log = 20;
  params.max_chain = 64;
  params.lazy = true;
  params.skip_log = 8;
  return params;
}

TEST(Lz77SkipAhead, RoundTripsEveryInputShape) {
  Bytes repeated;
  for (int i = 0; i < 50; ++i) {
    const Bytes chunk = ascii("pattern!");
    repeated.insert(repeated.end(), chunk.begin(), chunk.end());
  }
  const Bytes inputs[] = {random_data(3, 20000), repeated, Bytes(500, 0x55),
                          text_data(5)};
  for (const Bytes& data : inputs)
    EXPECT_EQ(roundtrip({data.data(), data.size()}, skip_ahead()), data)
        << data.size() << " bytes";
}

TEST(Lz77SkipAhead, RandomBytesAreOneLiteralSequence) {
  const Bytes data = random_data(3, 64 * 1024);
  const auto seqs = lz77_parse({data.data(), data.size()}, skip_ahead());
  ASSERT_EQ(seqs.size(), 1u);
  EXPECT_EQ(seqs[0].literal_start, 0u);
  EXPECT_EQ(seqs[0].literal_len, data.size());
  EXPECT_EQ(seqs[0].match_len, 0u);
}

TEST(Lz77SkipAhead, ShortLiteralRunsParseLikeEveryPosition) {
  // The step only grows past 1 once a literal run reaches 256 bytes, so a
  // parse whose runs stay shorter is the every-position parse.
  const Bytes data = text_data(5);
  LzParams exact = skip_ahead();
  exact.skip_log = 0;
  const auto screened = lz77_parse({data.data(), data.size()}, skip_ahead());
  const auto reference = lz77_parse({data.data(), data.size()}, exact);
  ASSERT_EQ(screened.size(), reference.size());
  for (std::size_t i = 0; i < screened.size(); ++i) {
    EXPECT_LT(reference[i].literal_len, 256u);
    EXPECT_EQ(screened[i].literal_start, reference[i].literal_start);
    EXPECT_EQ(screened[i].literal_len, reference[i].literal_len);
    EXPECT_EQ(screened[i].match_len, reference[i].match_len);
    EXPECT_EQ(screened[i].match_offset, reference[i].match_offset);
  }
}

TEST(Lz77SkipAhead, FindsARepeatAfterALongLiteralRun) {
  // 16 KB of random bytes, then the same 16 KB again: the parse is skipping
  // ~65 bytes at a time when the copy starts, but the first block's head
  // was inserted densely, so the copy is still found.
  const Bytes block = random_data(9, 16 * 1024);
  Bytes data;
  for (int i = 0; i < 2; ++i)
    data.insert(data.end(), block.begin(), block.end());
  const auto seqs = lz77_parse({data.data(), data.size()}, skip_ahead());
  std::size_t matched = 0;
  for (const auto& s : seqs) matched += s.match_len;
  EXPECT_GT(matched, 15u * 1024);
  EXPECT_EQ(roundtrip({data.data(), data.size()}, skip_ahead()), data);
}

TEST(Shuffle, RoundTrip) {
  Rng rng(9);
  Bytes data(4000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  const Bytes shuffled = shuffle_bytes({data.data(), data.size()}, 4);
  EXPECT_NE(shuffled, data);
  EXPECT_EQ(unshuffle_bytes({shuffled.data(), shuffled.size()}, 4), data);
}

TEST(Shuffle, GroupsBytesByPosition) {
  const Bytes data{0x01, 0x02, 0x03, 0x04, 0x11, 0x12, 0x13, 0x14};
  const Bytes shuffled = shuffle_bytes({data.data(), data.size()}, 4);
  const Bytes expected{0x01, 0x11, 0x02, 0x12, 0x03, 0x13, 0x04, 0x14};
  EXPECT_EQ(shuffled, expected);
}

TEST(Shuffle, RejectsNonDivisibleSize) {
  const Bytes data(7, 0);
  EXPECT_THROW(shuffle_bytes({data.data(), data.size()}, 4), InvalidArgument);
  EXPECT_THROW(unshuffle_bytes({data.data(), data.size()}, 4),
               InvalidArgument);
}

TEST(Shuffle, ImprovesFloatCompressibility) {
  // Similar floats share exponent/high-mantissa bytes; shuffling groups them.
  Rng rng(11);
  std::vector<float> values(4096);
  for (auto& v : values) v = 1.0f + static_cast<float>(rng.uniform()) * 0.01f;
  ByteSpan raw = as_bytes({values.data(), values.size()});
  const Bytes shuffled = shuffle_bytes(raw, 4);
  // Count zero-deltas as a cheap LZ-ability proxy.
  auto repeats = [](ByteSpan d) {
    std::size_t count = 0;
    for (std::size_t i = 1; i < d.size(); ++i)
      if (d[i] == d[i - 1]) ++count;
    return count;
  };
  EXPECT_GT(repeats({shuffled.data(), shuffled.size()}), repeats(raw) * 2);
}

}  // namespace
}  // namespace fedsz::lossless
