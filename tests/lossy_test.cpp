// Parameterized conformance and property tests over the EBLC suite: the
// error-bound guarantee (the paper's core correctness property), compression
// ratio monotonicity in the bound, edge cases, and input validation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "compress/lossless/lossless.hpp"
#include "compress/lossy/lossy.hpp"
#include "data/scientific.hpp"
#include "util/bytebuffer.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace fedsz::lossy {
namespace {

// ---- input distributions ----

std::vector<float> dist_laplace_weights(Rng& rng, std::size_t n) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.laplace(0.0, 0.05));
  return v;
}

std::vector<float> dist_uniform(Rng& rng, std::size_t n) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

std::vector<float> dist_smooth(Rng& rng, std::size_t n) {
  return data::smooth_field(n, rng.next_u64());
}

std::vector<float> dist_constant(Rng&, std::size_t n) {
  return std::vector<float>(n, 0.75f);
}

std::vector<float> dist_spiky_mixture(Rng& rng, std::size_t n) {
  std::vector<float> v(n);
  for (auto& x : v)
    x = rng.uniform() < 0.01 ? static_cast<float>(rng.uniform(-2.0, 2.0))
                             : static_cast<float>(rng.normal(0.0, 0.01));
  return v;
}

struct Distribution {
  const char* name;
  std::vector<float> (*make)(Rng&, std::size_t);
};

const Distribution kDistributions[] = {
    {"laplace_weights", dist_laplace_weights},
    {"uniform", dist_uniform},
    {"smooth_field", dist_smooth},
    {"constant", dist_constant},
    {"spiky_mixture", dist_spiky_mixture},
};

struct Case {
  LossyId codec;
  const Distribution* dist;
  double rel_bound;
};

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const LossyCodec* codec : all_lossy_codecs())
    for (const Distribution& d : kDistributions)
      for (const double bound : {1e-1, 1e-2, 1e-3, 1e-4})
        cases.push_back({codec->id(), &d, bound});
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const int exponent =
      static_cast<int>(std::lround(-std::log10(info.param.rel_bound)));
  return lossy_codec(info.param.codec).name() + "_" + info.param.dist->name +
         "_1em" + std::to_string(exponent);
}

class LossyProperty : public ::testing::TestWithParam<Case> {};

TEST_P(LossyProperty, RoundTripSizeAndErrorBound) {
  const auto& [id, dist, rel] = GetParam();
  const LossyCodec& codec = lossy_codec(id);
  Rng rng(42);
  const auto data = dist->make(rng, 20000);
  const ErrorBound bound = ErrorBound::relative(rel);
  const Bytes compressed = codec.compress({data.data(), data.size()}, bound);
  const auto back = codec.decompress({compressed.data(), compressed.size()});
  ASSERT_EQ(back.size(), data.size());

  const double eps = bound.absolute_for({data.data(), data.size()});
  const double max_err = stats::max_abs_error({data.data(), data.size()},
                                              {back.data(), back.size()});
  if (codec.strictly_bounded()) {
    // Tiny slack for float32 rounding of the double-precision guarantee.
    EXPECT_LE(max_err, eps * (1.0 + 1e-5) + 1e-12)
        << codec.name() << " violated its bound";
  } else {
    // ZFP fixed-precision: calibrated, allow a small constant factor.
    EXPECT_LE(max_err, 8.0 * eps + 1e-12) << codec.name();
  }
}

TEST_P(LossyProperty, DecompressIsDeterministic) {
  const auto& [id, dist, rel] = GetParam();
  const LossyCodec& codec = lossy_codec(id);
  Rng rng(43);
  const auto data = dist->make(rng, 5000);
  const ErrorBound bound = ErrorBound::relative(rel);
  const Bytes c1 = codec.compress({data.data(), data.size()}, bound);
  const Bytes c2 = codec.compress({data.data(), data.size()}, bound);
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(codec.decompress({c1.data(), c1.size()}),
            codec.decompress({c2.data(), c2.size()}));
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, LossyProperty,
                         ::testing::ValuesIn(all_cases()), case_name);

// ---- per-codec edge cases, parameterized over codec only ----

class LossyCodecTest : public ::testing::TestWithParam<LossyId> {
 protected:
  const LossyCodec& codec() const { return lossy_codec(GetParam()); }
};

TEST_P(LossyCodecTest, EmptyInput) {
  const Bytes compressed = codec().compress({}, ErrorBound::relative(1e-2));
  EXPECT_TRUE(codec().decompress({compressed.data(),
                                  compressed.size()}).empty());
}

TEST_P(LossyCodecTest, SingleElement) {
  const std::vector<float> data{3.14159f};
  const Bytes compressed =
      codec().compress({data.data(), data.size()}, ErrorBound::absolute(0.01));
  const auto back = codec().decompress({compressed.data(), compressed.size()});
  ASSERT_EQ(back.size(), 1u);
  EXPECT_NEAR(back[0], data[0], 0.011);
}

TEST_P(LossyCodecTest, TwoElements) {
  const std::vector<float> data{-1.0f, 1.0f};
  const Bytes compressed =
      codec().compress({data.data(), data.size()}, ErrorBound::relative(1e-3));
  const auto back = codec().decompress({compressed.data(), compressed.size()});
  ASSERT_EQ(back.size(), 2u);
  EXPECT_NEAR(back[0], -1.0f, 0.02);
  EXPECT_NEAR(back[1], 1.0f, 0.02);
}

TEST_P(LossyCodecTest, NonBlockAlignedLengths) {
  Rng rng(7);
  for (const std::size_t n : {1u, 3u, 4u, 5u, 127u, 128u, 129u, 255u, 257u,
                              1000u}) {
    std::vector<float> data(n);
    for (auto& v : data) v = static_cast<float>(rng.normal(0.0, 1.0));
    const Bytes compressed = codec().compress({data.data(), data.size()},
                                              ErrorBound::relative(1e-2));
    const auto back =
        codec().decompress({compressed.data(), compressed.size()});
    ASSERT_EQ(back.size(), n) << codec().name() << " n=" << n;
  }
}

TEST_P(LossyCodecTest, ConstantArrayReconstructsExactlyEnough) {
  const std::vector<float> data(1000, -2.5f);
  const Bytes compressed =
      codec().compress({data.data(), data.size()}, ErrorBound::relative(1e-2));
  const auto back = codec().decompress({compressed.data(), compressed.size()});
  for (const float v : back) EXPECT_NEAR(v, -2.5f, 1e-4);
  // Constant data is highly compressible for every codec design (ZFP still
  // spends a fixed per-block exponent + significance budget).
  EXPECT_LT(compressed.size(), data.size() * sizeof(float) / 4);
}

TEST_P(LossyCodecTest, RejectsNonFiniteInput) {
  std::vector<float> data(100, 1.0f);
  data[50] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW(codec().compress({data.data(), data.size()},
                                ErrorBound::relative(1e-2)),
               InvalidArgument);
  data[50] = std::numeric_limits<float>::infinity();
  EXPECT_THROW(codec().compress({data.data(), data.size()},
                                ErrorBound::relative(1e-2)),
               InvalidArgument);
}

TEST_P(LossyCodecTest, RejectsInvalidBound) {
  const std::vector<float> data(10, 1.0f);
  EXPECT_THROW(codec().compress({data.data(), data.size()},
                                ErrorBound::relative(0.0)),
               InvalidArgument);
}

TEST_P(LossyCodecTest, RatioDecreasesAsBoundTightens) {
  Rng rng(11);
  const auto data = dist_laplace_weights(rng, 50000);
  double previous_size = 0.0;
  for (const double rel : {1e-1, 1e-2, 1e-3, 1e-4}) {
    const Bytes compressed = codec().compress({data.data(), data.size()},
                                              ErrorBound::relative(rel));
    EXPECT_GE(static_cast<double>(compressed.size()) * 1.02,
              previous_size)
        << codec().name() << " at rel=" << rel;
    previous_size = static_cast<double>(compressed.size());
  }
}

TEST_P(LossyCodecTest, AbsoluteBoundRespected) {
  Rng rng(13);
  const auto data = dist_uniform(rng, 10000);
  const double eps = 0.005;
  const Bytes compressed =
      codec().compress({data.data(), data.size()}, ErrorBound::absolute(eps));
  const auto back = codec().decompress({compressed.data(), compressed.size()});
  const double max_err = stats::max_abs_error({data.data(), data.size()},
                                              {back.data(), back.size()});
  const double slack = codec().strictly_bounded() ? 1.0 + 1e-5 : 8.0;
  EXPECT_LE(max_err, eps * slack);
}

TEST_P(LossyCodecTest, SmoothDataCompressesBetterThanSpiky) {
  Rng rng(17);
  const auto smooth = dist_smooth(rng, 40000);
  const auto spiky = dist_uniform(rng, 40000);
  const ErrorBound bound = ErrorBound::relative(1e-3);
  const auto cs = codec().compress({smooth.data(), smooth.size()}, bound);
  const auto cp = codec().compress({spiky.data(), spiky.size()}, bound);
  EXPECT_LT(cs.size(), cp.size()) << codec().name();
}

TEST_P(LossyCodecTest, DecompressTruncatedThrows) {
  Rng rng(19);
  const auto data = dist_laplace_weights(rng, 5000);
  Bytes compressed = codec().compress({data.data(), data.size()},
                                      ErrorBound::relative(1e-2));
  compressed.resize(compressed.size() / 2);
  EXPECT_THROW(codec().decompress({compressed.data(), compressed.size()}),
               CorruptStream);
}

TEST_P(LossyCodecTest, DecompressIntoMatchesDecompress) {
  // Decoding into a NaN-filled span gives decompress()'s floats bit for
  // bit, so no decode reads the destination before writing it; a span of
  // another length throws before a byte of it (or past it) changes.
  Rng rng(23);
  for (const std::size_t n : {0u, 1u, 257u, 5000u}) {
    for (const auto& data :
         {dist_laplace_weights(rng, n), dist_spiky_mixture(rng, n)}) {
      const Bytes stream = codec().compress({data.data(), data.size()},
                                            ErrorBound::relative(1e-3));
      const ByteSpan view{stream.data(), stream.size()};
      const std::vector<float> expected = codec().decompress(view);
      ASSERT_EQ(expected.size(), n);
      std::vector<float> into(n + 8, std::numeric_limits<float>::quiet_NaN());
      codec().decompress_into(view, {into.data(), n});
      EXPECT_TRUE(n == 0 || std::memcmp(into.data(), expected.data(),
                                        n * sizeof(float)) == 0)
          << codec().name() << " n=" << n;
      for (const std::size_t wrong : {n + 1, n == 0 ? 0 : n - 1}) {
        if (wrong == n) continue;
        std::vector<float> guard(n + 8, -7.0f);
        EXPECT_THROW(codec().decompress_into(view, {guard.data(), wrong}),
                     CorruptStream)
            << codec().name() << " n=" << n << " span=" << wrong;
        EXPECT_EQ(guard, std::vector<float>(n + 8, -7.0f)) << codec().name();
      }
    }
  }
}

TEST_P(LossyCodecTest, HugeDeclaredCountThrowsCorruptStream) {
  // A stream declaring far more elements than its bytes can hold (and
  // counts that wrap when rounded up to whole blocks) is corruption,
  // rejected before the count sizes any allocation.
  const lossless::LosslessCodec& backend =
      lossless::lossless_codec(lossless::LosslessId::kZstd);
  const bool framed =
      GetParam() == LossyId::kSz2 || GetParam() == LossyId::kSz3;
  for (const std::uint64_t n : {std::uint64_t{1} << 40, ~std::uint64_t{0},
                                ~std::uint64_t{0} - 2}) {
    ByteWriter body;
    body.put_varint(n);
    if (GetParam() == LossyId::kZfp) {
      body.put_u8(10);  // precision
    } else {
      body.put_f64(0.01);  // eps
    }
    body.put_bytes(std::vector<std::uint8_t>{0, 1, 2});
    const ByteSpan view = body.view();
    const Bytes stream =
        framed ? backend.compress(view) : Bytes(view.begin(), view.end());
    EXPECT_THROW(codec().decompress({stream.data(), stream.size()}),
                 CorruptStream)
        << codec().name() << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecs, LossyCodecTest,
    ::testing::Values(LossyId::kSz2, LossyId::kSz3, LossyId::kSzx,
                      LossyId::kZfp),
    [](const ::testing::TestParamInfo<LossyId>& info) {
      return lossy_codec(info.param).name();
    });

// ---- cross-codec expectations from Table I ----

TEST(LossyComparison, PredictionCodecsBeatZfpOnSpikyWeights) {
  Rng rng(23);
  const auto data = dist_laplace_weights(rng, 100000);
  const ErrorBound bound = ErrorBound::relative(1e-2);
  const auto sz2 =
      lossy_codec(LossyId::kSz2).compress({data.data(), data.size()}, bound);
  const auto zfp =
      lossy_codec(LossyId::kZfp).compress({data.data(), data.size()}, bound);
  EXPECT_LT(sz2.size(), zfp.size());
}

TEST(LossyComparison, Sz2AndSz3RatiosAreClose) {
  Rng rng(29);
  const auto data = dist_laplace_weights(rng, 100000);
  const ErrorBound bound = ErrorBound::relative(1e-2);
  const double sz2 = static_cast<double>(
      lossy_codec(LossyId::kSz2)
          .compress({data.data(), data.size()}, bound)
          .size());
  const double sz3 = static_cast<double>(
      lossy_codec(LossyId::kSz3)
          .compress({data.data(), data.size()}, bound)
          .size());
  EXPECT_LT(std::fabs(sz2 - sz3) / sz2, 0.35);
}

// The optional reconstruction is the decode of the fresh stream, and a
// span of another length is refused before anything is encoded.
TEST(LossyReconstruction, EveryCodecWritesWhatItsStreamDecodesTo) {
  Rng rng(12);
  const std::vector<float> data = dist_spiky_mixture(rng, 5000);
  for (const LossyCodec* codec : all_lossy_codecs()) {
    SCOPED_TRACE(codec->name());
    // Tight enough that SZ2/SZ3 spikes ship verbatim.
    const ErrorBound bound = ErrorBound::absolute(1e-6);
    const Bytes plain = codec->compress({data.data(), data.size()}, bound);
    std::vector<float> recon(data.size(), -1.0f);
    Bytes out;
    codec->compress_into({data.data(), data.size()}, bound, out,
                         {recon.data(), recon.size()});
    EXPECT_EQ(out, plain);
    const std::vector<float> decoded =
        codec->decompress({plain.data(), plain.size()});
    ASSERT_EQ(decoded.size(), recon.size());
    EXPECT_EQ(std::memcmp(decoded.data(), recon.data(),
                          recon.size() * sizeof(float)),
              0);
    std::vector<float> short_recon(data.size() - 1);
    EXPECT_THROW(codec->compress_into({data.data(), data.size()}, bound, out,
                                      {short_recon.data(),
                                       short_recon.size()}),
                 InvalidArgument);
  }
}

TEST(LossyComparison, StrictBoundednessFlags) {
  EXPECT_TRUE(lossy_codec(LossyId::kSz2).strictly_bounded());
  EXPECT_TRUE(lossy_codec(LossyId::kSz3).strictly_bounded());
  EXPECT_TRUE(lossy_codec(LossyId::kSzx).strictly_bounded());
  EXPECT_FALSE(lossy_codec(LossyId::kZfp).strictly_bounded());
}

// ---- SZ2/SZ3 framing: nothing may follow a stream ----

TEST(SzFraming, BytesAfterTheStreamThrow) {
  Rng rng(31);
  const auto data = dist_laplace_weights(rng, 5000);
  for (const LossyId id : {LossyId::kSz2, LossyId::kSz3}) {
    const LossyCodec& codec = lossy_codec(id);
    Bytes stream =
        codec.compress({data.data(), data.size()}, ErrorBound::relative(1e-2));
    stream.insert(stream.end(), {1, 2, 3});
    EXPECT_THROW(codec.decompress({stream.data(), stream.size()}),
                 CorruptStream)
        << codec.name();
  }
}

TEST(SzFraming, BytesAfterTheVerbatimBlockThrow) {
  // A well-formed backend frame whose body carries 3 bytes past the
  // verbatim block (or past the header of an empty stream).
  const lossless::LosslessCodec& backend =
      lossless::lossless_codec(lossless::LosslessId::kZstd);
  Rng rng(37);
  const auto spiky = dist_spiky_mixture(rng, 5000);  // has verbatim values
  for (const LossyId id : {LossyId::kSz2, LossyId::kSz3}) {
    const LossyCodec& codec = lossy_codec(id);
    for (const std::size_t n : {spiky.size(), std::size_t{0}}) {
      const Bytes stream =
          codec.compress({spiky.data(), n}, ErrorBound::absolute(1e-3));
      Bytes body = backend.decompress({stream.data(), stream.size()});
      body.insert(body.end(), {1, 2, 3});
      const Bytes forged = backend.compress({body.data(), body.size()});
      EXPECT_THROW(codec.decompress({forged.data(), forged.size()}),
                   CorruptStream)
          << codec.name() << " n=" << n;
    }
  }
}

TEST(SzFraming, SurplusVerbatimValuesThrow) {
  // A body whose verbatim count is one more than its unpredictable codes,
  // the extra value appended so the framing itself stays consistent.
  const lossless::LosslessCodec& backend =
      lossless::lossless_codec(lossless::LosslessId::kZstd);
  Rng rng(41);
  const auto weights = dist_laplace_weights(rng, 5000);
  for (const LossyId id : {LossyId::kSz2, LossyId::kSz3}) {
    const LossyCodec& codec = lossy_codec(id);
    // The tight bound leaves ~1/3 of the values verbatim, the loose none.
    for (const double eps : {1e-6, 1e-3}) {
      const Bytes stream = codec.compress({weights.data(), weights.size()},
                                          ErrorBound::absolute(eps));
      const Bytes body = backend.decompress({stream.data(), stream.size()});
      ByteReader r({body.data(), body.size()});
      const std::uint64_t n = r.get_varint();
      (void)r.get_f64();
      if (id == LossyId::kSz2) {
        for (std::uint64_t b = 0; b < (n + 255) / 256; ++b)
          if (r.get_u8() != 0) (void)r.get_bytes(2 * sizeof(float));
      }
      (void)r.get_blob_view();
      const std::size_t count_at = body.size() - r.remaining();
      const std::uint64_t n_verbatim = r.get_varint();
      const ByteSpan values = r.get_bytes(r.remaining());
      ByteWriter forged_body;
      forged_body.put_bytes({body.data(), count_at});
      forged_body.put_varint(n_verbatim + 1);
      forged_body.put_bytes(values);
      forged_body.put_f32(1.0f);
      const Bytes forged = backend.compress(forged_body.view());
      EXPECT_THROW(codec.decompress({forged.data(), forged.size()}),
                   CorruptStream)
          << codec.name() << " verbatim=" << n_verbatim;
    }
  }
}

TEST(CodecFraming, BytesAfterAValidFrameThrow) {
  // Every decoder consumes its frame exactly: 1-3 bytes appended to a valid
  // frame are corruption for all four lossy and five lossless codecs, on
  // empty input and on inputs that take each codec's raw and compressed
  // modes.
  Rng rng(41);
  const auto expect_padding_throws = [](const Bytes& frame, auto decode,
                                        const std::string& what) {
    ASSERT_NO_THROW(decode(frame)) << what;
    for (std::size_t extra = 1; extra <= 3; ++extra) {
      Bytes padded = frame;
      padded.resize(frame.size() + extra, 0);
      EXPECT_THROW(decode(padded), CorruptStream)
          << what << " +" << extra << " bytes";
    }
  };
  const auto weights = dist_laplace_weights(rng, 5000);
  for (const LossyCodec* codec : all_lossy_codecs()) {
    for (const std::size_t n : {weights.size(), std::size_t{0}}) {
      const Bytes frame =
          codec->compress({weights.data(), n}, ErrorBound::relative(1e-2));
      expect_padding_throws(
          frame,
          [codec](const Bytes& b) { codec->decompress({b.data(), b.size()}); },
          codec->name() + " n=" + std::to_string(n));
    }
  }
  Bytes random(4096);
  for (std::uint8_t& b : random) b = static_cast<std::uint8_t>(rng.next_u64());
  Bytes text;
  while (text.size() < 8192)
    for (const char c : std::string("federated lossy compression "))
      text.push_back(static_cast<std::uint8_t>(c));
  for (const lossless::LosslessCodec* codec :
       lossless::all_lossless_codecs()) {
    for (const Bytes& input : {Bytes{}, random, text}) {
      const Bytes frame = codec->compress({input.data(), input.size()});
      expect_padding_throws(
          frame,
          [codec](const Bytes& b) { codec->decompress({b.data(), b.size()}); },
          codec->name() + " input=" + std::to_string(input.size()));
    }
  }
}

TEST(LossyRegistry, LookupByNameAndId) {
  EXPECT_EQ(lossy_codec("sz2").id(), LossyId::kSz2);
  EXPECT_EQ(lossy_codec(LossyId::kSz3).name(), "sz3");
  EXPECT_THROW(lossy_codec("sz9"), InvalidArgument);
  EXPECT_THROW(lossy_codec(static_cast<LossyId>(0)), InvalidArgument);
  EXPECT_EQ(all_lossy_codecs().size(), 4u);
}

}  // namespace
}  // namespace fedsz::lossy
