// Tests for the FL-compression baselines (Top-K sparsification, QSGD-style
// quantization) and the "FedSZ as last step" composition from Section III-C.
#include <gtest/gtest.h>

#include <cmath>

#include "core/baselines.hpp"
#include "nn/models.hpp"
#include "util/bytebuffer.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace fedsz::core {
namespace {

StateDict model_dict() {
  nn::ModelConfig cfg;
  cfg.arch = "alexnet";
  cfg.scale = nn::ModelScale::kTiny;
  return nn::build_model(cfg).model.state_dict();
}

// ---- Top-K ----

TEST(TopK, RoundTripPreservesStructure) {
  const StateDict dict = model_dict();
  const auto codec = make_topk_codec({0.1, 1000});
  const auto encoded = codec->encode(dict);
  const StateDict back =
      codec->decode({encoded.payload.data(), encoded.payload.size()});
  ASSERT_EQ(back.size(), dict.size());
  for (const auto& [name, tensor] : dict)
    EXPECT_TRUE(back.get(name).same_shape(tensor)) << name;
}

TEST(TopK, KeepsLargestMagnitudesZeroesRest) {
  StateDict dict;
  std::vector<float> values(2000);
  for (std::size_t i = 0; i < values.size(); ++i)
    values[i] = static_cast<float>(i) - 1000.0f;  // |.| largest at both ends
  dict.set("layer.weight", Tensor::from_data({2000}, values));
  const auto codec = make_topk_codec({0.01, 1000});  // keep 20 entries
  const auto encoded = codec->encode(dict);
  const StateDict back =
      codec->decode({encoded.payload.data(), encoded.payload.size()});
  const Tensor& tensor = back.get("layer.weight");
  std::size_t nonzero = 0;
  for (std::size_t i = 0; i < tensor.numel(); ++i)
    if (tensor[i] != 0.0f) {
      ++nonzero;
      EXPECT_GE(std::fabs(tensor[i]), 989.0f);  // only extreme entries kept
      EXPECT_EQ(tensor[i], values[i]);          // kept values exact
    }
  EXPECT_EQ(nonzero, 20u);
}

TEST(TopK, SubThresholdTensorsAreExact) {
  const StateDict dict = model_dict();
  const auto codec = make_topk_codec({0.05, 1000});
  const auto encoded = codec->encode(dict);
  const StateDict back =
      codec->decode({encoded.payload.data(), encoded.payload.size()});
  for (const auto& [name, tensor] : dict) {
    if (!is_lossy_entry(name, tensor.numel(), 1000)) {
      EXPECT_TRUE(back.get(name).equals(tensor)) << name;
    }
  }
}

TEST(TopK, SmallerKeepFractionShrinksPayload) {
  const StateDict dict = model_dict();
  const auto big = make_topk_codec({0.5, 1000})->encode(dict);
  const auto small = make_topk_codec({0.05, 1000})->encode(dict);
  EXPECT_LT(small.payload.size(), big.payload.size());
  EXPECT_LT(small.payload.size(), small.stats.original_bytes / 2);
}

TEST(TopK, InvalidConfigThrows) {
  EXPECT_THROW(TopKCodec({0.0, 1000}), InvalidArgument);
  EXPECT_THROW(TopKCodec({1.5, 1000}), InvalidArgument);
}

TEST(TopK, CorruptPayloadThrows) {
  const StateDict dict = model_dict();
  const auto codec = make_topk_codec({0.1, 1000});
  auto encoded = codec->encode(dict);
  encoded.payload[0] = 'X';
  EXPECT_THROW(codec->decode({encoded.payload.data(),
                              encoded.payload.size()}),
               CorruptStream);
}

// ---- QSGD ----

TEST(Qsgd, RoundTripBoundedByStep) {
  const StateDict dict = model_dict();
  const QsgdConfig config{256, 1000, 7};
  const auto codec = make_qsgd_codec(config);
  const auto encoded = codec->encode(dict);
  const StateDict back =
      codec->decode({encoded.payload.data(), encoded.payload.size()});
  for (const auto& [name, tensor] : dict) {
    if (!is_lossy_entry(name, tensor.numel(), 1000)) continue;
    float max_abs = 0.0f;
    for (std::size_t i = 0; i < tensor.numel(); ++i)
      max_abs = std::max(max_abs, std::fabs(tensor[i]));
    const double step = max_abs / 256.0;
    const double err =
        stats::max_abs_error(tensor.span(), back.get(name).span());
    EXPECT_LE(err, step * (1 + 1e-5)) << name;
  }
}

TEST(Qsgd, StochasticRoundingIsUnbiasedOnAverage) {
  StateDict dict;
  dict.set("w.weight", Tensor::full({4096}, 0.31f));
  double sum = 0.0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto codec = make_qsgd_codec({16, 1000, seed});
    const auto encoded = codec->encode(dict);
    const StateDict back =
        codec->decode({encoded.payload.data(), encoded.payload.size()});
    const Tensor& tensor = back.get("w.weight");
    for (std::size_t i = 0; i < tensor.numel(); ++i) sum += tensor[i];
  }
  const double mean = sum / (8.0 * 4096.0);
  EXPECT_NEAR(mean, 0.31, 0.005);
}

TEST(Qsgd, FewerLevelsSmallerPayload) {
  const StateDict dict = model_dict();
  const auto coarse = make_qsgd_codec({4, 1000, 1})->encode(dict);
  const auto fine = make_qsgd_codec({4096, 1000, 1})->encode(dict);
  EXPECT_LT(coarse.payload.size(), fine.payload.size());
  EXPECT_LT(coarse.payload.size(), coarse.stats.original_bytes / 2);
}

TEST(Qsgd, InvalidLevelsThrow) {
  EXPECT_THROW(QsgdCodec({1, 1000, 0}), InvalidArgument);
  EXPECT_THROW(QsgdCodec({70000, 1000, 0}), InvalidArgument);
}

TEST(Qsgd, SubThresholdTensorsAreExact) {
  const StateDict dict = model_dict();
  const auto codec = make_qsgd_codec({64, 1000, 3});
  const auto encoded = codec->encode(dict);
  const StateDict back =
      codec->decode({encoded.payload.data(), encoded.payload.size()});
  for (const auto& [name, tensor] : dict) {
    if (!is_lossy_entry(name, tensor.numel(), 1000)) {
      EXPECT_TRUE(back.get(name).equals(tensor)) << name;
    }
  }
}

// ---- corrupt streams ----

/// Every truncation of a valid payload, and 1-3 bytes appended to it, must
/// throw CorruptStream.
void expect_truncations_and_trailing_bytes_throw(const UpdateCodec& codec) {
  const StateDict dict = model_dict();
  const Bytes payload = codec.encode(dict).payload;
  ASSERT_NO_THROW(codec.decode({payload.data(), payload.size()}));
  for (const double fraction : {0.0, 0.01, 0.3, 0.7, 0.999}) {
    const auto cut = static_cast<std::size_t>(
        fraction * static_cast<double>(payload.size()));
    EXPECT_THROW(codec.decode({payload.data(), cut}), CorruptStream)
        << codec.name() << " cut at " << cut;
  }
  for (std::size_t extra = 1; extra <= 3; ++extra) {
    Bytes padded = payload;
    padded.resize(payload.size() + extra, 0);
    EXPECT_THROW(codec.decode({padded.data(), padded.size()}), CorruptStream)
        << codec.name() << " +" << extra << " bytes";
  }
}

/// A stream of `head` (the magic, plus QSGD's level count), one entry
/// `w.weight` of `dims` whose fields after the shape `body` writes, and an
/// empty dense partition.
template <typename Body>
Bytes one_entry_stream(const Bytes& head,
                       const std::vector<std::uint64_t>& dims, Body body) {
  ByteWriter w;
  w.put_bytes({head.data(), head.size()});
  w.put_u32(1);
  w.put_string("w.weight");
  w.put_u8(static_cast<std::uint8_t>(dims.size()));
  for (const std::uint64_t d : dims) w.put_varint(d);
  body(w);
  const Bytes dense = StateDict{}.serialize();
  w.put_blob({dense.data(), dense.size()});
  return w.finish();
}

// 2^62 elements: far beyond addressable memory, so a decoder that sizes a
// tensor from the header before checking the payload fails to allocate.
const std::vector<std::uint64_t> kOversizedDims = {std::uint64_t{1} << 31,
                                                   std::uint64_t{1} << 31};

TEST(TopK, TruncatedOrPaddedPayloadThrows) {
  expect_truncations_and_trailing_bytes_throw(*make_topk_codec({0.1, 1000}));
}

TEST(TopK, OversizedShapeOrSurvivorCountThrows) {
  const auto codec = make_topk_codec({0.1, 1000});
  const auto decode = [&codec](const std::vector<std::uint64_t>& dims,
                               std::uint64_t keep) {
    const Bytes stream =
        one_entry_stream({'T', 'P', 'K', '1'}, dims, [keep](ByteWriter& w) {
          w.put_varint(keep);
          w.put_varint(0);  // index 0
          w.put_f32(1.0f);
          w.put_blob({});  // reserved
        });
    return codec->decode({stream.data(), stream.size()});
  };
  ASSERT_EQ(decode({2000}, 1).get("w.weight")[0], 1.0f);
  EXPECT_THROW(decode(kOversizedDims, 1), CorruptStream);
  EXPECT_THROW(decode({2000}, 2001), CorruptStream);
  EXPECT_THROW(decode({2000}, std::uint64_t{1} << 62), CorruptStream);
}

TEST(Qsgd, TruncatedOrPaddedPayloadThrows) {
  expect_truncations_and_trailing_bytes_throw(
      *make_qsgd_codec({64, 1000, 3}));
}

TEST(Qsgd, OversizedShapeThrows) {
  const auto codec = make_qsgd_codec({64, 1000, 3});
  const auto decode = [&codec](const std::vector<std::uint64_t>& dims,
                               std::size_t packed_bytes) {
    // 64 levels (u16): a sign bit plus 7-bit levels per element.
    const Bytes head = {'Q', 'S', 'G', '1', 64, 0};
    const Bytes stream =
        one_entry_stream(head, dims, [packed_bytes](ByteWriter& w) {
          w.put_f32(1.0f);  // max |x|
          const Bytes packed(packed_bytes, 0);
          w.put_blob({packed.data(), packed.size()});
        });
    return codec->decode({stream.data(), stream.size()});
  };
  ASSERT_EQ(decode({2000}, 2000).get("w.weight").numel(), 2000u);
  EXPECT_THROW(decode(kOversizedDims, 2000), CorruptStream);
  EXPECT_THROW(decode({2000}, 1999), CorruptStream);
}

// ---- composition (the Section III-C "last step" claim) ----

TEST(Composition, TopKThenFedSzShrinksFurther) {
  const StateDict dict = model_dict();
  const auto topk = make_topk_codec({0.2, 1000});
  const auto composed =
      make_composed_codec(make_topk_codec({0.2, 1000}), make_fedsz_codec());
  const auto alone = topk->encode(dict);
  const auto stacked = composed->encode(dict);
  // Sparsified tensors are mostly zeros; the FedSZ pass compresses them
  // dramatically better than shipping index/value pairs raw.
  EXPECT_LT(stacked.payload.size(), alone.payload.size());
  const StateDict back = composed->decode(
      {stacked.payload.data(), stacked.payload.size()});
  EXPECT_EQ(back.size(), dict.size());
}

TEST(Composition, NamesConcatenate) {
  const auto composed =
      make_composed_codec(make_qsgd_codec(), make_fedsz_codec());
  EXPECT_EQ(composed->name(), "qsgd+fedsz-sz2");
}

TEST(Composition, QsgdThenFedSzRoundTrips) {
  const StateDict dict = model_dict();
  const auto composed =
      make_composed_codec(make_qsgd_codec({64, 1000, 5}),
                          make_fedsz_codec());
  const auto encoded = composed->encode(dict);
  const StateDict back =
      composed->decode({encoded.payload.data(), encoded.payload.size()});
  for (const auto& [name, tensor] : dict)
    EXPECT_TRUE(back.get(name).same_shape(tensor));
}

TEST(Composition, NullStageThrows) {
  EXPECT_THROW(ComposedCodec(nullptr, make_fedsz_codec()), InvalidArgument);
  EXPECT_THROW(ComposedCodec(make_fedsz_codec(), nullptr), InvalidArgument);
}

}  // namespace
}  // namespace fedsz::core
