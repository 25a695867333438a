// Tests for the streaming FedAvg mean (StreamingMean) and the
// Laplace-mechanism noise codec.
#include <gtest/gtest.h>

#include "core/dp_analysis.hpp"
#include "core/dp_noise.hpp"
#include "core/fl/aggregator.hpp"

namespace fedsz::core {
namespace {

StateDict scalar_dict(float value) {
  StateDict dict;
  dict.set("w", Tensor::full({4}, value));
  return dict;
}

TEST(WeightedMean, ComputesSampleWeightedAverage) {
  StreamingMean mean;
  mean.begin(scalar_dict(0.0f));
  mean.add(scalar_dict(1.0f), 10.0);
  mean.add(scalar_dict(4.0f), 30.0);
  EXPECT_FLOAT_EQ(mean.finalize().get("w")[0], 0.25f * 1.0f + 0.75f * 4.0f);
}

TEST(WeightedMean, RejectsDegenerateInputs) {
  StreamingMean empty;
  empty.begin(scalar_dict(0.0f));
  EXPECT_THROW(empty.finalize(), InvalidArgument);
  StreamingMean weightless;
  weightless.begin(scalar_dict(0.0f));
  weightless.add(scalar_dict(1.0f), 0.0);
  EXPECT_THROW(weightless.finalize(), InvalidArgument);
}

// ---- streaming fold properties ----

StateDict varied_dict(float base) {
  StateDict dict;
  Tensor w({8});
  for (std::size_t i = 0; i < w.numel(); ++i)
    w[i] = base + 0.37f * static_cast<float>(i) - 1.1f;
  dict.set("layer.weight", w);
  Tensor b({3});
  for (std::size_t i = 0; i < b.numel(); ++i)
    b[i] = -base + 0.05f * static_cast<float>(i);
  dict.set("layer.bias", b);
  return dict;
}

TEST(StreamingAggregation, MeanOfIdenticalUpdatesIsBitExact) {
  // West's online update folds (update - mean) = 0 for identical updates,
  // so the mean stays bit-exact whatever the weights.
  const StateDict update = varied_dict(1.234f);
  StreamingMean mean;
  mean.begin(update.zeros_like());
  mean.add(update, 3.0);
  mean.add(update, 17.0);
  mean.add(update, 1.0);
  EXPECT_TRUE(mean.finalize().equals(update));
}

TEST(StreamingAggregation, ShuffledUpdateOrderMatchesPositionalBitExactly) {
  // StreamingMean::add takes the positional fast path when an update's
  // entries line up with the accumulator's order, and falls back to
  // name-keyed lookup otherwise. Both orders must fold the same tensors
  // with the same arithmetic, so the results are bit-identical.
  const StateDict a = varied_dict(1.0f);
  StateDict a_shuffled;  // same entries, reversed insertion order
  a_shuffled.set("layer.bias", a.get("layer.bias"));
  a_shuffled.set("layer.weight", a.get("layer.weight"));

  StreamingMean positional, shuffled;
  positional.begin(a.zeros_like());
  shuffled.begin(a.zeros_like());
  positional.add(a, 2.0);
  shuffled.add(a_shuffled, 2.0);
  positional.add(varied_dict(-0.5f), 5.0);
  shuffled.add(varied_dict(-0.5f), 5.0);
  EXPECT_TRUE(positional.finalize().equals(shuffled.finalize()));
}

TEST(StreamingAggregation, UpdatesWithExtraEntriesAreTolerated) {
  // The accumulator iterates its own structure, so an update carrying
  // additional tensors (e.g. optimizer state a client forgot to strip)
  // contributes only the matching entries.
  StateDict update = scalar_dict(4.0f);
  update.set("optimizer.step", Tensor::full({1}, 9.0f));
  StreamingMean mean;
  mean.begin(scalar_dict(0.0f));
  mean.add(update, 1.0);
  const StateDict result = mean.finalize();
  EXPECT_EQ(result.size(), 1u);
  EXPECT_FLOAT_EQ(result.get("w")[0], 4.0f);
}

TEST(StreamingAggregation, FractionalWeightsSupported) {
  // Staleness-scaled weights are fractional; 0.5 vs 1.5 weighs 1:3.
  StreamingMean mean;
  mean.begin(scalar_dict(0.0f));
  mean.add(scalar_dict(0.0f), 0.5);
  mean.add(scalar_dict(4.0f), 1.5);
  EXPECT_FLOAT_EQ(mean.finalize().get("w")[0], 3.0f);
}

TEST(StreamingAggregation, MismatchedUpdateStructureThrows) {
  StreamingMean mean;
  mean.begin(scalar_dict(0.0f));
  // Same name, wrong shape: must throw, never read out of bounds.
  StateDict short_update;
  short_update.set("w", Tensor::full({2}, 1.0f));
  EXPECT_THROW(mean.add(short_update, 1.0), InvalidArgument);
  // Missing entry entirely.
  StreamingMean missing;
  missing.begin(scalar_dict(0.0f));
  StateDict renamed;
  renamed.set("other", Tensor::full({4}, 1.0f));
  EXPECT_THROW(missing.add(renamed, 1.0), InvalidArgument);
}

TEST(StreamingAggregation, ApiMisuseThrows) {
  StreamingMean mean;
  EXPECT_THROW(mean.add(scalar_dict(1.0f), 1.0), InvalidArgument);
  EXPECT_THROW(mean.finalize(), InvalidArgument);
  mean.begin(scalar_dict(0.0f));
  EXPECT_THROW(mean.add(scalar_dict(1.0f), -1.0), InvalidArgument);
  EXPECT_THROW(mean.begin(scalar_dict(0.0f)), InvalidArgument);
  // Zero accumulated weight is degenerate, as in the batch path.
  mean.add(scalar_dict(1.0f), 0.0);
  EXPECT_THROW(mean.finalize(), InvalidArgument);
}

TEST(LaplaceNoise, PerturbsOnlyLossyEligibleTensors) {
  StateDict dict;
  dict.set("big.weight", Tensor::full({2048}, 1.0f));
  dict.get_mutable("big.weight")[0] = -1.0f;  // give the tensor a range
  dict.set("small.bias", Tensor::full({4}, 0.5f));
  const auto codec = make_laplace_noise_codec({0.05, 1000, 42});
  const auto encoded = codec->encode(dict);
  const StateDict back =
      codec->decode({encoded.payload.data(), encoded.payload.size()});
  EXPECT_TRUE(back.get("small.bias").equals(dict.get("small.bias")));
  EXPECT_FALSE(back.get("big.weight").equals(dict.get("big.weight")));
}

TEST(LaplaceNoise, ErrorDistributionIsLaplacian) {
  StateDict dict;
  Tensor tensor({20000});
  for (std::size_t i = 0; i < tensor.numel(); ++i)
    tensor[i] = static_cast<float>(i % 100) / 50.0f - 1.0f;  // range 2
  dict.set("layer.weight", tensor);
  const auto codec = make_laplace_noise_codec({0.02, 1000, 7});
  const auto encoded = codec->encode(dict);
  const StateDict back =
      codec->decode({encoded.payload.data(), encoded.payload.size()});
  const ErrorDistribution dist = analyze_state_dict_errors(dict, back);
  EXPECT_TRUE(dist.laplace_fits_better());
  // b = 0.02 * range(2) = 0.04
  EXPECT_NEAR(dist.laplace.b, 0.04, 0.005);
}

TEST(LaplaceNoise, ComposesWithFedSz) {
  StateDict dict;
  Tensor tensor({4096});
  for (std::size_t i = 0; i < tensor.numel(); ++i)
    tensor[i] = static_cast<float>(i) / 4096.0f;
  dict.set("layer.weight", tensor);
  const auto codec =
      make_laplace_noise_codec({0.01, 1000, 3}, make_fedsz_codec());
  EXPECT_EQ(codec->name(), "laplace+fedsz-sz2");
  const auto encoded = codec->encode(dict);
  EXPECT_LT(encoded.payload.size(), dict.total_bytes());
  const StateDict back =
      codec->decode({encoded.payload.data(), encoded.payload.size()});
  EXPECT_TRUE(back.get("layer.weight").same_shape(tensor));
}

TEST(LaplaceNoise, InvalidScaleThrows) {
  EXPECT_THROW(make_laplace_noise_codec({0.0, 1000, 1}), InvalidArgument);
}

}  // namespace
}  // namespace fedsz::core
