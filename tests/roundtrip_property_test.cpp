// Property-based round-trip test for the FedSZ pipeline, in the style of
// small-model PBT (generate many tiny random inputs, assert a strong
// invariant on each): randomized StateDicts — random entry names, shapes,
// codec ids, bounds, chunk sizes, thresholds and parallelism — must satisfy
//
//   decompress(compress(dict)) preserves names and shapes,
//   every lossless-partition entry round-trips byte-identically,
//   every lossy-partition entry stays within the resolved error bound
//   (for codecs that guarantee a pointwise bound), and
//   the emitted bitstream does not depend on the parallelism setting.
//
// A second property covers the v3 per-tensor-plan container: a randomized
// CompressionPolicy assigns every tensor its own path/codec/bound (mixed
// codecs and bounds in one stream), and the same invariants must hold plan
// by plan.
//
// Failures print the iteration index; the generator is seeded, so a failing
// case replays deterministically.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "compress/lossy/quantizer.hpp"
#include "core/fedsz.hpp"
#include "core/policy.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace fedsz::core {
namespace {

Shape random_shape(Rng& rng) {
  const std::size_t rank = 1 + rng.uniform_index(3);
  Shape shape;
  for (std::size_t d = 0; d < rank; ++d)
    shape.push_back(1 + static_cast<std::int64_t>(rng.uniform_index(16)));
  return shape;
}

Tensor random_tensor(Rng& rng) {
  Shape shape = random_shape(rng);
  std::vector<float> values(shape_numel(shape));
  const double scale = std::pow(10.0, rng.uniform(-2.0, 2.0));
  if (rng.uniform() < 0.1) {
    // Occasional constant tensor: REL bound resolves to epsilon 0.
    const float v = static_cast<float>(scale * rng.normal());
    for (float& x : values) x = v;
  } else {
    for (float& x : values) x = static_cast<float>(scale * rng.normal());
  }
  return Tensor::from_data(std::move(shape), std::move(values));
}

std::string random_name(Rng& rng, std::size_t index) {
  static const char* kSuffixes[] = {".weight",       ".bias",
                                    ".weight_v",     ".running_mean",
                                    ".scale",        ".weight_scale"};
  return "layer" + std::to_string(index) +
         kSuffixes[rng.uniform_index(std::size(kSuffixes))];
}

FedSzConfig random_config(Rng& rng) {
  FedSzConfig config;
  const auto lossy_codecs = lossy::all_lossy_codecs();
  const auto lossless_codecs = lossless::all_lossless_codecs();
  config.lossy_id = lossy_codecs[rng.uniform_index(lossy_codecs.size())]->id();
  config.lossless_id =
      lossless_codecs[rng.uniform_index(lossless_codecs.size())]->id();
  EXPECT_TRUE(
      lossy::is_lossy_id(static_cast<std::uint8_t>(config.lossy_id)));
  EXPECT_TRUE(lossless::is_lossless_id(
      static_cast<std::uint8_t>(config.lossless_id)));
  const double exponent = rng.uniform(-4.0, -1.0);
  config.bound = rng.uniform() < 0.5
                     ? lossy::ErrorBound::relative(std::pow(10.0, exponent))
                     : lossy::ErrorBound::absolute(std::pow(10.0, exponent));
  // Tiny chunks on tiny tensors: every chunk-edge case (single element,
  // exact-fit, ragged tail) appears within a few dozen iterations.
  config.chunk_elements = 1 + rng.uniform_index(900);
  static const std::size_t kThresholds[] = {0, 10, 1000};
  config.lossy_threshold = kThresholds[rng.uniform_index(3)];
  static const std::size_t kParallelism[] = {1, 2, 4};
  config.parallelism = kParallelism[rng.uniform_index(3)];
  return config;
}

TEST(RoundTripProperty, RandomStateDictsSatisfyTheFedSzContract) {
  Rng rng(20260731);
  const int iterations = 60;
  for (int iter = 0; iter < iterations; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    const FedSzConfig config = random_config(rng);
    const bool strictly_bounded =
        lossy::lossy_codec(config.lossy_id).strictly_bounded();

    StateDict dict;
    const std::size_t entries = 1 + rng.uniform_index(6);
    for (std::size_t i = 0; i < entries; ++i)
      dict.set(random_name(rng, i), random_tensor(rng));

    const FedSz fedsz{config};
    CompressionStats stats;
    const Bytes blob = fedsz.compress(dict, &stats);
    const StateDict back = fedsz.decompress({blob.data(), blob.size()});

    ASSERT_EQ(back.size(), dict.size());
    std::size_t expected_chunks = 0;
    for (const auto& [name, tensor] : dict) {
      ASSERT_TRUE(back.contains(name)) << name;
      const Tensor& decoded = back.get(name);
      ASSERT_TRUE(decoded.same_shape(tensor)) << name;
      if (is_lossy_entry(name, tensor.numel(), config.lossy_threshold)) {
        expected_chunks += fedsz.chunk_count(tensor.numel());
        if (strictly_bounded) {
          const double eps = config.bound.absolute_for(tensor.span());
          const double err =
              stats::max_abs_error(tensor.span(), decoded.span());
          EXPECT_LE(err, eps * (1 + 1e-5) + 1e-12) << name;
        }
      } else {
        // Lossless partition: byte-identical reconstruction.
        EXPECT_TRUE(decoded.equals(tensor)) << name;
      }
    }
    EXPECT_EQ(stats.lossy_chunks, expected_chunks);
    EXPECT_EQ(stats.compressed_bytes, blob.size());
    EXPECT_EQ(stats.lossy_original_bytes + stats.lossless_original_bytes,
              stats.original_bytes);

    // The container must not depend on the worker count: re-encode with a
    // different parallelism setting and demand identical bytes.
    if (iter % 4 == 0) {
      FedSzConfig other = config;
      other.parallelism = config.parallelism == 1 ? 4 : 1;
      EXPECT_EQ(FedSz{other}.compress(dict), blob);
    }
  }
}

/// Deterministic per-tensor randomized planner: the plan is a pure function
/// of (seed, tensor name), so the test can recompute any tensor's plan when
/// checking its reconstruction. Mixes all four lossy codecs, absolute and
/// relative bounds, and the raw path within a single stream.
class RandomPlanPolicy final : public CompressionPolicy {
 public:
  explicit RandomPlanPolicy(std::uint64_t seed) : seed_(seed) {}
  std::string name() const override { return "random-plan"; }

  TensorPlan plan(const std::string& name, const Tensor&,
                  const EncodeContext&) const override {
    Rng rng(seed_ ^ std::hash<std::string>{}(name));
    const double which = rng.uniform();
    if (which < 0.2) return TensorPlan::lossless();
    if (which < 0.35) return TensorPlan::raw();
    if (which < 0.55) {
      // Sparse path: random threshold mode and bit-width cap, both bound
      // flavors, mixed into the same v3 stream as the lossy codecs.
      const double sparsity =
          rng.uniform() < 0.4 ? 0.0 : rng.uniform(0.5, 0.99);
      const unsigned bits =
          rng.uniform() < 0.4 ? 0u
                              : 1u + static_cast<unsigned>(
                                         rng.uniform_index(16));
      const double sparse_exp = rng.uniform(-4.0, -1.0);
      const lossy::ErrorBound sparse_bound =
          rng.uniform() < 0.5
              ? lossy::ErrorBound::relative(std::pow(10.0, sparse_exp))
              : lossy::ErrorBound::absolute(std::pow(10.0, sparse_exp));
      return TensorPlan::sparse(sparse_bound, sparsity, bits);
    }
    const auto codecs = lossy::all_lossy_codecs();
    const lossy::LossyId id = codecs[rng.uniform_index(codecs.size())]->id();
    const double exponent = rng.uniform(-4.0, -1.0);
    const lossy::ErrorBound bound =
        rng.uniform() < 0.5
            ? lossy::ErrorBound::relative(std::pow(10.0, exponent))
            : lossy::ErrorBound::absolute(std::pow(10.0, exponent));
    return TensorPlan::lossy(id, bound);
  }

 private:
  std::uint64_t seed_;
};

TEST(RoundTripProperty, RandomPerTensorPlansSatisfyTheV3Contract) {
  Rng rng(911);
  const int iterations = 40;
  for (int iter = 0; iter < iterations; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    const auto policy =
        std::make_shared<RandomPlanPolicy>(0xBEEFull * (iter + 1));
    FedSzConfig config;
    config.policy = policy;
    config.chunk_elements = 1 + rng.uniform_index(700);
    static const std::size_t kParallelism[] = {1, 2, 4};
    config.parallelism = kParallelism[rng.uniform_index(3)];

    StateDict dict;
    const std::size_t entries = 1 + rng.uniform_index(6);
    for (std::size_t i = 0; i < entries; ++i)
      dict.set(random_name(rng, i), random_tensor(rng));

    const FedSz fedsz{config};
    CompressionStats stats;
    const Bytes blob = fedsz.compress(dict, &stats);
    CompressionStats decode_stats;
    const StateDict back =
        fedsz.decompress({blob.data(), blob.size()}, &decode_stats);

    ASSERT_EQ(back.size(), dict.size());
    std::size_t lossy_count = 0, lossless_count = 0, raw_count = 0;
    std::size_t sparse_count = 0;
    for (const auto& [name, tensor] : dict) {
      ASSERT_TRUE(back.contains(name)) << name;
      const Tensor& decoded = back.get(name);
      ASSERT_TRUE(decoded.same_shape(tensor)) << name;
      const TensorPlan plan = policy->plan(name, tensor, {});
      switch (plan.path) {
        case TensorPath::kLossy: {
          ++lossy_count;
          if (lossy::lossy_codec(plan.lossy_id).strictly_bounded()) {
            const double eps = plan.bound.absolute_for(tensor.span());
            const double err =
                stats::max_abs_error(tensor.span(), decoded.span());
            EXPECT_LE(err, eps * (1 + 1e-5) + 1e-12) << name;
          }
          break;
        }
        case TensorPath::kLossless:
          ++lossless_count;
          EXPECT_TRUE(decoded.equals(tensor)) << name;
          break;
        case TensorPath::kRaw:
          ++raw_count;
          EXPECT_TRUE(decoded.equals(tensor)) << name;
          break;
        case TensorPath::kSparse: {
          ++sparse_count;
          // Every element either dropped (exactly zero) or a survivor
          // within the resolved bound.
          const double eps = std::max(plan.bound.absolute_for(tensor.span()),
                                      1e-300);
          const double tol = eps * (1 + 1e-5) + 1e-6;
          const FloatSpan orig = tensor.span();
          const FloatSpan dec = decoded.span();
          for (std::size_t i = 0; i < orig.size(); ++i) {
            if (dec[i] == 0.0f) continue;
            EXPECT_LE(std::fabs(static_cast<double>(dec[i]) -
                                static_cast<double>(orig[i])),
                      tol)
                << name << "[" << i << "]";
          }
          break;
        }
      }
    }
    EXPECT_EQ(stats.lossy_tensors, lossy_count);
    EXPECT_EQ(stats.lossless_tensors, lossless_count);
    EXPECT_EQ(stats.raw_tensors, raw_count);
    EXPECT_EQ(stats.sparse_tensors, sparse_count);
    EXPECT_EQ(decode_stats.lossy_tensors, lossy_count);
    EXPECT_EQ(decode_stats.raw_tensors, raw_count);
    EXPECT_EQ(decode_stats.sparse_tensors, sparse_count);
    // The decoder recovers the byte accounting from the stream itself.
    EXPECT_EQ(decode_stats.lossy_compressed_bytes,
              stats.lossy_compressed_bytes);
    EXPECT_EQ(decode_stats.lossless_compressed_bytes,
              stats.lossless_compressed_bytes);
    EXPECT_EQ(decode_stats.lossy_original_bytes, stats.lossy_original_bytes);
    EXPECT_EQ(decode_stats.lossless_original_bytes,
              stats.lossless_original_bytes);
    EXPECT_EQ(decode_stats.sparse_original_bytes, stats.sparse_original_bytes);
    EXPECT_EQ(decode_stats.sparse_kept_elements, stats.sparse_kept_elements);
    EXPECT_EQ(decode_stats.sparse_total_elements,
              stats.sparse_total_elements);
    EXPECT_EQ(stats.compressed_bytes, blob.size());
    EXPECT_EQ(stats.lossy_original_bytes + stats.lossless_original_bytes +
                  stats.raw_original_bytes + stats.sparse_original_bytes,
              stats.original_bytes);

    // Plan-driven streams are as parallelism-independent as uniform ones.
    if (iter % 4 == 0) {
      FedSzConfig other = config;
      other.parallelism = config.parallelism == 1 ? 4 : 1;
      EXPECT_EQ(FedSz{other}.compress(dict), blob);
    }

    // The encode-side reconstruction is decompress(blob), entry by entry,
    // in the input's layout: into a fresh buffer, a reused one (poisoned
    // with NaNs first, so every element must be written, and its storage
    // kept) and one of another layout, at every parallelism. Asking for it
    // moves no byte.
    StateDict reused;
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      SCOPED_TRACE(::testing::Message() << threads << " threads");
      FedSzConfig at = config;
      at.parallelism = threads;
      const FedSz encoder{at};
      StateDict fresh, other_layout;
      other_layout.set("unrelated", Tensor::full({3}, 7.0f));
      std::vector<const float*> storage;
      for (auto& [name, tensor] : reused.entries_mutable()) {
        tensor.fill(std::nanf(""));
        storage.push_back(tensor.data());
      }
      for (StateDict* dest : {&fresh, &reused, &other_layout}) {
        EncodeContext ctx;
        ctx.reconstruction = dest;
        EXPECT_EQ(encoder.compress(dict, nullptr, ctx), blob);
        ASSERT_EQ(dest->size(), dict.size());
        for (std::size_t k = 0; k < dict.size(); ++k) {
          const std::string& name = dict.entries()[k].first;
          EXPECT_EQ(dest->entries()[k].first, name);
          EXPECT_TRUE(dest->entries()[k].second.equals(back.get(name)))
              << name;
        }
      }
      for (std::size_t k = 0; k < storage.size(); ++k)
        EXPECT_EQ(reused.entries()[k].second.data(), storage[k]);
    }
  }
}

// Scalar reference for the branchless inline LinearQuantizer: the
// historical out-of-line implementation, double op for double op (scale by
// the precomputed reciprocal, reject on the pre-round magnitude test,
// reconstruct as bin * 2eps). The vectorization-friendly rewrite must agree
// bit-for-bit on every residual, since its codes and midpoints feed streams
// pinned by the golden fixtures.
struct ScalarQuantizerReference {
  double eps;
  std::uint32_t radius;

  std::uint32_t quantize(double residual) const {
    const double clamped_eps = eps > 0.0 ? eps : 1e-300;
    const double scaled = residual * (1.0 / (2.0 * clamped_eps));
    if (!(std::fabs(scaled) < static_cast<double>(radius) - 1.0))
      return lossy::LinearQuantizer::kUnpredictable;
    const auto bin = static_cast<std::int64_t>(std::llround(scaled));
    const std::int64_t code = bin + static_cast<std::int64_t>(radius);
    if (code < 1 || code >= 2 * static_cast<std::int64_t>(radius))
      return lossy::LinearQuantizer::kUnpredictable;
    return static_cast<std::uint32_t>(code);
  }

  double reconstruct(std::uint32_t code) const {
    const double clamped_eps = eps > 0.0 ? eps : 1e-300;
    const auto bin =
        static_cast<std::int64_t>(code) - static_cast<std::int64_t>(radius);
    return static_cast<double>(bin) * 2.0 * clamped_eps;
  }
};

TEST(RoundTripProperty, QuantizerMatchesScalarReferenceBitExactly) {
  Rng rng(0x5CA1A);
  static const std::uint32_t kRadii[] = {2, 5, 256,
                                         lossy::LinearQuantizer::kDefaultRadius};
  for (int iter = 0; iter < 200; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    const double eps =
        rng.uniform() < 0.05 ? 0.0 : std::pow(10.0, rng.uniform(-8.0, 1.0));
    const std::uint32_t radius = kRadii[rng.uniform_index(std::size(kRadii))];
    const lossy::LinearQuantizer quantizer(eps, radius);
    const ScalarQuantizerReference reference{eps, radius};
    for (int k = 0; k < 64; ++k) {
      // Residual magnitudes spanning well inside to well outside the code
      // range, plus exact zero and sign flips.
      double residual =
          std::pow(10.0, rng.uniform(-10.0, 6.0)) * (k % 2 ? -1.0 : 1.0);
      if (k == 0) residual = 0.0;
      const std::uint32_t code = quantizer.quantize(residual);
      ASSERT_EQ(code, reference.quantize(residual))
          << "eps=" << eps << " radius=" << radius << " r=" << residual;
      if (code != lossy::LinearQuantizer::kUnpredictable) {
        ASSERT_EQ(quantizer.reconstruct(code), reference.reconstruct(code))
            << "eps=" << eps << " radius=" << radius << " code=" << code;
      }
    }
  }
  // Rounding ties, which random residuals almost never hit: with eps a
  // power of two, residual (m + 1/2) * 2eps scales to exactly m + 1/2, and
  // llround rounds it away from zero. One ulp toward zero must round down.
  for (const std::uint32_t radius : kRadii) {
    const double eps = 0.125;
    const lossy::LinearQuantizer quantizer(eps, radius);
    const ScalarQuantizerReference reference{eps, radius};
    for (double half = 0.5; half < radius; half += 1.0) {
      const double tie = half * 2.0 * eps;
      for (const double residual : {tie, -tie, std::nextafter(tie, 0.0),
                                    std::nextafter(-tie, 0.0)}) {
        ASSERT_EQ(quantizer.quantize(residual), reference.quantize(residual))
            << "radius=" << radius << " r=" << residual;
      }
    }
  }
}

TEST(RoundTripProperty, DirtyArenaReuseIsByteIdenticalAcrossSizes) {
  // Every codec encode on this thread shares one EncodeArena whose buffers
  // only ever grow. Interleaving encodes of wildly different sizes leaves
  // stale bytes and oversized capacities behind; re-encoding any input must
  // still produce the bytes a pristine encode produced, both through the
  // one-shot compress() and through compress_into() with a dirty `out`.
  Rng rng(0xD127A);
  const auto codecs = lossy::all_lossy_codecs();
  struct Recorded {
    const lossy::LossyCodec* codec;
    std::vector<float> values;
    lossy::ErrorBound bound;
    Bytes pristine;
  };
  std::vector<Recorded> recorded;
  for (int iter = 0; iter < 24; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    std::vector<float> values(1 + rng.uniform_index(6000));
    const double scale = std::pow(10.0, rng.uniform(-2.0, 2.0));
    for (float& x : values) x = static_cast<float>(scale * rng.normal());
    const double exponent = rng.uniform(-4.0, -1.0);
    const lossy::ErrorBound bound =
        rng.uniform() < 0.5
            ? lossy::ErrorBound::relative(std::pow(10.0, exponent))
            : lossy::ErrorBound::absolute(std::pow(10.0, exponent));
    const lossy::LossyCodec* codec = codecs[rng.uniform_index(codecs.size())];
    recorded.push_back({codec, std::move(values), bound, Bytes{}});
    Recorded& r = recorded.back();
    r.pristine = r.codec->compress({r.values.data(), r.values.size()}, bound);
  }
  // Re-encode everything in reverse order: by now the arena has been dirtied
  // by every later (often larger) input.
  Bytes reused;  // deliberately never cleared between codecs
  for (auto it = recorded.rbegin(); it != recorded.rend(); ++it) {
    const FloatSpan span{it->values.data(), it->values.size()};
    EXPECT_EQ(it->codec->compress(span, it->bound), it->pristine);
    it->codec->compress_into(span, it->bound, reused);
    EXPECT_EQ(reused, it->pristine);
  }
}

TEST(RoundTripProperty, ReusedWorkspaceEmitsIdenticalBytesAcrossThreadCounts) {
  // The FedSz encode workspace (chunk payload slots, metadata/frame
  // writers) belongs to the calling thread and is re-used by the
  // compress() calls of every FedSz on it. Dirty it with
  // differently-shaped dicts between encodes and demand the same bytes as a
  // fresh instance, at every parallelism setting.
  Rng rng(0xF1EE7);
  for (int iter = 0; iter < 8; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    FedSzConfig config = random_config(rng);
    StateDict dict, other;
    const std::size_t entries = 1 + rng.uniform_index(5);
    for (std::size_t i = 0; i < entries; ++i)
      dict.set(random_name(rng, i), random_tensor(rng));
    for (std::size_t i = 0; i < entries + 2; ++i)
      other.set(random_name(rng, i), random_tensor(rng));

    config.parallelism = 1;
    const Bytes reference = FedSz{config}.compress(dict);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{4}}) {
      config.parallelism = threads;
      const FedSz fedsz{config};
      EXPECT_EQ(fedsz.compress(dict), reference) << threads;
      (void)fedsz.compress(other);  // dirty this thread's workspace
      EXPECT_EQ(fedsz.compress(dict), reference) << threads;
    }
  }
}

}  // namespace
}  // namespace fedsz::core
