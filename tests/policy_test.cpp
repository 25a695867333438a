// Tests for the CompressionPolicy layer: CRC pins of every policy= kind in
// both codec families, the threshold kind's regression pin against the
// pre-policy v2 writer (same partition, same bytes), each kind's plans
// through spec-built SpecPolicy objects, the raw path, the v3
// per-tensor-plan container (round trip, determinism, corruption handling),
// gradaware state under concurrent planning, and EncodeContext plumbing
// through a federation run.
#include <gtest/gtest.h>

#include <barrier>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>

#include "core/codec_spec.hpp"
#include "core/fl/coordinator.hpp"
#include "core/policy.hpp"
#include "core/update_codec.hpp"
#include "data/synthetic.hpp"
#include "util/bytebuffer.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace fedsz::core {
namespace {

Tensor random_tensor(Shape shape, Rng& rng, float scale = 1.0f) {
  std::vector<float> values(shape_numel(shape));
  for (float& v : values) v = scale * static_cast<float>(rng.normal());
  return Tensor::from_data(std::move(shape), std::move(values));
}

/// A dict exercising both partitions: two large weights (lossy under the
/// default rule), a small weight, a bias, and BatchNorm stats.
StateDict mixed_dict(Rng& rng) {
  StateDict dict;
  dict.set("features.0.weight", random_tensor({3000}, rng));
  dict.set("classifier.weight", random_tensor({2000}, rng, 0.1f));
  dict.set("small.weight", random_tensor({20}, rng));
  dict.set("features.0.bias", random_tensor({16}, rng));
  dict.set("bn.running_mean", random_tensor({16}, rng));
  return dict;
}

std::uint16_t stream_version(const Bytes& blob) {
  EXPECT_GE(blob.size(), 6u);
  return static_cast<std::uint16_t>(blob[4]) |
         (static_cast<std::uint16_t>(blob[5]) << 8);
}

double max_error_vs(const StateDict& a, const StateDict& b,
                    const std::string& name) {
  return stats::max_abs_error(a.get(name).span(), b.get(name).span());
}

std::shared_ptr<const SpecPolicy> spec_policy(const std::string& spec) {
  return std::make_shared<const SpecPolicy>(parse_codec_spec(spec));
}

Tensor constant_tensor(std::size_t n, float value) {
  return Tensor::from_data({static_cast<std::int64_t>(n)},
                           std::vector<float>(n, value));
}

// ---- byte pins for every policy= kind, both families ----

/// The pinned update: layerwise's two tight-bound names, magnitudes that
/// land on both magnitude/gradaware rails and between them, an all-zero
/// weight, and the lossless partition's usual small tensors. Each
/// (round, client) scales it differently, so the gradaware EMA moves.
StateDict pinned_update(int round, int client) {
  Rng rng(2024);
  StateDict dict;
  dict.set("features.0.weight", random_tensor({3000}, rng));
  dict.set("features.3.weight", random_tensor({2500}, rng, 0.02f));
  dict.set("classifier.weight", random_tensor({2000}, rng, 1e-3f));
  dict.set("frozen.weight", Tensor::zeros({1500}));
  dict.set("small.weight", random_tensor({20}, rng));
  dict.set("features.0.bias", random_tensor({16}, rng));
  dict.set("bn.running_mean", random_tensor({16}, rng));
  dict.scale(static_cast<float>((1.0 + 0.5 * round) / (1 + client % 3)));
  return dict;
}

/// CRC32 of the payload each spec's codec emits for pinned_update at
/// rounds 0..2 (rows) and clients 7 and 11 (columns). One codec per spec
/// encodes all six in round order, so gradaware's per-client state carries
/// across rounds.
struct PolicyPin {
  const char* spec;
  std::uint32_t crc[3][2];
};

const PolicyPin kPolicyPins[] = {
    {"fedsz:eb=rel:1e-2,chunk=1024,policy=threshold",
     {{0xd05bdd0a, 0xba5450a2},
      {0x270779d8, 0xd05bdd0a},
      {0xe73c3a6b, 0x4d04c193}}},
    {"fedsz:eb=rel:1e-2,chunk=1024,policy=layerwise",
     {{0x9317bb80, 0x07e0fecd},
      {0x65eedf7b, 0x9317bb80},
      {0x310d67ed, 0xb159b60d}}},
    {"fedsz:eb=rel:1e-2,chunk=1024,policy=schedule",
     {{0xd05bdd0a, 0xba5450a2},
      {0xa8fe11cb, 0x93e20df9},
      {0x7d15e9b5, 0x761f1889}}},
    {"fedsz:eb=rel:1e-2,chunk=1024,policy=magnitude",
     {{0x624f424f, 0x2f994f47},
      {0xdc6eca4e, 0x624f424f},
      {0x7d53c0a9, 0xc3f92324}}},
    {"fedsz:eb=rel:1e-2,chunk=1024,policy=gradaware",
     {{0xe3dffc01, 0x8f21b410},
      {0xd58ae48b, 0x1097e025},
      {0x73dfc6e1, 0xaf9f6647}}},
    {"sparse:eb=rel:1e-2,sparsity=0.75,bits=12,policy=threshold",
     {{0x4a007cac, 0x76b94b9d},
      {0x97330350, 0x4a007cac},
      {0x2b8feed8, 0x407e5ba7}}},
    {"sparse:eb=rel:1e-2,sparsity=0.75,bits=12,policy=layerwise",
     {{0x2a638d15, 0xc1732765},
      {0x937504a9, 0x2a638d15},
      {0x587944f3, 0x7f814853}}},
    {"sparse:eb=rel:1e-2,sparsity=0.75,bits=12,policy=schedule",
     {{0x4a007cac, 0x76b94b9d},
      {0x6732f6d9, 0xb70fd4ce},
      {0x8f261481, 0x64dcc97f}}},
    {"sparse:eb=rel:1e-2,sparsity=0.75,bits=12,policy=magnitude",
     {{0x76be86b9, 0x9f6d672d},
      {0x8be392de, 0x76be86b9},
      {0xef798dc7, 0x77c16d1f}}},
    {"sparse:eb=rel:1e-2,sparsity=0.75,bits=12,policy=gradaware",
     {{0x8adedc1e, 0xd0e10f66},
      {0x4cbaa081, 0xdbcf9936},
      {0x33c53698, 0xbe5f778c}}},
};

TEST(PolicyPinTest, EveryPolicyKindEmitsItsPinnedBytes) {
  const int clients[2] = {7, 11};
  for (const PolicyPin& pin : kPolicyPins) {
    const UpdateCodecPtr codec = make_codec(pin.spec);
    std::uint32_t seen[3][2];
    for (int round = 0; round < 3; ++round) {
      for (int c = 0; c < 2; ++c) {
        EncodeContext ctx;
        ctx.round = round;
        ctx.client_id = clients[c];
        const Bytes payload =
            codec->encode(pinned_update(round, clients[c]), ctx).payload;
        seen[round][c] = util::crc32({payload.data(), payload.size()});
        EXPECT_EQ(seen[round][c], pin.crc[round][c])
            << pin.spec << " round " << round << " client " << clients[c];
      }
    }
    // The row to paste after a deliberate format change.
    std::string row;
    char cell[16];
    for (int round = 0; round < 3; ++round) {
      std::snprintf(cell, sizeof(cell), "{0x%08x, ", seen[round][0]);
      row += cell;
      std::snprintf(cell, sizeof(cell), "0x%08x}", seen[round][1]);
      row += cell;
      if (round < 2) row += ", ";
    }
    if (std::memcmp(seen, pin.crc, sizeof(seen)) != 0)
      ADD_FAILURE() << pin.spec << " pins: {" << row << "}";
  }
}

TEST(PolicyPinTest, EverySpellingNamesItself) {
  for (const std::string& kind : compression_policy_names()) {
    for (const std::string family : {"fedsz", "sparse"}) {
      const std::string spec = family + ":policy=" + kind;
      const UpdateCodecPtr codec = make_codec(spec);
      const auto& fedsz = dynamic_cast<const FedSzCodec&>(*codec).fedsz();
      EXPECT_EQ(fedsz.policy().name(),
                family == "sparse" ? "sparse+" + kind : kind)
          << spec;
      EXPECT_EQ(fedsz.policy().keyed_by_client(), kind == "gradaware")
          << spec;
    }
  }
}

// ---- threshold: Algorithm 1 and the byte-stability pin ----

TEST(ThresholdPolicyTest, PlanMatchesAlgorithmOnePartition) {
  const auto policy = spec_policy("fedsz");
  Rng rng(1);
  const StateDict dict = mixed_dict(rng);
  for (const auto& [name, tensor] : dict) {
    const TensorPlan plan = policy->plan(name, tensor, {});
    const bool lossy = is_lossy_entry(name, tensor.numel(), 1000);
    EXPECT_EQ(plan.path == TensorPath::kLossy, lossy) << name;
  }
}

/// Reference reimplementation of the pre-policy v2 writer (serial, one
/// codec, one bound), mirroring make_v1_stream in chunk_container_test: an
/// independent double-entry pin on the default wire bytes.
Bytes make_reference_v2_stream(const StateDict& dict,
                               const FedSzConfig& config) {
  const lossy::LossyCodec& lossy_codec = lossy::lossy_codec(config.lossy_id);
  const lossless::LosslessCodec& lossless_codec =
      lossless::lossless_codec(config.lossless_id);
  StateDict lossless_partition;
  ByteWriter w;
  const char magic[4] = {'F', 'S', 'Z', '1'};
  w.put_bytes({reinterpret_cast<const std::uint8_t*>(magic), 4});
  w.put_u16(2);
  w.put_u8(static_cast<std::uint8_t>(config.lossy_id));
  w.put_u8(static_cast<std::uint8_t>(config.lossless_id));
  w.put_u8(static_cast<std::uint8_t>(config.bound.mode));
  w.put_f64(config.bound.value);
  w.put_varint(config.chunk_elements);
  std::vector<const StateDict::Entry*> lossy_entries;
  for (const auto& entry : dict) {
    if (is_lossy_entry(entry.first, entry.second.numel(),
                       config.lossy_threshold))
      lossy_entries.push_back(&entry);
    else
      lossless_partition.set(entry.first, entry.second);
  }
  w.put_u32(static_cast<std::uint32_t>(lossy_entries.size()));
  for (const StateDict::Entry* entry : lossy_entries) {
    w.put_string(entry->first);
    const Shape& shape = entry->second.shape();
    w.put_u8(static_cast<std::uint8_t>(shape.size()));
    for (const std::int64_t d : shape)
      w.put_varint(static_cast<std::uint64_t>(d));
    const double eps =
        std::max(config.bound.absolute_for(entry->second.span()), 1e-300);
    w.put_f64(eps);
    const FloatSpan values = entry->second.span();
    const std::size_t chunks = ceil_div(values.size(), config.chunk_elements);
    w.put_varint(chunks);
    std::vector<Bytes> payloads(chunks);
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t begin = c * config.chunk_elements;
      const std::size_t len =
          std::min(config.chunk_elements, values.size() - begin);
      payloads[c] = lossy_codec.compress(values.subspan(begin, len),
                                         lossy::ErrorBound::absolute(eps));
      w.put_varint(payloads[c].size());
    }
    for (const Bytes& payload : payloads)
      w.put_bytes({payload.data(), payload.size()});
  }
  const Bytes serialized = lossless_partition.serialize();
  const Bytes lossless_payload =
      lossless_codec.compress({serialized.data(), serialized.size()});
  w.put_blob({lossless_payload.data(), lossless_payload.size()});
  return w.finish();
}

TEST(ThresholdPolicyTest, DefaultPolicyPinnedToPrePolicyV2Bytes) {
  Rng rng(2);
  const StateDict dict = mixed_dict(rng);
  FedSzConfig config;
  config.chunk_elements = 777;  // force multi-chunk tensors
  const Bytes blob = FedSz{config}.compress(dict);
  EXPECT_EQ(stream_version(blob), 2u);
  EXPECT_EQ(blob, make_reference_v2_stream(dict, config));
}

TEST(ThresholdPolicyTest, ExplicitThresholdPolicyEmitsTheSameBytes) {
  Rng rng(3);
  const StateDict dict = mixed_dict(rng);
  FedSzConfig implicit;
  FedSzConfig explicit_config;
  explicit_config.policy = spec_policy("fedsz");
  CompressionStats stats;
  const Bytes a = FedSz{implicit}.compress(dict, &stats);
  const Bytes b = FedSz{explicit_config}.compress(dict);
  EXPECT_EQ(a, b);
  EXPECT_EQ(stream_version(a), 2u);
  EXPECT_EQ(stats.lossy_tensors, 2u);
  EXPECT_EQ(stats.lossless_tensors, 3u);
  EXPECT_EQ(stats.raw_tensors, 0u);
  EXPECT_DOUBLE_EQ(stats.mean_bound_value, implicit.bound.value);
}

TEST(ThresholdPolicyTest, NonDefaultThresholdInPolicyUpgradesToV3) {
  // A policy whose partition disagrees with the config's Algorithm-1 default
  // cannot ride the uniform v2 container.
  Rng rng(4);
  const StateDict dict = mixed_dict(rng);
  FedSzConfig config;
  config.policy = spec_policy("fedsz:threshold=10");
  CompressionStats stats;
  const Bytes blob = FedSz{config}.compress(dict, &stats);
  EXPECT_EQ(stream_version(blob), 3u);
  EXPECT_EQ(stats.lossy_tensors, 3u);  // small.weight now routes lossy
  const StateDict back =
      FedSz{config}.decompress({blob.data(), blob.size()});
  ASSERT_EQ(back.size(), dict.size());
  EXPECT_TRUE(back.get("features.0.bias").equals(dict.get("features.0.bias")));
}

// ---- layerwise ----

TEST(LayerwisePolicyTest, HeadAndStemGetATenfoldTighterBound) {
  const auto policy = spec_policy("fedsz:eb=rel:1e-2,policy=layerwise");
  Rng rng(5);
  const Tensor big = random_tensor({2000}, rng);
  EXPECT_DOUBLE_EQ(policy->plan("classifier.weight", big, {}).bound.value,
                   1e-3);
  EXPECT_DOUBLE_EQ(policy->plan("features.0.weight", big, {}).bound.value,
                   1e-3);
  EXPECT_DOUBLE_EQ(policy->plan("features.9.weight", big, {}).bound.value,
                   1e-2);
  EXPECT_EQ(policy->plan("classifier.bias", big, {}).path,
            TensorPath::kLossless);
}

TEST(LayerwisePolicyTest, PerTensorBoundsHoldThroughTheV3Container) {
  Rng rng(6);
  StateDict dict = mixed_dict(rng);
  dict.set("head.weight", random_tensor({1500}, rng));
  FedSzConfig config;
  config.policy = spec_policy("fedsz:eb=rel:1e-2,policy=layerwise");
  const FedSz fedsz{config};
  const Bytes blob = fedsz.compress(dict);
  EXPECT_EQ(stream_version(blob), 3u);
  const StateDict back = fedsz.decompress({blob.data(), blob.size()});
  const double tight_eps = lossy::ErrorBound::relative(1e-3).absolute_for(
      dict.get("classifier.weight").span());
  const double loose_eps = lossy::ErrorBound::relative(1e-2).absolute_for(
      dict.get("head.weight").span());
  EXPECT_LE(max_error_vs(dict, back, "classifier.weight"),
            tight_eps * (1 + 1e-5));
  EXPECT_LE(max_error_vs(dict, back, "head.weight"), loose_eps * (1 + 1e-5));
  EXPECT_GT(max_error_vs(dict, back, "head.weight"), tight_eps);
  EXPECT_TRUE(back.get("bn.running_mean").equals(dict.get("bn.running_mean")));
}

// ---- schedule ----

double scheduled_bound(const SpecPolicy& policy, int round) {
  EncodeContext ctx;
  ctx.round = round;
  return policy.plan("w.weight", constant_tensor(2000, 1.0f), ctx).bound.value;
}

TEST(SchedulePolicyTest, BoundDecaysGeometricallyAndClampsAtFloor) {
  const auto decay = spec_policy("fedsz:eb=rel:1e-2,policy=schedule:0.5");
  EXPECT_DOUBLE_EQ(scheduled_bound(*decay, 0), 1e-2);
  EXPECT_DOUBLE_EQ(scheduled_bound(*decay, 1), 5e-3);
  EXPECT_DOUBLE_EQ(scheduled_bound(*decay, 2), 2.5e-3);
  EXPECT_DOUBLE_EQ(scheduled_bound(*decay, 10), 1e-4);  // floor: b * 1e-2
  EXPECT_DOUBLE_EQ(scheduled_bound(*decay, -3), 1e-2);  // rounds clamp to 0
  const auto grow = spec_policy("fedsz:eb=rel:1e-2,policy=schedule:2");
  EXPECT_DOUBLE_EQ(scheduled_bound(*grow, 3), 8e-2);
  EXPECT_DOUBLE_EQ(scheduled_bound(*grow, 10), 1.0);  // ceiling: b * 1e2
}

TEST(SchedulePolicyTest, RoundContextChangesTheEmittedStream) {
  Rng rng(7);
  const StateDict dict = mixed_dict(rng);
  FedSzConfig config;
  config.policy = spec_policy("fedsz:eb=rel:1e-1,policy=schedule:0.1");
  const FedSz fedsz{config};
  CompressionStats early, late;
  EncodeContext ctx;
  ctx.round = 0;
  const Bytes blob0 = fedsz.compress(dict, &early, ctx);
  ctx.round = 2;
  const Bytes blob2 = fedsz.compress(dict, &late, ctx);
  EXPECT_DOUBLE_EQ(early.mean_bound_value, 1e-1);
  EXPECT_DOUBLE_EQ(late.mean_bound_value, 1e-3);
  // A 100x tighter bound must cost bytes.
  EXPECT_GT(blob2.size(), blob0.size());
  // The later stream still round-trips within its own bound.
  const StateDict back = fedsz.decompress({blob2.data(), blob2.size()});
  const double eps = lossy::ErrorBound::relative(1e-3).absolute_for(
      dict.get("features.0.weight").span());
  EXPECT_LE(max_error_vs(dict, back, "features.0.weight"),
            eps * (1 + 1e-5));
}

TEST(SchedulePolicyTest, DegenerateConfigsRejected) {
  CodecSpec spec = parse_codec_spec("fedsz:policy=schedule");
  for (const double factor :
       {0.0, -0.5, std::numeric_limits<double>::infinity()}) {
    spec.schedule_factor = factor;
    EXPECT_THROW(SpecPolicy{spec}, InvalidArgument) << factor;
  }
}

// ---- magnitude ----

TEST(MagnitudePolicyTest, SmallUpdatesGetTighterBounds) {
  const auto policy = spec_policy("fedsz:eb=rel:1e-2,policy=magnitude");
  const TensorPlan quiet =
      policy->plan("a.weight", constant_tensor(2000, 1e-4f), {});
  const TensorPlan mid =
      policy->plan("b.weight", constant_tensor(2000, 0.0625f), {});
  const TensorPlan loud =
      policy->plan("c.weight", constant_tensor(2000, 10.0f), {});
  ASSERT_EQ(quiet.path, TensorPath::kLossy);
  ASSERT_EQ(mid.path, TensorPath::kLossy);
  ASSERT_EQ(loud.path, TensorPath::kLossy);
  // rms / kReferenceRms, clamped: quiet is 1e-2 of the reference -> the
  // 0.1 rail; 0.0625 (exact in float) scales by 6.25; loud -> the 10 rail.
  EXPECT_DOUBLE_EQ(quiet.bound.value, 1e-2 * SpecPolicy::kMinScale);
  EXPECT_DOUBLE_EQ(mid.bound.value, 1e-2 * (0.0625 / 1e-2));
  EXPECT_DOUBLE_EQ(loud.bound.value, 1e-2 * SpecPolicy::kMaxScale);
}

TEST(MagnitudePolicyTest, AllZeroUpdateRoutesLossless) {
  // A zero update reconstructs exactly and compresses to almost nothing on
  // the lossless path; lossy (or raw) would only add overhead.
  const auto policy = spec_policy("fedsz:policy=magnitude");
  const Tensor zero = Tensor::zeros({2000});
  EXPECT_EQ(policy->plan("z.weight", zero, {}).path, TensorPath::kLossless);
}

// ---- raw path and the v3 container ----

/// Routes every lossy-eligible tensor raw — exercises the raw path without
/// depending on a built-in policy's heuristics.
class RawEverythingPolicy final : public CompressionPolicy {
 public:
  std::string name() const override { return "raw-everything"; }
  TensorPlan plan(const std::string& name, const Tensor& tensor,
                  const EncodeContext&) const override {
    if (is_lossy_entry(name, tensor.numel(), 1000)) return TensorPlan::raw();
    return TensorPlan::lossless();
  }
};

TEST(RawPathTest, RawTensorsRoundTripBitExact) {
  Rng rng(9);
  const StateDict dict = mixed_dict(rng);
  FedSzConfig config;
  config.policy = std::make_shared<RawEverythingPolicy>();
  const FedSz fedsz{config};
  CompressionStats stats;
  const Bytes blob = fedsz.compress(dict, &stats);
  EXPECT_EQ(stream_version(blob), 3u);
  EXPECT_EQ(stats.raw_tensors, 2u);
  EXPECT_EQ(stats.lossy_tensors, 0u);
  EXPECT_EQ(stats.raw_original_bytes, (3000u + 2000u) * sizeof(float));
  CompressionStats decode_stats;
  const StateDict back =
      fedsz.decompress({blob.data(), blob.size()}, &decode_stats);
  ASSERT_EQ(back.size(), dict.size());
  for (const auto& [name, tensor] : dict)
    EXPECT_TRUE(back.get(name).equals(tensor)) << name;
  EXPECT_EQ(decode_stats.raw_tensors, 2u);
  EXPECT_EQ(decode_stats.lossless_tensors, 3u);
}

TEST(V3Container, ByteIdenticalAcrossParallelism) {
  Rng rng(10);
  const StateDict dict = mixed_dict(rng);
  Bytes serial;
  for (const std::size_t parallelism :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{0}}) {
    FedSzConfig config;
    config.chunk_elements = 333;
    config.parallelism = parallelism;
    config.policy = spec_policy("fedsz:policy=layerwise");
    const Bytes blob = FedSz{config}.compress(dict);
    EXPECT_EQ(stream_version(blob), 3u);
    if (parallelism == 1)
      serial = blob;
    else
      EXPECT_EQ(blob, serial) << "parallelism=" << parallelism;
  }
}

TEST(V3Container, MixedCodecsInOneStreamRoundTrip) {
  // A per-tensor policy can put SZ3 and SZx tensors in the same stream.
  class MixedCodecPolicy final : public CompressionPolicy {
   public:
    std::string name() const override { return "mixed"; }
    TensorPlan plan(const std::string& name, const Tensor& tensor,
                    const EncodeContext&) const override {
      if (!is_lossy_entry(name, tensor.numel(), 1000))
        return TensorPlan::lossless();
      const lossy::LossyId id = name.find("classifier") != std::string::npos
                                    ? lossy::LossyId::kSzx
                                    : lossy::LossyId::kSz3;
      return TensorPlan::lossy(id, lossy::ErrorBound::relative(1e-3));
    }
  };
  Rng rng(11);
  const StateDict dict = mixed_dict(rng);
  FedSzConfig config;
  config.policy = std::make_shared<MixedCodecPolicy>();
  const FedSz fedsz{config};
  const Bytes blob = fedsz.compress(dict);
  EXPECT_EQ(stream_version(blob), 3u);
  const StateDict back = fedsz.decompress({blob.data(), blob.size()});
  ASSERT_EQ(back.size(), dict.size());
  for (const std::string name : {"features.0.weight", "classifier.weight"}) {
    const double eps = lossy::ErrorBound::relative(1e-3).absolute_for(
        dict.get(name).span());
    EXPECT_LE(max_error_vs(dict, back, name), eps * (1 + 1e-5)) << name;
  }
}

TEST(V3Container, UnknownPathByteThrows) {
  FedSzConfig config;
  ByteWriter w;
  const char magic[4] = {'F', 'S', 'Z', '1'};
  w.put_bytes({reinterpret_cast<const std::uint8_t*>(magic), 4});
  w.put_u16(3);
  w.put_u8(static_cast<std::uint8_t>(config.lossless_id));
  w.put_varint(512);  // chunk_elements
  w.put_u32(1);
  w.put_string("t.weight");
  w.put_u8(1);
  w.put_varint(1200);
  w.put_u8(0x7E);  // not a TensorPath
  const Bytes blob = w.finish();
  const FedSz fedsz{config};
  EXPECT_THROW(fedsz.decompress({blob.data(), blob.size()}), CorruptStream);
}

TEST(V3Container, UnknownPerTensorCodecIdThrows) {
  FedSzConfig config;
  ByteWriter w;
  const char magic[4] = {'F', 'S', 'Z', '1'};
  w.put_bytes({reinterpret_cast<const std::uint8_t*>(magic), 4});
  w.put_u16(3);
  w.put_u8(static_cast<std::uint8_t>(config.lossless_id));
  w.put_varint(512);
  w.put_u32(1);
  w.put_string("t.weight");
  w.put_u8(1);
  w.put_varint(1200);
  w.put_u8(0);     // TensorPath::kLossy
  w.put_u8(0x7F);  // unknown lossy codec id
  const Bytes blob = w.finish();
  const FedSz fedsz{config};
  EXPECT_THROW(fedsz.decompress({blob.data(), blob.size()}), CorruptStream);
}

TEST(V3Container, TruncatedRawPayloadThrows) {
  Rng rng(12);
  const StateDict dict = mixed_dict(rng);
  FedSzConfig config;
  config.policy = std::make_shared<RawEverythingPolicy>();
  const FedSz fedsz{config};
  const Bytes blob = fedsz.compress(dict);
  for (const double frac : {0.2, 0.6, 0.95}) {
    Bytes cut(blob.begin(),
              blob.begin() + static_cast<std::ptrdiff_t>(blob.size() * frac));
    EXPECT_THROW(fedsz.decompress({cut.data(), cut.size()}), CorruptStream);
  }
}

// ---- gradient-aware bounds ----

TEST(GradAwarePolicyTest, HighSensitivityTightensTheBound) {
  const auto policy = spec_policy("fedsz:eb=rel:1e-2,policy=gradaware");
  EncodeContext ctx;
  ctx.client_id = 0;
  // A constant tensor's rms is |value|, exact for powers of two: rms 2^-4
  // is 6.25x the reference (scale 0.16, tighter), rms 2^-8 is 0.39x
  // (scale 2.56, looser).
  const TensorPlan hot =
      policy->plan("hot.weight", constant_tensor(2048, 0.0625f), ctx);
  const TensorPlan cold =
      policy->plan("cold.weight", constant_tensor(2048, 0.00390625f), ctx);
  ASSERT_EQ(hot.path, TensorPath::kLossy);
  ASSERT_EQ(cold.path, TensorPath::kLossy);
  EXPECT_DOUBLE_EQ(hot.bound.value, 1e-2 * (1e-2 / 0.0625));
  EXPECT_DOUBLE_EQ(cold.bound.value, 1e-2 * (1e-2 / 0.00390625));
  EXPECT_LT(hot.bound.value, cold.bound.value);
}

TEST(GradAwarePolicyTest, ScaleClampsAtTheFixedRails) {
  const auto policy = spec_policy("fedsz:eb=rel:1e-2,policy=gradaware");
  EncodeContext ctx;
  const TensorPlan loud =
      policy->plan("loud.weight", constant_tensor(2048, 100.0f), ctx);
  const TensorPlan quiet =
      policy->plan("quiet.weight", constant_tensor(2048, 1e-6f), ctx);
  EXPECT_DOUBLE_EQ(loud.bound.value, 1e-2 * SpecPolicy::kMinScale);
  EXPECT_DOUBLE_EQ(quiet.bound.value, 1e-2 * SpecPolicy::kMaxScale);
}

TEST(GradAwarePolicyTest, SameRoundReplansAreIdempotent) {
  // Re-encoding an update (workspace retry, thread race) must not advance
  // the EMA: the plan for (client, round, tensor) is a fixed point.
  const auto policy = spec_policy("fedsz:policy=gradaware");
  EncodeContext ctx;
  ctx.client_id = 3;
  ctx.round = 0;
  const Tensor tensor = constant_tensor(2048, 0.5f);
  const TensorPlan first = policy->plan("layer.weight", tensor, ctx);
  const double sensitivity_once = policy->sensitivity(3, "layer.weight");
  const TensorPlan second = policy->plan("layer.weight", tensor, ctx);
  EXPECT_DOUBLE_EQ(first.bound.value, second.bound.value);
  EXPECT_DOUBLE_EQ(policy->sensitivity(3, "layer.weight"), sensitivity_once);
}

TEST(GradAwarePolicyTest, SensitivityIsAnEmaAcrossRounds) {
  const auto policy = spec_policy("fedsz:policy=gradaware:0.5");
  EncodeContext ctx;
  ctx.client_id = 1;
  ctx.round = 0;
  (void)policy->plan("layer.weight", constant_tensor(2048, 1.0f), ctx);
  EXPECT_DOUBLE_EQ(policy->sensitivity(1, "layer.weight"), 1.0);
  ctx.round = 1;
  (void)policy->plan("layer.weight", constant_tensor(2048, 0.5f), ctx);
  // beta * 1.0 + (1 - beta) * 0.5 = 0.75
  EXPECT_DOUBLE_EQ(policy->sensitivity(1, "layer.weight"), 0.75);
  // Per-client state: another client's EMA is untouched.
  EXPECT_DOUBLE_EQ(policy->sensitivity(2, "layer.weight"), 0.0);
}

TEST(GradAwarePolicyTest, SmallAndZeroTensorsRouteLossless) {
  const auto policy = spec_policy("fedsz:policy=gradaware");
  EncodeContext ctx;
  EXPECT_EQ(policy->plan("tiny.weight", constant_tensor(4, 1.0f), ctx).path,
            TensorPath::kLossless);
  EXPECT_EQ(policy->plan("zero.weight", constant_tensor(2048, 0.0f), ctx).path,
            TensorPath::kLossless);
  EXPECT_EQ(policy->plan("big.bias", constant_tensor(2048, 1.0f), ctx).path,
            TensorPath::kLossless);
}

TEST(GradAwarePolicyTest, DegenerateConfigsRejected) {
  CodecSpec spec = parse_codec_spec("fedsz:policy=gradaware");
  for (const double beta : {0.0, 1.0, 1.5}) {
    spec.gradaware_beta = beta;
    EXPECT_THROW(SpecPolicy{spec}, InvalidArgument) << beta;
  }
}

TEST(GradAwarePolicyTest, ConcurrentPlansMatchASerialReplay) {
  // Every pool thread that encodes shares one policy and its EMA map. Four
  // threads plan their own client's tensors, round by round in lockstep
  // and twice per round (a re-encode), and every bound must equal a
  // single-threaded replay of the same client.
  constexpr int kClients = 4;
  constexpr int kRounds = 3;
  const std::vector<std::string> names = {"a.weight", "b.weight", "c.weight",
                                          "d.weight"};
  const auto plan_round = [&names](const SpecPolicy& policy, int client,
                                   int round, std::vector<double>& bounds) {
    EncodeContext ctx;
    ctx.round = round;
    ctx.client_id = client;
    for (std::size_t t = 0; t < names.size(); ++t) {
      const float value =
          0.002f * static_cast<float>((1 + client) * (1 + round) + t);
      for (int repeat = 0; repeat < 2; ++repeat)
        bounds.push_back(
            policy.plan(names[t], constant_tensor(1024 + t, value), ctx)
                .bound.value);
    }
  };
  const auto shared = spec_policy("fedsz:policy=gradaware:0.3");
  std::vector<std::vector<double>> concurrent(kClients);
  std::barrier round_barrier(kClients);
  {
    std::vector<std::thread> threads;
    for (int client = 0; client < kClients; ++client) {
      threads.emplace_back([&, client] {
        for (int round = 0; round < kRounds; ++round) {
          plan_round(*shared, client, round, concurrent[client]);
          round_barrier.arrive_and_wait();
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  const auto serial = spec_policy("fedsz:policy=gradaware:0.3");
  for (int client = 0; client < kClients; ++client) {
    std::vector<double> replay;
    for (int round = 0; round < kRounds; ++round)
      plan_round(*serial, client, round, replay);
    EXPECT_EQ(concurrent[client], replay) << "client " << client;
    for (const std::string& name : names)
      EXPECT_EQ(shared->sensitivity(client, name),
                serial->sensitivity(client, name))
          << "client " << client << " " << name;
  }
}

// ---- sparse family ----

TEST(SparseOverlayTest, ReroutesLossyPlansOntoTheSparsePath) {
  const auto policy = spec_policy("sparse:sparsity=0.9,bits=8");
  EXPECT_EQ(policy->name(), "sparse+threshold");
  EncodeContext ctx;
  const TensorPlan big =
      policy->plan("layer.weight", constant_tensor(2048, 1.0f), ctx);
  EXPECT_EQ(big.path, TensorPath::kSparse);
  EXPECT_DOUBLE_EQ(big.sparsity, 0.9);
  EXPECT_EQ(big.sparse_bits, 8u);
  // Non-lossy plans pass through untouched.
  EXPECT_EQ(policy->plan("small.bias", constant_tensor(4, 1.0f), ctx).path,
            TensorPath::kLossless);
}

TEST(SparseOverlayTest, InheritsTheInnerPolicysBound) {
  const auto policy =
      spec_policy("sparse:eb=rel:1e-2,sparsity=0.5,policy=gradaware");
  EXPECT_EQ(policy->name(), "sparse+gradaware");
  EncodeContext ctx;
  const TensorPlan plan =
      policy->plan("hot.weight", constant_tensor(2048, 1.0f), ctx);
  ASSERT_EQ(plan.path, TensorPath::kSparse);
  EXPECT_DOUBLE_EQ(plan.bound.value, 1e-3);  // gradaware's tightened bound
}

TEST(SparseOverlayTest, InvalidCompositionsRejected) {
  CodecSpec spec = parse_codec_spec("sparse:sparsity=0.5,bits=8");
  spec.sparsity = 1.5;
  EXPECT_THROW(SpecPolicy{spec}, InvalidArgument);
  spec.sparsity = 0.5;
  spec.sparse_bits = 40;
  EXPECT_THROW(SpecPolicy{spec}, InvalidArgument);
  // Only the sparse family can honor sparsity/bits.
  CodecSpec dense = parse_codec_spec("fedsz");
  dense.sparse_bits = 8;
  EXPECT_THROW(SpecPolicy{dense}, InvalidArgument);
}

// ---- EncodeContext through a federation run ----

TEST(PolicyFlIntegration, SchedulePolicyBoundsShowInPerClientTrace) {
  auto [train, test] = data::make_dataset("cifar10");
  nn::ModelConfig model;
  model.arch = "alexnet";  // FC-dominated: tiny scale still has lossy tensors
  model.scale = nn::ModelScale::kTiny;
  FlRunConfig config;
  config.clients = 4;
  config.rounds = 3;
  config.eval_limit = 16;
  config.threads = 4;
  config.client.batch_size = 16;
  config.evaluate_every_round = false;
  FlCoordinator coordinator(
      model, data::take(train, 128), data::take(test, 32), config,
      make_codec("fedsz:eb=rel:1e-1,policy=schedule:0.5"));
  const FlRunResult result = coordinator.run();
  ASSERT_EQ(result.rounds.size(), 3u);
  for (int round = 0; round < 3; ++round) {
    const RoundRecord& record = result.rounds[round];
    ASSERT_EQ(record.clients.size(), 4u);
    const double expected = 1e-1 * std::pow(0.5, round);
    for (const ClientTraceEntry& entry : record.clients) {
      EXPECT_EQ(entry.dispatch_round, round);
      EXPECT_DOUBLE_EQ(entry.bound_value, expected)
          << "round " << round << " client " << entry.client;
      EXPECT_GT(entry.lossy_tensors, 0u);
    }
  }
  // The tightening schedule must grow the per-round payload.
  EXPECT_GT(result.rounds[2].bytes_sent, result.rounds[0].bytes_sent);
}

}  // namespace
}  // namespace fedsz::core
