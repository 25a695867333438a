// Golden-fixture backward-compatibility: tiny v1, v2 and v3 bitstreams are
// checked in under tests/data/ together with the StateDicts they must decode
// to, so a future container change cannot silently drop support for old
// streams. The v2 fixture doubles as the threshold policy's byte-regression
// pin: the default-policy writer must still reproduce it bit for bit. The
// v3 fixture pins the mixed-plan per-tensor container (per-tensor codecs,
// bounds and a raw path) the same way, so v3 writer drift is visible.
//
// Regenerate (only when a deliberate format change requires it):
//   FEDSZ_REGEN_GOLDEN=1 ./build/golden_fixture_test
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "core/fedsz.hpp"
#include "util/bytebuffer.hpp"

namespace fedsz::core {
namespace {

std::filesystem::path data_dir() {
  return std::filesystem::path(FEDSZ_TEST_DATA_DIR);
}

Bytes read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ADD_FAILURE() << "missing golden fixture " << path
                  << " (regenerate with FEDSZ_REGEN_GOLDEN=1)";
    return {};
  }
  return Bytes((std::istreambuf_iterator<char>(in)),
               std::istreambuf_iterator<char>());
}

void write_file(const std::filesystem::path& path, const Bytes& bytes) {
  std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// The fixture update: closed-form values (no RNG), so the generator and
/// the verifier can never drift.
StateDict golden_dict() {
  StateDict dict;
  {
    std::vector<float> values(2500);
    for (std::size_t i = 0; i < values.size(); ++i)
      values[i] = std::sin(static_cast<float>(i) * 0.01f);
    dict.set("features.0.weight", Tensor::from_data({50, 50}, values));
  }
  {
    std::vector<float> values(1500);
    for (std::size_t i = 0; i < values.size(); ++i)
      values[i] = 0.1f * std::cos(static_cast<float>(i) * 0.02f);
    dict.set("classifier.weight", Tensor::from_data({1500}, values));
  }
  {
    std::vector<float> values(16);
    for (std::size_t i = 0; i < values.size(); ++i)
      values[i] = 0.25f * static_cast<float>(i);
    dict.set("features.0.bias", Tensor::from_data({16}, values));
  }
  {
    std::vector<float> values(16);
    for (std::size_t i = 0; i < values.size(); ++i)
      values[i] = 1.0f + 0.125f * static_cast<float>(i);
    dict.set("bn.running_var", Tensor::from_data({16}, values));
  }
  return dict;
}

FedSzConfig golden_config() {
  FedSzConfig config;
  config.bound = lossy::ErrorBound::relative(1e-3);
  config.chunk_elements = 1024;  // the 2500-element tensor spans 3 chunks
  return config;
}

/// A fixed mixed-plan policy for the v3 fixture: two lossy tensors with
/// DIFFERENT codecs and bound modes, one raw tensor, one lossless — every
/// per-tensor branch of the v3 writer in a single stream. Closed-form, so
/// the fixture can always be regenerated from source.
class GoldenMixedPolicy final : public CompressionPolicy {
 public:
  std::string name() const override { return "golden-mixed"; }
  TensorPlan plan(const std::string& name, const Tensor& tensor,
                  const EncodeContext& ctx) const override {
    (void)tensor;
    (void)ctx;
    if (name == "features.0.weight")
      return TensorPlan::lossy(lossy::LossyId::kSz2,
                               lossy::ErrorBound::relative(1e-3));
    if (name == "classifier.weight")
      return TensorPlan::lossy(lossy::LossyId::kSz3,
                               lossy::ErrorBound::absolute(5e-4));
    if (name == "features.0.bias") return TensorPlan::raw();
    return TensorPlan::lossless();
  }
};

FedSzConfig golden_v3_config() {
  FedSzConfig config = golden_config();
  config.policy = std::make_shared<const GoldenMixedPolicy>();
  return config;
}

/// The v4 fixture policy: an SZ tensor and a sparse tensor in ONE stream
/// (the kSparse path tag rides the same v3 container), plus the raw and
/// lossless branches. Closed-form like its siblings.
class GoldenSparseMixedPolicy final : public CompressionPolicy {
 public:
  std::string name() const override { return "golden-sparse-mixed"; }
  TensorPlan plan(const std::string& name, const Tensor& tensor,
                  const EncodeContext& ctx) const override {
    (void)tensor;
    (void)ctx;
    if (name == "features.0.weight")
      return TensorPlan::lossy(lossy::LossyId::kSz2,
                               lossy::ErrorBound::relative(1e-3));
    if (name == "classifier.weight")
      return TensorPlan::sparse(lossy::ErrorBound::relative(1e-3), 0.8, 6);
    if (name == "features.0.bias") return TensorPlan::raw();
    return TensorPlan::lossless();
  }
};

FedSzConfig golden_v4_config() {
  FedSzConfig config = golden_config();
  config.policy = std::make_shared<const GoldenSparseMixedPolicy>();
  return config;
}

/// The original (pre-chunking) v1 writer, reproduced so the fixture can be
/// regenerated from source if ever needed.
Bytes make_v1_stream(const StateDict& dict, const FedSzConfig& config) {
  const lossy::LossyCodec& lossy_codec = lossy::lossy_codec(config.lossy_id);
  const lossless::LosslessCodec& lossless_codec =
      lossless::lossless_codec(config.lossless_id);
  StateDict lossless_partition;
  ByteWriter w;
  const char magic[4] = {'F', 'S', 'Z', '1'};
  w.put_bytes({reinterpret_cast<const std::uint8_t*>(magic), 4});
  w.put_u16(1);
  w.put_u8(static_cast<std::uint8_t>(config.lossy_id));
  w.put_u8(static_cast<std::uint8_t>(config.lossless_id));
  w.put_u8(static_cast<std::uint8_t>(config.bound.mode));
  w.put_f64(config.bound.value);
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
    const Bytes payload =
        lossy_codec.compress(entry->second.span(), config.bound);
    w.put_blob({payload.data(), payload.size()});
  }
  const Bytes serialized = lossless_partition.serialize();
  const Bytes lossless_payload =
      lossless_codec.compress({serialized.data(), serialized.size()});
  w.put_blob({lossless_payload.data(), lossless_payload.size()});
  return w.finish();
}

bool regen_requested() {
  const char* env = std::getenv("FEDSZ_REGEN_GOLDEN");
  return env != nullptr && env[0] == '1';
}

void expect_dicts_identical(const StateDict& decoded,
                            const StateDict& expected) {
  ASSERT_EQ(decoded.size(), expected.size());
  for (const auto& [name, tensor] : expected) {
    ASSERT_TRUE(decoded.contains(name)) << name;
    EXPECT_TRUE(decoded.get(name).equals(tensor)) << name;
  }
}

TEST(GoldenFixtures, RegenerateWhenRequested) {
  if (!regen_requested()) GTEST_SKIP() << "set FEDSZ_REGEN_GOLDEN=1 to regen";
  const StateDict dict = golden_dict();
  const FedSz fedsz{golden_config()};
  const Bytes v1 = make_v1_stream(dict, golden_config());
  const Bytes v2 = fedsz.compress(dict);
  write_file(data_dir() / "golden_v1.fsz", v1);
  write_file(data_dir() / "golden_v2.fsz", v2);
  write_file(data_dir() / "golden_v1_expected.sd",
             fedsz.decompress({v1.data(), v1.size()}).serialize());
  write_file(data_dir() / "golden_v2_expected.sd",
             fedsz.decompress({v2.data(), v2.size()}).serialize());
  const FedSz mixed{golden_v3_config()};
  const Bytes v3 = mixed.compress(dict);
  write_file(data_dir() / "golden_v3.fsz", v3);
  write_file(data_dir() / "golden_v3_expected.sd",
             mixed.decompress({v3.data(), v3.size()}).serialize());
  const FedSz sparse_mixed{golden_v4_config()};
  const Bytes v4 = sparse_mixed.compress(dict);
  write_file(data_dir() / "golden_v4.fsz", v4);
  write_file(data_dir() / "golden_v4_expected.sd",
             sparse_mixed.decompress({v4.data(), v4.size()}).serialize());
}

TEST(GoldenFixtures, V1StreamStillDecodesToTheExpectedStateDict) {
  const Bytes stream = read_file(data_dir() / "golden_v1.fsz");
  const Bytes expected_bytes = read_file(data_dir() / "golden_v1_expected.sd");
  ASSERT_FALSE(stream.empty());
  ASSERT_FALSE(expected_bytes.empty());
  // Decode with a default-config codec: everything needed lives in the
  // stream header.
  CompressionStats stats;
  const StateDict decoded =
      FedSz{FedSzConfig{}}.decompress({stream.data(), stream.size()}, &stats);
  expect_dicts_identical(
      decoded,
      StateDict::deserialize({expected_bytes.data(), expected_bytes.size()}));
  EXPECT_EQ(stats.lossy_tensors, 2u);
  EXPECT_EQ(stats.lossless_tensors, 2u);
}

TEST(GoldenFixtures, V2StreamStillDecodesToTheExpectedStateDict) {
  const Bytes stream = read_file(data_dir() / "golden_v2.fsz");
  const Bytes expected_bytes = read_file(data_dir() / "golden_v2_expected.sd");
  ASSERT_FALSE(stream.empty());
  ASSERT_FALSE(expected_bytes.empty());
  CompressionStats stats;
  const StateDict decoded =
      FedSz{FedSzConfig{}}.decompress({stream.data(), stream.size()}, &stats);
  expect_dicts_identical(
      decoded,
      StateDict::deserialize({expected_bytes.data(), expected_bytes.size()}));
  EXPECT_EQ(stats.lossy_tensors, 2u);
  EXPECT_EQ(stats.lossy_chunks, 0u);  // decode does not re-chunk
}

TEST(GoldenFixtures, V3StreamStillDecodesToTheExpectedStateDict) {
  const Bytes stream = read_file(data_dir() / "golden_v3.fsz");
  const Bytes expected_bytes = read_file(data_dir() / "golden_v3_expected.sd");
  ASSERT_FALSE(stream.empty());
  ASSERT_FALSE(expected_bytes.empty());
  // Decode with a default-config codec: the per-tensor plans (codec ids,
  // bounds, paths) all live in the stream header.
  CompressionStats stats;
  const StateDict decoded =
      FedSz{FedSzConfig{}}.decompress({stream.data(), stream.size()}, &stats);
  expect_dicts_identical(
      decoded,
      StateDict::deserialize({expected_bytes.data(), expected_bytes.size()}));
  EXPECT_EQ(stats.lossy_tensors, 2u);
  EXPECT_EQ(stats.raw_tensors, 1u);
  EXPECT_EQ(stats.lossless_tensors, 1u);
  // The raw path ships untouched float bytes: the fixture's bias survives
  // bit for bit.
  const StateDict original = golden_dict();
  EXPECT_TRUE(
      decoded.get("features.0.bias").equals(original.get("features.0.bias")));
}

TEST(GoldenFixtures, V4StreamStillDecodesToTheExpectedStateDict) {
  const Bytes stream = read_file(data_dir() / "golden_v4.fsz");
  const Bytes expected_bytes = read_file(data_dir() / "golden_v4_expected.sd");
  ASSERT_FALSE(stream.empty());
  ASSERT_FALSE(expected_bytes.empty());
  // Decode with a default-config codec: the kSparse path tag and its params
  // live in the per-tensor plan table, like every other path.
  CompressionStats stats;
  const StateDict decoded =
      FedSz{FedSzConfig{}}.decompress({stream.data(), stream.size()}, &stats);
  expect_dicts_identical(
      decoded,
      StateDict::deserialize({expected_bytes.data(), expected_bytes.size()}));
  EXPECT_EQ(stats.lossy_tensors, 1u);
  EXPECT_EQ(stats.sparse_tensors, 1u);
  EXPECT_EQ(stats.raw_tensors, 1u);
  EXPECT_EQ(stats.lossless_tensors, 1u);
  // classifier.weight rode the sparse path at sparsity 0.8: 300 of its 1500
  // coefficients survive, and the counters in old streams must keep saying so.
  EXPECT_EQ(stats.sparse_total_elements, 1500u);
  EXPECT_EQ(stats.sparse_kept_elements, 300u);
}

TEST(GoldenFixtures, SparseMixedWriterStillEmitsTheV4FixtureBytes) {
  // The sparse-path byte-regression pin: the kSparse plan writer must keep
  // producing the exact recorded SZ+sparse container for the fixture update.
  const Bytes fixture = read_file(data_dir() / "golden_v4.fsz");
  ASSERT_FALSE(fixture.empty());
  const Bytes fresh = FedSz{golden_v4_config()}.compress(golden_dict());
  EXPECT_EQ(fresh, fixture);
}

TEST(GoldenFixtures, SingleByteCorruptionOfTheV4StreamNeverCrashes) {
  // Exhaustive single-byte clobber of the real mixed SZ+sparse fixture:
  // every mutation must either decode cleanly (payload bits a lossy stream
  // tolerates) or raise CorruptStream — never crash, never throw anything
  // untyped.
  const Bytes stream = read_file(data_dir() / "golden_v4.fsz");
  ASSERT_FALSE(stream.empty());
  const FedSz codec{FedSzConfig{}};
  for (std::size_t i = 0; i < stream.size(); ++i) {
    Bytes mutated = stream;
    mutated[i] = static_cast<std::uint8_t>(mutated[i] ^ 0xFF);
    try {
      (void)codec.decompress({mutated.data(), mutated.size()});
    } catch (const CorruptStream&) {
      // expected for most positions
    }
  }
}

TEST(GoldenFixtures, MixedPlanWriterStillEmitsTheV3FixtureBytes) {
  // The v3 byte-regression pin: the per-tensor-plan writer must keep
  // producing the exact recorded container for the fixture update.
  const Bytes fixture = read_file(data_dir() / "golden_v3.fsz");
  ASSERT_FALSE(fixture.empty());
  const Bytes fresh = FedSz{golden_v3_config()}.compress(golden_dict());
  EXPECT_EQ(fresh, fixture);
}

TEST(GoldenFixtures, DefaultPolicyWriterStillEmitsTheV2FixtureBytes) {
  // The byte-level regression pin for the redesign's acceptance criterion:
  // the default threshold policy must keep producing the exact pre-policy
  // v2 container for the fixture update.
  const Bytes fixture = read_file(data_dir() / "golden_v2.fsz");
  ASSERT_FALSE(fixture.empty());
  const Bytes fresh = FedSz{golden_config()}.compress(golden_dict());
  EXPECT_EQ(fresh, fixture);
}

TEST(GoldenFixtures, CorruptedFixtureHeadersStillThrow) {
  // Flipping bytes in real (fixture) streams must keep failing loudly —
  // guards the validation paths against regressions on genuine old data.
  for (const char* name : {"golden_v1.fsz", "golden_v2.fsz", "golden_v3.fsz",
                           "golden_v4.fsz"}) {
    Bytes stream = read_file(data_dir() / name);
    ASSERT_FALSE(stream.empty());
    Bytes bad_version = stream;
    bad_version[4] = 0x77;
    EXPECT_THROW(FedSz{FedSzConfig{}}.decompress(
                     {bad_version.data(), bad_version.size()}),
                 CorruptStream)
        << name;
    Bytes truncated(stream.begin(), stream.begin() + stream.size() / 2);
    EXPECT_THROW(
        FedSz{FedSzConfig{}}.decompress({truncated.data(), truncated.size()}),
        CorruptStream)
        << name;
  }
}

}  // namespace
}  // namespace fedsz::core
