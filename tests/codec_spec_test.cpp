// Tests for the codec spec grammar: parse/format normalization (format of a
// parse is a fixed point), a seeded fuzz round-trip over random CodecSpecs,
// malformed-spec errors that list the valid options, and the
// make_codec(spec_string) construction path built on top of it.
#include <gtest/gtest.h>

#include <iterator>

#include "core/codec_spec.hpp"
#include "core/fl/population.hpp"
#include "core/policy.hpp"
#include "util/rng.hpp"

namespace fedsz::core {
namespace {

std::string normalize(const std::string& spec) {
  return format_codec_spec(parse_codec_spec(spec));
}

// ---- parsing ----

TEST(CodecSpecParse, BareFamiliesKeepDefaults) {
  const CodecSpec fedsz = parse_codec_spec("fedsz");
  EXPECT_FALSE(fedsz.identity);
  EXPECT_EQ(fedsz.lossy_id, lossy::LossyId::kSz2);
  EXPECT_EQ(fedsz.lossless_id, lossless::LosslessId::kBloscLz);
  EXPECT_EQ(fedsz.bound.mode, lossy::BoundMode::kRelative);
  EXPECT_DOUBLE_EQ(fedsz.bound.value, 1e-2);
  EXPECT_EQ(fedsz.policy, "threshold");
  EXPECT_EQ(fedsz.threads, 1u);

  EXPECT_EQ(parse_codec_spec("fedsz-parallel").threads, 0u);
  EXPECT_TRUE(parse_codec_spec("identity").identity);
  EXPECT_TRUE(parse_codec_spec("uncompressed").identity);
}

TEST(CodecSpecParse, FullSpecFromTheGrammarComment) {
  const CodecSpec spec = parse_codec_spec(
      "fedsz:lossy=sz3,eb=rel:1e-3,lossless=zstd,policy=schedule,chunk=64k,"
      "threads=0");
  EXPECT_EQ(spec.lossy_id, lossy::LossyId::kSz3);
  EXPECT_EQ(spec.lossless_id, lossless::LosslessId::kZstd);
  EXPECT_EQ(spec.bound.mode, lossy::BoundMode::kRelative);
  EXPECT_DOUBLE_EQ(spec.bound.value, 1e-3);
  EXPECT_EQ(spec.policy, "schedule");
  EXPECT_EQ(spec.chunk_elements, 64u * 1024u);
  EXPECT_EQ(spec.threads, 0u);
}

TEST(CodecSpecParse, BoundModesAndBareValues) {
  EXPECT_EQ(parse_codec_spec("fedsz:eb=abs:0.5").bound.mode,
            lossy::BoundMode::kAbsolute);
  EXPECT_EQ(parse_codec_spec("fedsz:eb=rel:0.5").bound.mode,
            lossy::BoundMode::kRelative);
  // A bare float defaults to rel, the paper's convention.
  const CodecSpec bare = parse_codec_spec("fedsz:eb=1e-4");
  EXPECT_EQ(bare.bound.mode, lossy::BoundMode::kRelative);
  EXPECT_DOUBLE_EQ(bare.bound.value, 1e-4);
}

TEST(CodecSpecParse, ScheduleFactorArgument) {
  const CodecSpec spec = parse_codec_spec("fedsz:policy=schedule:0.85");
  EXPECT_EQ(spec.policy, "schedule");
  EXPECT_DOUBLE_EQ(spec.schedule_factor, 0.85);
}

TEST(CodecSpecParse, SparseFamilyAndItsKeys) {
  const CodecSpec spec = parse_codec_spec(
      "sparse:eb=rel:1e-2,sparsity=0.9,bits=8,policy=gradaware:0.7,"
      "lossless=zstd");
  EXPECT_TRUE(spec.sparse);
  EXPECT_FALSE(spec.identity);
  EXPECT_DOUBLE_EQ(spec.sparsity, 0.9);
  EXPECT_EQ(spec.sparse_bits, 8u);
  EXPECT_EQ(spec.policy, "gradaware");
  EXPECT_DOUBLE_EQ(spec.gradaware_beta, 0.7);
  EXPECT_EQ(spec.lossless_id, lossless::LosslessId::kZstd);

  // Bare family: adaptive threshold, adaptive width, threshold policy.
  const CodecSpec bare = parse_codec_spec("sparse");
  EXPECT_TRUE(bare.sparse);
  EXPECT_DOUBLE_EQ(bare.sparsity, 0.0);
  EXPECT_EQ(bare.sparse_bits, 0u);
  EXPECT_EQ(bare.policy, "threshold");

  // The adaptive spellings are explicit no-ops.
  const CodecSpec adaptive =
      parse_codec_spec("sparse:sparsity=adaptive,bits=adaptive");
  EXPECT_DOUBLE_EQ(adaptive.sparsity, 0.0);
  EXPECT_EQ(adaptive.sparse_bits, 0u);

  // Canonical form: sparse family renders without lossy=, keys round-trip.
  const std::string canonical = format_codec_spec(spec);
  EXPECT_EQ(canonical.rfind("sparse:eb=", 0), 0u);
  EXPECT_EQ(canonical.find("lossy="), std::string::npos);
  EXPECT_NE(canonical.find(",sparsity=0.9"), std::string::npos);
  EXPECT_NE(canonical.find(",bits=8"), std::string::npos);
  EXPECT_NE(canonical.find(",policy=gradaware:0.7"), std::string::npos);
  EXPECT_EQ(normalize(canonical), canonical);
}

TEST(CodecSpecParse, GradAwareBetaArgument) {
  // Default beta when the ':' argument is omitted; both families take it.
  EXPECT_DOUBLE_EQ(parse_codec_spec("fedsz:policy=gradaware").gradaware_beta,
                   0.5);
  EXPECT_DOUBLE_EQ(
      parse_codec_spec("fedsz:policy=gradaware:0.25").gradaware_beta, 0.25);
  EXPECT_EQ(parse_codec_spec("sparse:policy=gradaware").policy, "gradaware");
}

TEST(CodecSpecParse, DataKeyIsCommLevel) {
  EXPECT_DOUBLE_EQ(
      parse_codec_spec("fedsz:data=dirichlet:0.3").dirichlet_alpha, 0.3);
  EXPECT_DOUBLE_EQ(parse_codec_spec("fedsz:data=iid").dirichlet_alpha, 0.0);
  // identity accepts comm keys, data= included.
  const CodecSpec identity = parse_codec_spec("identity:data=dirichlet:0.5");
  EXPECT_TRUE(identity.identity);
  EXPECT_DOUBLE_EQ(identity.dirichlet_alpha, 0.5);
  const std::string canonical = format_codec_spec(identity);
  EXPECT_NE(canonical.find("data=dirichlet:0.5"), std::string::npos);
  EXPECT_EQ(normalize(canonical), canonical);
  // data=iid normalizes away (it is the default).
  EXPECT_EQ(normalize("fedsz:data=iid"), normalize("fedsz"));
  // A bare codec cannot honor a sharding directive.
  EXPECT_THROW(make_codec("fedsz:data=dirichlet:0.5"), InvalidArgument);
}

TEST(CodecSpecParse, DataSizeskewComposesWithDirichlet) {
  const CodecSpec skew = parse_codec_spec("fedsz:data=sizeskew:1.5");
  EXPECT_DOUBLE_EQ(skew.sizeskew_s, 1.5);
  EXPECT_DOUBLE_EQ(skew.dirichlet_alpha, 0.0);
  const CodecSpec both =
      parse_codec_spec("identity:data=dirichlet:0.3+sizeskew:1.2");
  EXPECT_DOUBLE_EQ(both.dirichlet_alpha, 0.3);
  EXPECT_DOUBLE_EQ(both.sizeskew_s, 1.2);
  // Canonical order is dirichlet first, whatever the input order was.
  const std::string canonical = format_codec_spec(
      parse_codec_spec("identity:data=sizeskew:1.2+dirichlet:0.3"));
  EXPECT_NE(canonical.find("data=dirichlet:0.3+sizeskew:1.2"),
            std::string::npos);
  EXPECT_EQ(normalize(canonical), canonical);
  // A bare codec cannot honor a sharding directive.
  EXPECT_THROW(make_codec("fedsz:data=sizeskew:1.5"), InvalidArgument);
}

TEST(CodecSpecParse, PopulationKeyIsCommLevel) {
  const CodecSpec spec = parse_codec_spec("fedsz:population=mixed:seed=7");
  EXPECT_EQ(spec.population, "mixed:seed=7");
  const std::string canonical = format_codec_spec(spec);
  EXPECT_NE(canonical.find("population=mixed:seed=7"), std::string::npos);
  EXPECT_EQ(normalize(canonical), canonical);
  // The stored value is itself canonical: explicit defaults fold away and
  // options come out in the grammar's fixed order.
  EXPECT_EQ(parse_codec_spec("identity:population=mixed:avail=diurnal")
                .population,
            "mixed");
  EXPECT_EQ(parse_codec_spec(
                "identity:population=custom:seed=2;mix=laptop*2+iot*1")
                .population,
            "custom:mix=laptop*2+iot*1;seed=2");
  // A bare codec cannot field a client population.
  EXPECT_THROW(make_codec("fedsz:population=mixed"), InvalidArgument);
}

TEST(CodecSpecErrors, MalformedPopulationKeysThrow) {
  for (const char* spec :
       {"fedsz:population=datacenter", "fedsz:population=custom",
        "fedsz:population=mixed:mix=laptop*1",
        "fedsz:population=mixed:avail=flat:0",
        "fedsz:population=mixed:drop=1", "fedsz:population=mixed:wat=1"}) {
    EXPECT_THROW(parse_codec_spec(spec), InvalidArgument) << spec;
  }
}

TEST(CodecSpecErrors, MalformedSparseAndDataKeysThrow) {
  for (const char* spec :
       {// sparse keys demand the sparse family
        "fedsz:sparsity=0.9", "fedsz:bits=8", "identity:sparsity=0.9",
        // the sparse family replaces the lossy codec
        "sparse:lossy=sz3",
        // sparsity: fraction strictly inside (0, 1) or adaptive
        "sparse:sparsity=0", "sparse:sparsity=1", "sparse:sparsity=1.5",
        "sparse:sparsity=-0.5", "sparse:sparsity=", "sparse:sparsity=most",
        // bits: 1..31 or adaptive, no size suffixes
        "sparse:bits=0", "sparse:bits=32", "sparse:bits=8k", "sparse:bits=",
        // gradaware beta strictly inside (0, 1)
        "fedsz:policy=gradaware:0", "fedsz:policy=gradaware:1",
        "fedsz:policy=gradaware:-0.5", "sparse:policy=gradaware:nan",
        // data: iid, dirichlet:<alpha> with alpha > 0, sizeskew:<s> with
        // s > 0 -- '+'-composable, no duplicates, iid composes with nothing
        "fedsz:data=", "fedsz:data=dirichlet", "fedsz:data=dirichlet:",
        "fedsz:data=dirichlet:0", "fedsz:data=dirichlet:-1",
        "fedsz:data=skewed", "fedsz:data=sizeskew", "fedsz:data=sizeskew:",
        "fedsz:data=sizeskew:0", "fedsz:data=sizeskew:-1",
        "fedsz:data=iid+sizeskew:1", "fedsz:data=sizeskew:1+sizeskew:2",
        "fedsz:data=dirichlet:0.5+dirichlet:0.5"}) {
    EXPECT_THROW(parse_codec_spec(spec), InvalidArgument) << spec;
  }
}

TEST(CodecSpecErrors, ConfigRejectsSparseKnobsOnNonSparseSpecs) {
  // A hand-built spec (not via the parser) with sparse knobs but a fedsz
  // family cannot honor them; codec_spec_config must refuse rather than
  // silently drop the sparsification.
  CodecSpec spec;
  spec.sparsity = 0.9;
  EXPECT_THROW(codec_spec_config(spec), InvalidArgument);
  CodecSpec bits_only;
  bits_only.sparse_bits = 8;
  EXPECT_THROW(codec_spec_config(bits_only), InvalidArgument);
}

TEST(MakeCodecFromString, SparseFamilyWrapsThePolicyInTheOverlay) {
  const auto codec = make_codec("sparse:eb=rel:1e-2,sparsity=0.9");
  const auto* fedsz = dynamic_cast<const FedSzCodec*>(codec.get());
  ASSERT_NE(fedsz, nullptr);
  EXPECT_EQ(fedsz->fedsz().policy().name(), "sparse+threshold");

  const auto gradaware =
      make_codec("sparse:eb=rel:1e-2,policy=gradaware:0.5");
  const auto* gradaware_fedsz =
      dynamic_cast<const FedSzCodec*>(gradaware.get());
  ASSERT_NE(gradaware_fedsz, nullptr);
  EXPECT_EQ(gradaware_fedsz->fedsz().policy().name(), "sparse+gradaware");
}

TEST(CodecSpecParse, CommKeysDownlinkDownmodeEf) {
  const CodecSpec spec = parse_codec_spec(
      "fedsz:eb=rel:1e-2,downlink=fedsz:eb=rel:1e-3;lossless=zstd,"
      "downmode=delta,ef=on");
  EXPECT_DOUBLE_EQ(spec.bound.value, 1e-2);
  EXPECT_TRUE(spec.downlink_delta);
  EXPECT_TRUE(spec.error_feedback);
  // The stored downlink spec is canonical comma form, directly parseable.
  const CodecSpec inner = parse_codec_spec(spec.downlink);
  EXPECT_DOUBLE_EQ(inner.bound.value, 1e-3);
  EXPECT_EQ(inner.lossless_id, lossless::LosslessId::kZstd);

  EXPECT_EQ(parse_codec_spec("fedsz:downlink=identity").downlink, "identity");
  EXPECT_FALSE(parse_codec_spec("fedsz:ef=off").error_feedback);
  EXPECT_FALSE(parse_codec_spec("fedsz:downmode=full").downlink_delta);
  EXPECT_TRUE(parse_codec_spec("fedsz").downlink.empty());
}

TEST(CodecSpecParse, IdentityTakesCommKeysOnly) {
  // Raw uplink + compressed broadcast is a legitimate comm config, so the
  // identity family accepts (exactly) the comm-level keys.
  const CodecSpec spec = parse_codec_spec(
      "identity:downlink=fedsz:eb=rel:1e-3,ef=on");
  EXPECT_TRUE(spec.identity);
  EXPECT_TRUE(spec.error_feedback);
  EXPECT_DOUBLE_EQ(parse_codec_spec(spec.downlink).bound.value, 1e-3);
  // The canonical form round-trips the comm keys.
  const std::string canonical = format_codec_spec(spec);
  EXPECT_EQ(canonical.rfind("identity:", 0), 0u);
  EXPECT_EQ(format_codec_spec(parse_codec_spec(canonical)), canonical);
  // Codec-level keys stay rejected.
  EXPECT_THROW(parse_codec_spec("identity:eb=rel:1e-3"), InvalidArgument);
  EXPECT_THROW(parse_codec_spec("uncompressed:policy=schedule"),
               InvalidArgument);
}

TEST(CodecSpecParse, TopologyAndBackhaulCommKeys) {
  const CodecSpec spec = parse_codec_spec(
      "fedsz:eb=rel:1e-2,topology=hier:32,"
      "backhaul=fedsz:eb=rel:1e-3;lossless=zstd");
  ASSERT_EQ(spec.hier_tiers.size(), 1u);
  EXPECT_EQ(spec.hier_tiers[0], 32u);
  // The stored backhaul spec is canonical comma form, directly parseable.
  const CodecSpec inner = parse_codec_spec(spec.backhaul);
  EXPECT_DOUBLE_EQ(inner.bound.value, 1e-3);
  EXPECT_EQ(inner.lossless_id, lossless::LosslessId::kZstd);
  // flat is the default and an explicit no-op; suffixes scale the fan-ins.
  EXPECT_TRUE(parse_codec_spec("fedsz").hier_tiers.empty());
  EXPECT_TRUE(parse_codec_spec("fedsz:topology=flat").hier_tiers.empty());
  EXPECT_EQ(parse_codec_spec("fedsz:topology=hier:1k").hier_tiers,
            std::vector<std::size_t>{1024});
  // The identity family accepts the topology keys too (raw uplink through
  // a sharded tree is a legitimate comm config).
  const CodecSpec identity = parse_codec_spec(
      "identity:topology=hier:8,backhaul=identity");
  EXPECT_TRUE(identity.identity);
  EXPECT_EQ(identity.hier_tiers, std::vector<std::size_t>{8});
  EXPECT_EQ(identity.backhaul, "identity");
  const std::string canonical = format_codec_spec(identity);
  EXPECT_EQ(format_codec_spec(parse_codec_spec(canonical)), canonical);
}

TEST(CodecSpecParse, MultiTierTopologyAndPerTierOverrides) {
  const CodecSpec spec = parse_codec_spec(
      "fedsz:topology=hier:32x16x4,backhaul=identity,"
      "backhaul2=fedsz:eb=rel:1e-3;lossless=zstd,"
      "edgemode=buffered:3,edgeef=on,shard=shuffled");
  EXPECT_EQ(spec.hier_tiers, (std::vector<std::size_t>{32, 16, 4}));
  EXPECT_EQ(spec.backhaul, "identity");
  // backhaul2= lands at entry 1 (1-based tiers) with no trailing empties.
  ASSERT_EQ(spec.tier_backhauls.size(), 2u);
  EXPECT_TRUE(spec.tier_backhauls[0].empty());
  EXPECT_DOUBLE_EQ(parse_codec_spec(spec.tier_backhauls[1]).bound.value,
                   1e-3);
  EXPECT_TRUE(spec.edge_buffered);
  EXPECT_EQ(spec.edge_buffer, 3u);
  EXPECT_TRUE(spec.edge_error_feedback);
  EXPECT_TRUE(spec.shard_shuffled);
  // Every new key round-trips through the canonical form.
  const std::string canonical = format_codec_spec(spec);
  EXPECT_NE(canonical.find(",topology=hier:32x16x4"), std::string::npos);
  EXPECT_NE(canonical.find(",backhaul2=fedsz:"), std::string::npos);
  EXPECT_NE(canonical.find(",edgemode=buffered:3"), std::string::npos);
  EXPECT_NE(canonical.find(",edgeef=on"), std::string::npos);
  EXPECT_NE(canonical.find(",shard=shuffled"), std::string::npos);
  EXPECT_EQ(format_codec_spec(parse_codec_spec(canonical)), canonical);
  // The off-spellings are explicit no-ops.
  const CodecSpec off = parse_codec_spec(
      "fedsz:edgemode=sync,edgeef=off,shard=contiguous");
  EXPECT_FALSE(off.edge_buffered);
  EXPECT_EQ(off.edge_buffer, 0u);
  EXPECT_FALSE(off.edge_error_feedback);
  EXPECT_FALSE(off.shard_shuffled);
}

TEST(CodecSpecErrors, MalformedCommKeysThrow) {
  for (const char* spec :
       {"fedsz:ef=maybe", "fedsz:downmode=sideways", "fedsz:downlink=",
        "fedsz:downlink=szip",
        // comm keys cannot nest inside a downlink spec
        "fedsz:downlink=fedsz:ef=on",
        "fedsz:downlink=fedsz:downlink=identity",
        // degenerate topologies: missing/zero/non-numeric fanout, unknown
        // shapes, malformed or comm-carrying backhaul specs
        "fedsz:topology=hier", "fedsz:topology=hier:", "fedsz:topology=hier:0",
        "fedsz:topology=hier:two", "fedsz:topology=ring", "fedsz:topology=",
        // multi-tier vectors: dangling/zero/non-numeric fan-ins
        "fedsz:topology=hier:4x", "fedsz:topology=hier:4x0",
        "fedsz:topology=hier:x4", "fedsz:topology=hier:4xtwo",
        "fedsz:backhaul=", "fedsz:backhaul=szip",
        "fedsz:backhaul=fedsz:ef=on",
        "fedsz:backhaul=fedsz:topology=hier:4",
        // per-tier overrides: 1-based, numeric, comm-free
        "fedsz:backhaul0=identity", "fedsz:backhaul1=",
        "fedsz:backhaul2=fedsz:ef=on",
        // edge mode / edge EF / sharding
        "fedsz:edgemode=", "fedsz:edgemode=buffered",
        "fedsz:edgemode=buffered:", "fedsz:edgemode=buffered:0",
        "fedsz:edgemode=lazy", "fedsz:edgeef=maybe",
        "fedsz:shard=random"}) {
    EXPECT_THROW(parse_codec_spec(spec), InvalidArgument) << spec;
  }
}

TEST(CodecSpecFormat, CommKeysRoundTripThroughTheCanonicalForm) {
  const std::string canonical = normalize(
      "fedsz:downlink=fedsz:eb=rel:1e-3;lossy=sz3,downmode=delta,ef=on");
  EXPECT_NE(canonical.find(",downlink=fedsz:lossy=sz3;eb=rel:0.001;"),
            std::string::npos);
  EXPECT_NE(canonical.find(",downmode=delta"), std::string::npos);
  EXPECT_NE(canonical.find(",ef=on"), std::string::npos);
  // The canonical form is a fixed point.
  EXPECT_EQ(normalize(canonical), canonical);
  // Off/full/empty comm keys normalize away entirely.
  EXPECT_EQ(normalize("fedsz:ef=off,downmode=full"), normalize("fedsz"));
  EXPECT_EQ(normalize("fedsz:topology=flat"), normalize("fedsz"));
  // Topology keys render after the downlink trio, backhaul ';'-separated.
  const std::string hier = normalize(
      "fedsz:topology=hier:16,backhaul=fedsz:eb=rel:1e-3;lossless=zstd");
  EXPECT_NE(hier.find(",topology=hier:16"), std::string::npos);
  EXPECT_NE(hier.find(",backhaul=fedsz:lossy=sz2;eb=rel:0.001;"),
            std::string::npos);
  EXPECT_EQ(normalize(hier), hier);
}

TEST(CodecSpecParse, ChunkSuffixes) {
  EXPECT_EQ(parse_codec_spec("fedsz:chunk=512").chunk_elements, 512u);
  EXPECT_EQ(parse_codec_spec("fedsz:chunk=16k").chunk_elements, 16u * 1024u);
  EXPECT_EQ(parse_codec_spec("fedsz:chunk=2m").chunk_elements,
            2u * 1024u * 1024u);
}

// ---- malformed specs: InvalidArgument naming the valid options ----

TEST(CodecSpecErrors, UnknownFamilyListsFamilies) {
  try {
    parse_codec_spec("szip");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("fedsz"), std::string::npos);
    EXPECT_NE(what.find("identity"), std::string::npos);
  }
}

TEST(CodecSpecErrors, UnknownLossyCodecListsCodecs) {
  try {
    parse_codec_spec("fedsz:lossy=mgard");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("sz2"), std::string::npos);
    EXPECT_NE(what.find("zfp"), std::string::npos);
  }
}

TEST(CodecSpecErrors, UnknownPolicyListsPolicies) {
  try {
    parse_codec_spec("fedsz:policy=oracle");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    const std::string what = error.what();
    for (const std::string& name : compression_policy_names())
      EXPECT_NE(what.find(name), std::string::npos) << name;
  }
}

TEST(CodecSpecErrors, MalformedSpecsThrow) {
  for (const char* spec :
       {"fedsz:", "fedsz:eb=", "fedsz:eb=abs", "fedsz:eb=fast:1e-2",
        "fedsz:chunk=0", "fedsz:chunk=12q", "fedsz:threads=-1",
        "fedsz:=1e-2", "fedsz:eb", "fedsz:unknown=1", "identity:eb=1e-2",
        "fedsz:policy=schedule:0", "fedsz:policy=magnitude:0.5",
        "fedsz:eb=rel:nan", "fedsz:eb=rel:0", "",
        // Out-of-range counts: strtoull saturation and k/m multiplier wrap
        // must be parse errors, not silent truncation.
        "fedsz:threads=18446744073709551616",
        "fedsz:chunk=18014398509481985k"}) {
    EXPECT_THROW(parse_codec_spec(spec), InvalidArgument) << spec;
  }
}

TEST(CodecSpecErrors, AbsoluteBoundRejectedForRelativePolicies) {
  EXPECT_THROW(
      codec_spec_config(parse_codec_spec("fedsz:eb=abs:0.1,policy=schedule")),
      InvalidArgument);
  EXPECT_THROW(
      codec_spec_config(
          parse_codec_spec("fedsz:eb=abs:0.1,policy=magnitude")),
      InvalidArgument);
}

// ---- normalization and the fuzz round trip ----

TEST(CodecSpecFormat, CanonicalFormIsStable) {
  EXPECT_EQ(normalize("identity"), "identity");
  EXPECT_EQ(normalize("uncompressed"), "identity");
  EXPECT_EQ(normalize("fedsz"),
            "fedsz:lossy=sz2,eb=rel:0.01,lossless=blosc-lz,policy=threshold,"
            "chunk=65536,threads=1,threshold=1000");
  // fedsz-parallel is sugar for threads=0.
  EXPECT_EQ(normalize("fedsz-parallel"),
            "fedsz:lossy=sz2,eb=rel:0.01,lossless=blosc-lz,policy=threshold,"
            "chunk=65536,threads=0,threshold=1000");
  // Suffixes and mode shorthands normalize away.
  EXPECT_EQ(normalize("fedsz:chunk=64k,eb=1e-3"),
            "fedsz:lossy=sz2,eb=rel:0.001,lossless=blosc-lz,policy=threshold,"
            "chunk=65536,threads=1,threshold=1000");
}

TEST(CodecSpecFormat, FormatParseFuzzRoundTrip) {
  // format(parse(format(spec))) == format(spec) over random specs: the
  // canonical form is a fixed point of parse∘format.
  Rng rng(20260731);
  const auto lossy_codecs = lossy::all_lossy_codecs();
  const auto lossless_codecs = lossless::all_lossless_codecs();
  const std::vector<std::string> policies = compression_policy_names();
  for (int iter = 0; iter < 200; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    CodecSpec spec;
    spec.identity = rng.uniform() < 0.1;
    spec.sparse = !spec.identity && rng.uniform() < 0.25;
    if (spec.sparse) {
      // The sparse family renders no lossy=; its knobs ride instead.
      if (rng.uniform() < 0.5) spec.sparsity = rng.uniform(0.05, 0.95);
      if (rng.uniform() < 0.5)
        spec.sparse_bits = 1 + static_cast<unsigned>(rng.uniform_index(31));
    } else {
      spec.lossy_id =
          lossy_codecs[rng.uniform_index(lossy_codecs.size())]->id();
    }
    spec.lossless_id =
        lossless_codecs[rng.uniform_index(lossless_codecs.size())]->id();
    const double exponent = rng.uniform(-6.0, -1.0);
    spec.bound = lossy::ErrorBound::relative(std::pow(10.0, exponent));
    spec.policy = policies[rng.uniform_index(policies.size())];
    if (spec.policy == "threshold" && rng.uniform() < 0.3) {
      // Only the threshold policy accepts absolute bounds.
      spec.bound.mode = lossy::BoundMode::kAbsolute;
    }
    spec.schedule_factor = rng.uniform(0.1, 1.5);
    spec.gradaware_beta = rng.uniform(0.05, 0.95);
    if (rng.uniform() < 0.2) spec.dirichlet_alpha = rng.uniform(0.1, 5.0);
    if (rng.uniform() < 0.2) spec.sizeskew_s = rng.uniform(0.1, 3.0);
    if (rng.uniform() < 0.2) {
      const char* populations[] = {"mixed", "mobile:avail=always",
                                   "iot_fleet:avail=flat:0.5",
                                   "custom:mix=laptop*2+iot*1;drop=0.1"};
      spec.population = format_population_spec(parse_population_spec(
          populations[rng.uniform_index(std::size(populations))]));
    }
    spec.chunk_elements = 1 + rng.uniform_index(1 << 20);
    spec.threads = rng.uniform_index(9);
    spec.lossy_threshold = rng.uniform_index(5000);
    if (rng.uniform() < 0.3)
      spec.downlink = format_codec_spec(parse_codec_spec(
          rng.uniform() < 0.5 ? "identity" : "fedsz:lossy=sz3,eb=rel:1e-3"));
    spec.downlink_delta = rng.uniform() < 0.25;
    spec.error_feedback = rng.uniform() < 0.25;
    if (rng.uniform() < 0.3) {
      const std::size_t depth = 1 + rng.uniform_index(3);
      for (std::size_t t = 0; t < depth; ++t)
        spec.hier_tiers.push_back(1 + rng.uniform_index(256));
      if (rng.uniform() < 0.5)
        spec.backhaul = format_codec_spec(parse_codec_spec(
            rng.uniform() < 0.5 ? "identity" : "fedsz:eb=rel:1e-3"));
      if (rng.uniform() < 0.4) {
        // Per-tier overrides: pick one tier, no trailing empties (the
        // canonical-form invariant the generator must respect).
        const std::size_t tier = 1 + rng.uniform_index(depth);
        spec.tier_backhauls.resize(tier);
        spec.tier_backhauls[tier - 1] =
            format_codec_spec(parse_codec_spec("fedsz:eb=rel:1e-4"));
      }
      if (rng.uniform() < 0.3) {
        spec.edge_buffered = true;
        spec.edge_buffer = 1 + rng.uniform_index(8);
      }
      spec.edge_error_feedback = rng.uniform() < 0.25;
      spec.shard_shuffled = rng.uniform() < 0.25;
    }

    const std::string canonical = format_codec_spec(spec);
    const CodecSpec reparsed = parse_codec_spec(canonical);
    EXPECT_EQ(format_codec_spec(reparsed), canonical);
    // Comm-level keys round-trip for every family, identity included.
    EXPECT_EQ(reparsed.downlink, spec.downlink);
    EXPECT_EQ(reparsed.downlink_delta, spec.downlink_delta);
    EXPECT_EQ(reparsed.error_feedback, spec.error_feedback);
    EXPECT_EQ(reparsed.hier_tiers, spec.hier_tiers);
    EXPECT_EQ(reparsed.backhaul, spec.backhaul);
    EXPECT_EQ(reparsed.tier_backhauls, spec.tier_backhauls);
    EXPECT_EQ(reparsed.edge_buffered, spec.edge_buffered);
    EXPECT_EQ(reparsed.edge_buffer, spec.edge_buffer);
    EXPECT_EQ(reparsed.edge_error_feedback, spec.edge_error_feedback);
    EXPECT_EQ(reparsed.shard_shuffled, spec.shard_shuffled);
    EXPECT_DOUBLE_EQ(reparsed.dirichlet_alpha, spec.dirichlet_alpha);
    EXPECT_DOUBLE_EQ(reparsed.sizeskew_s, spec.sizeskew_s);
    EXPECT_EQ(reparsed.population, spec.population);
    if (!spec.identity) {
      EXPECT_EQ(reparsed.sparse, spec.sparse);
      if (spec.sparse) {
        EXPECT_DOUBLE_EQ(reparsed.sparsity, spec.sparsity);
        EXPECT_EQ(reparsed.sparse_bits, spec.sparse_bits);
      } else {
        EXPECT_EQ(reparsed.lossy_id, spec.lossy_id);
      }
      EXPECT_EQ(reparsed.lossless_id, spec.lossless_id);
      EXPECT_EQ(reparsed.bound.mode, spec.bound.mode);
      EXPECT_DOUBLE_EQ(reparsed.bound.value, spec.bound.value);
      EXPECT_EQ(reparsed.policy, spec.policy);
      EXPECT_EQ(reparsed.chunk_elements, spec.chunk_elements);
      EXPECT_EQ(reparsed.threads, spec.threads);
      EXPECT_EQ(reparsed.lossy_threshold, spec.lossy_threshold);
      if (spec.policy == "schedule") {
        EXPECT_DOUBLE_EQ(reparsed.schedule_factor, spec.schedule_factor);
      }
      if (spec.policy == "gradaware") {
        EXPECT_DOUBLE_EQ(reparsed.gradaware_beta, spec.gradaware_beta);
      }
    }
  }
}

// ---- construction ----

TEST(MakeCodecFromSpecString, BuildsTheCodecASpecDescribes) {
  // The preferred string entry point: parse + make_codec in one step.
  EXPECT_EQ(make_codec("identity")->name(), "uncompressed");
  EXPECT_EQ(make_codec("fedsz:lossy=sz3,eb=rel:1e-3")->name(), "fedsz-sz3");
}

TEST(MakeCodecFromSpecString, CommKeysAreRejected) {
  // A bare codec cannot honor comm-level keys; dropping them silently would
  // hide a misconfigured run.
  for (const char* spec :
       {"fedsz:ef=on", "fedsz:downlink=identity", "fedsz:topology=hier:8",
        "identity:topology=hier:4x2,backhaul=identity",
        "fedsz:edgemode=buffered:2", "fedsz:edgeef=on",
        "fedsz:shard=shuffled"}) {
    EXPECT_THROW(make_codec(std::string(spec)), InvalidArgument) << spec;
  }
}

TEST(MakeCodecFromString, LegacyNamesStillResolve) {
  EXPECT_EQ(make_codec("identity")->name(), "uncompressed");
  EXPECT_EQ(make_codec("uncompressed")->name(), "uncompressed");
  EXPECT_EQ(make_codec("fedsz")->name(), "fedsz-sz2");
  EXPECT_EQ(make_codec("fedsz-parallel")->name(), "fedsz-sz2");
}

TEST(MakeCodecFromString, SpecStringsConfigureTheCodec) {
  const auto codec = make_codec("fedsz:lossy=sz3,eb=rel:1e-3");
  EXPECT_EQ(codec->name(), "fedsz-sz3");
  const auto* fedsz = dynamic_cast<const FedSzCodec*>(codec.get());
  ASSERT_NE(fedsz, nullptr);
  EXPECT_DOUBLE_EQ(fedsz->fedsz().config().bound.value, 1e-3);
  EXPECT_EQ(fedsz->fedsz().policy().name(), "threshold");

  const auto scheduled = make_codec("fedsz:policy=schedule:0.5");
  const auto* scheduled_fedsz =
      dynamic_cast<const FedSzCodec*>(scheduled.get());
  ASSERT_NE(scheduled_fedsz, nullptr);
  EXPECT_EQ(scheduled_fedsz->fedsz().policy().name(), "schedule");
}

TEST(MakeCodecFromString, UnknownNameThrowsWithOptions) {
  EXPECT_THROW(make_codec("gzip-only"), InvalidArgument);
  EXPECT_THROW(make_codec(""), InvalidArgument);
}

TEST(MakeCodecFromString, CommKeysItCannotHonorAreRejected) {
  // A bare codec entry point would silently drop downlink/downmode/ef;
  // refuse instead so harnesses either honor them via apply_comm_spec or
  // fail loudly.
  for (const char* spec :
       {"fedsz:ef=on", "fedsz:downlink=identity",
        "identity:downlink=fedsz:eb=rel:1e-3",
        "fedsz:eb=rel:1e-2,downmode=delta", "fedsz:topology=hier:8",
        "identity:backhaul=fedsz:eb=rel:1e-3,topology=hier:4"}) {
    EXPECT_THROW(make_codec(std::string(spec)), InvalidArgument) << spec;
  }
}

}  // namespace
}  // namespace fedsz::core
