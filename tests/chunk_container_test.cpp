// Tests for the chunked FedSZ container (bitstream v2): chunk-count
// accounting, chunk boundaries landing exactly on tensor edges, byte-for-byte
// determinism across parallelism settings and concurrent callers, parallel
// decode, legacy-v1 backward decoding, and container-specific corruption
// handling.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <thread>

#include "core/fedsz.hpp"
#include "util/bytebuffer.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace fedsz::core {
namespace {

Tensor random_tensor(Shape shape, Rng& rng, float scale = 1.0f) {
  std::vector<float> values(shape_numel(shape));
  for (float& v : values)
    v = scale * static_cast<float>(rng.normal());
  return Tensor::from_data(std::move(shape), std::move(values));
}

/// A dict with one big lossy tensor, one small lossless tensor and one bias.
StateDict mixed_dict(std::size_t lossy_numel, Rng& rng) {
  StateDict dict;
  dict.set("features.0.weight",
           random_tensor({static_cast<std::int64_t>(lossy_numel)}, rng));
  dict.set("features.0.bias", random_tensor({16}, rng));
  dict.set("bn.running_mean", random_tensor({16}, rng));
  return dict;
}

double max_error_vs(const StateDict& a, const StateDict& b,
                    const std::string& name) {
  return stats::max_abs_error(a.get(name).span(), b.get(name).span());
}

// ---- chunk accounting ----

TEST(ChunkContainer, EmptyDictRoundTripsAtAnyParallelism) {
  for (const std::size_t parallelism : {std::size_t{1}, std::size_t{4}}) {
    FedSzConfig config;
    config.parallelism = parallelism;
    const FedSz fedsz{config};
    CompressionStats stats;
    const Bytes blob = fedsz.compress(StateDict{}, &stats);
    EXPECT_EQ(stats.lossy_chunks, 0u);
    EXPECT_TRUE(fedsz.decompress({blob.data(), blob.size()}).empty());
  }
}

TEST(ChunkContainer, SingleChunkWhenTensorFitsChunkSize) {
  Rng rng(1);
  FedSzConfig config;
  config.chunk_elements = 4096;
  const FedSz fedsz{config};
  CompressionStats stats;
  const StateDict dict = mixed_dict(2000, rng);
  const Bytes blob = fedsz.compress(dict, &stats);
  EXPECT_EQ(stats.lossy_chunks, 1u);
  EXPECT_EQ(fedsz.decompress({blob.data(), blob.size()}).size(), dict.size());
}

TEST(ChunkContainer, SplitsLargeTensorsIntoCeilNumelOverChunk) {
  Rng rng(2);
  FedSzConfig config;
  config.chunk_elements = 512;
  const FedSz fedsz{config};
  CompressionStats stats;
  fedsz.compress(mixed_dict(1281, rng), &stats);  // 512 + 512 + 257
  EXPECT_EQ(stats.lossy_chunks, 3u);
  EXPECT_EQ(fedsz.chunk_count(1281), 3u);
  EXPECT_EQ(fedsz.chunk_count(512), 1u);
  EXPECT_EQ(fedsz.chunk_count(0), 0u);
}

TEST(ChunkContainer, ChunkBoundaryExactlyAtTensorEdge) {
  Rng rng(3);
  FedSzConfig config;
  config.chunk_elements = 640;
  config.lossy_threshold = 100;  // both sizes below must route lossy
  config.bound = lossy::ErrorBound::relative(1e-3);
  const FedSz fedsz{config};
  // numel == chunk_elements and numel == 2 * chunk_elements: the final chunk
  // is full-width in both cases, no partial tail.
  for (const std::size_t numel : {std::size_t{640}, std::size_t{1280}}) {
    CompressionStats stats;
    const StateDict dict = mixed_dict(numel, rng);
    const Bytes blob = fedsz.compress(dict, &stats);
    EXPECT_EQ(stats.lossy_chunks, numel / 640);
    const StateDict back = fedsz.decompress({blob.data(), blob.size()});
    const Tensor& original = dict.get("features.0.weight");
    const double eps = config.bound.absolute_for(original.span());
    EXPECT_LE(max_error_vs(dict, back, "features.0.weight"),
              eps * (1 + 1e-5));
    EXPECT_TRUE(back.get("features.0.bias")
                    .equals(dict.get("features.0.bias")));
  }
}

TEST(ChunkContainer, ChunkingDoesNotLoosenTheRelativeBound) {
  // The REL bound must be resolved over the whole tensor, not per chunk:
  // build a tensor whose value range differs wildly between chunks, and
  // check every element against the whole-tensor epsilon.
  FedSzConfig config;
  config.chunk_elements = 256;
  config.bound = lossy::ErrorBound::relative(1e-3);
  const FedSz fedsz{config};
  std::vector<float> values(1024);
  Rng rng(4);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const float scale = i < 256 ? 100.0f : 0.01f;  // first chunk dominates
    values[i] = scale * static_cast<float>(rng.normal());
  }
  StateDict dict;
  dict.set("w.weight", Tensor::from_data({1024}, values));
  const Bytes blob = fedsz.compress(dict);
  const StateDict back = fedsz.decompress({blob.data(), blob.size()});
  const double eps =
      config.bound.absolute_for(dict.get("w.weight").span());
  EXPECT_LE(max_error_vs(dict, back, "w.weight"), eps * (1 + 1e-5));
}

TEST(ChunkContainer, ConstantTensorUnderRelativeBoundIsExact) {
  FedSzConfig config;
  config.chunk_elements = 100;
  const FedSz fedsz{config};
  StateDict dict;
  dict.set("c.weight", Tensor::full({1500}, 3.5f));
  const Bytes blob = fedsz.compress(dict);
  const StateDict back = fedsz.decompress({blob.data(), blob.size()});
  EXPECT_TRUE(back.get("c.weight").equals(dict.get("c.weight")));
}

// ---- determinism across parallelism ----

TEST(ChunkContainer, ParallelismOneEqualsParallelOutputByteForByte) {
  Rng rng(5);
  const StateDict dict = mixed_dict(10000, rng);
  Bytes serial;
  for (const std::size_t parallelism :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{0}}) {
    FedSzConfig config;
    config.chunk_elements = 777;  // deliberately unaligned chunk edges
    config.parallelism = parallelism;
    const Bytes blob = FedSz{config}.compress(dict);
    if (parallelism == 1) {
      serial = blob;
    } else {
      EXPECT_EQ(blob, serial) << "parallelism=" << parallelism;
    }
  }
}

TEST(ChunkContainer, ConcurrentCompressOnOneCodecMatchesSerialEncodes) {
  // Each thread encodes through its own workspace, so threads sharing one
  // FedSz must each get their own dict's serial bytes on every call. The
  // dicts differ in tensor count and size, so a shared workspace would mix
  // their chunk tables. Every other call also writes the reconstruction
  // into the thread's own destination, kept across calls, which must hold
  // the decode of those bytes in the dict's layout.
  constexpr std::size_t kThreads = 4;
  constexpr int kCalls = 25;
  std::vector<StateDict> dicts, decoded;
  std::vector<Bytes> serial;
  FedSzConfig config;
  config.chunk_elements = 1000;
  for (std::size_t t = 0; t < kThreads; ++t) {
    Rng rng(40 + t);
    StateDict dict = mixed_dict(2000 + 1700 * t, rng);
    for (std::size_t k = 0; k < t; ++k)
      dict.set("layer" + std::to_string(k) + ".weight",
               random_tensor({static_cast<std::int64_t>(1500 * (k + 1))}, rng));
    const FedSz fedsz{config};
    serial.push_back(fedsz.compress(dict));
    decoded.push_back(fedsz.decompress({serial[t].data(), serial[t].size()})
                          .reordered_like(dict));
    dicts.push_back(std::move(dict));
  }
  for (const std::size_t parallelism : {std::size_t{1}, std::size_t{2}}) {
    config.parallelism = parallelism;
    const FedSz fedsz{config};
    std::vector<int> mismatches(kThreads, 0), wrong_recon(kThreads, 0);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        StateDict recon;
        EncodeContext ctx;
        for (int call = 0; call < kCalls; ++call) {
          ctx.reconstruction = call % 2 == 0 ? &recon : nullptr;
          mismatches[t] += fedsz.compress(dicts[t], nullptr, ctx) != serial[t];
          wrong_recon[t] += call % 2 == 0 && !recon.equals(decoded[t]);
        }
      });
    for (std::thread& thread : threads) thread.join();
    for (std::size_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(mismatches[t], 0)
          << "thread " << t << " parallelism=" << parallelism;
      EXPECT_EQ(wrong_recon[t], 0)
          << "thread " << t << " parallelism=" << parallelism;
    }
  }
}

TEST(ChunkContainer, ReconstructionIntoTheInputIsRefused) {
  Rng rng(8);
  StateDict dict = mixed_dict(3000, rng);
  const StateDict copy = dict;
  EncodeContext ctx;
  ctx.reconstruction = &dict;
  EXPECT_THROW(FedSz{FedSzConfig{}}.compress(dict, nullptr, ctx),
               InvalidArgument);
  EXPECT_TRUE(dict.equals(copy));
}

TEST(ChunkContainer, ParallelDecompressEqualsSerialDecompress) {
  Rng rng(6);
  const StateDict dict = mixed_dict(10000, rng);
  FedSzConfig serial_config;
  serial_config.chunk_elements = 1000;
  const Bytes blob = FedSz{serial_config}.compress(dict);

  FedSzConfig parallel_config = serial_config;
  parallel_config.parallelism = 4;
  const StateDict serial_out =
      FedSz{serial_config}.decompress({blob.data(), blob.size()});
  const StateDict parallel_out =
      FedSz{parallel_config}.decompress({blob.data(), blob.size()});
  EXPECT_TRUE(parallel_out.equals(serial_out));
}

// ---- legacy v1 container ----

/// Reproduce the original (pre-chunking) v1 writer so the decoder's
/// backward-compatibility path is exercised against the real layout.
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
                       config.lossy_threshold)) {
      lossy_entries.push_back(&entry);
    } else {
      lossless_partition.set(entry.first, entry.second);
    }
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

TEST(ChunkContainer, LegacyV1StreamStillDecodes) {
  // v1 decodes on the pool, one task per tensor: a blob of more elements
  // than a default chunk must give the same floats at any parallelism.
  Rng rng(7);
  StateDict dict = mixed_dict(70000, rng);
  dict.set("classifier.weight", random_tensor({3000}, rng, 0.1f));
  FedSzConfig config;
  config.bound = lossy::ErrorBound::relative(1e-3);
  const Bytes v1 = make_v1_stream(dict, config);
  StateDict serial;
  for (const std::size_t parallelism : {std::size_t{1}, std::size_t{4}}) {
    config.parallelism = parallelism;
    const StateDict back = FedSz{config}.decompress({v1.data(), v1.size()});
    ASSERT_EQ(back.size(), dict.size());
    EXPECT_TRUE(
        back.get("features.0.bias").equals(dict.get("features.0.bias")));
    for (const char* name : {"features.0.weight", "classifier.weight"}) {
      const double eps = config.bound.absolute_for(dict.get(name).span());
      EXPECT_LE(max_error_vs(dict, back, name), eps * (1 + 1e-5)) << name;
    }
    if (parallelism == 1) {
      serial = back;
      continue;
    }
    for (const char* name : {"features.0.weight", "classifier.weight"}) {
      const FloatSpan a = back.get(name).span();
      const FloatSpan b = serial.get(name).span();
      ASSERT_EQ(a.size(), b.size());
      EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
          << name;
    }
  }
}

// ---- container corruption ----

TEST(ChunkContainer, ChunkCountMismatchThrows) {
  FedSzConfig config;
  ByteWriter w;
  const char magic[4] = {'F', 'S', 'Z', '1'};
  w.put_bytes({reinterpret_cast<const std::uint8_t*>(magic), 4});
  w.put_u16(2);
  w.put_u8(static_cast<std::uint8_t>(config.lossy_id));
  w.put_u8(static_cast<std::uint8_t>(config.lossless_id));
  w.put_u8(static_cast<std::uint8_t>(config.bound.mode));
  w.put_f64(config.bound.value);
  w.put_varint(512);  // chunk_elements
  w.put_u32(1);
  w.put_string("t.weight");
  w.put_u8(1);
  w.put_varint(1280);  // numel => 3 chunks expected
  w.put_f64(1e-3);
  w.put_varint(1);  // claims a single chunk
  const Bytes blob = w.finish();
  const FedSz fedsz{config};
  EXPECT_THROW(fedsz.decompress({blob.data(), blob.size()}), CorruptStream);
}

TEST(ChunkContainer, ZeroChunkElementsInStreamThrows) {
  FedSzConfig config;
  ByteWriter w;
  const char magic[4] = {'F', 'S', 'Z', '1'};
  w.put_bytes({reinterpret_cast<const std::uint8_t*>(magic), 4});
  w.put_u16(2);
  w.put_u8(static_cast<std::uint8_t>(config.lossy_id));
  w.put_u8(static_cast<std::uint8_t>(config.lossless_id));
  w.put_u8(static_cast<std::uint8_t>(config.bound.mode));
  w.put_f64(config.bound.value);
  w.put_varint(0);  // invalid chunk_elements
  w.put_u32(0);
  const Bytes blob = w.finish();
  const FedSz fedsz{config};
  EXPECT_THROW(fedsz.decompress({blob.data(), blob.size()}), CorruptStream);
}

TEST(ChunkContainer, TruncatedChunkPayloadThrows) {
  Rng rng(8);
  FedSzConfig config;
  config.chunk_elements = 256;
  const FedSz fedsz{config};
  const Bytes blob = fedsz.compress(mixed_dict(4000, rng));
  for (const double frac : {0.3, 0.6, 0.95}) {
    Bytes cut(blob.begin(),
              blob.begin() + static_cast<std::ptrdiff_t>(blob.size() * frac));
    EXPECT_THROW(fedsz.decompress({cut.data(), cut.size()}), CorruptStream);
  }
}

TEST(ChunkContainer, HugeChunkElementsConfigRoundTrips) {
  // chunk_elements far above any tensor size must degrade to one chunk per
  // tensor (the naive ceil-division `(n + chunk - 1) / chunk` wraps to 0
  // chunks here and silently drops the data).
  Rng rng(9);
  FedSzConfig config;
  config.chunk_elements = std::numeric_limits<std::size_t>::max();
  const FedSz fedsz{config};
  const StateDict dict = mixed_dict(2000, rng);
  CompressionStats stats;
  const Bytes blob = fedsz.compress(dict, &stats);
  EXPECT_EQ(stats.lossy_chunks, 1u);
  const StateDict back = fedsz.decompress({blob.data(), blob.size()});
  ASSERT_EQ(back.size(), dict.size());
  EXPECT_TRUE(back.get("features.0.bias").equals(dict.get("features.0.bias")));
  const double eps =
      config.bound.absolute_for(dict.get("features.0.weight").span());
  EXPECT_LE(max_error_vs(dict, back, "features.0.weight"), eps * (1 + 1e-5));
}

TEST(ChunkContainer, HugeDeclaredShapeThrowsInsteadOfAllocating) {
  // A tiny stream declaring a ~2^56-element tensor must die with
  // CorruptStream while parsing the chunk table, not attempt a multi-GB
  // allocation for the size table or the output tensor (under ASan such an
  // allocation aborts the test).
  FedSzConfig config;
  const FedSz fedsz{config};
  for (const std::uint16_t version : {std::uint16_t{1}, std::uint16_t{2}}) {
    ByteWriter w;
    const char magic[4] = {'F', 'S', 'Z', '1'};
    w.put_bytes({reinterpret_cast<const std::uint8_t*>(magic), 4});
    w.put_u16(version);
    w.put_u8(static_cast<std::uint8_t>(config.lossy_id));
    w.put_u8(static_cast<std::uint8_t>(config.lossless_id));
    w.put_u8(static_cast<std::uint8_t>(config.bound.mode));
    w.put_f64(config.bound.value);
    if (version == 2) w.put_varint(1);  // one chunk per element
    w.put_u32(1);
    w.put_string("t.weight");
    w.put_u8(3);
    w.put_varint(1u << 20);
    w.put_varint(1u << 20);
    w.put_varint(1u << 16);  // numel = 2^56
    if (version == 2) {
      w.put_f64(1e-3);
      w.put_varint(std::uint64_t{1} << 56);  // chunk count matches numel
    } else {
      w.put_varint(1);  // v1: the whole tensor in a one-byte blob
      w.put_u8(0);
      w.put_varint(0);  // empty lossless blob
    }
    const Bytes blob = w.finish();
    EXPECT_THROW(fedsz.decompress({blob.data(), blob.size()}), CorruptStream)
        << "v" << version;
  }
}

TEST(ChunkContainer, OversizedChunkElementsInStreamThrows) {
  // chunk_elements above the writer's hard cap cannot come from our own
  // writer; reject it before it can scale any allocation (a huge chunk size
  // with a single declared chunk would otherwise bypass the chunk-table
  // guard and zero-fill a multi-TB tensor).
  FedSzConfig config;
  ByteWriter w;
  const char magic[4] = {'F', 'S', 'Z', '1'};
  w.put_bytes({reinterpret_cast<const std::uint8_t*>(magic), 4});
  w.put_u16(2);
  w.put_u8(static_cast<std::uint8_t>(config.lossy_id));
  w.put_u8(static_cast<std::uint8_t>(config.lossless_id));
  w.put_u8(static_cast<std::uint8_t>(config.bound.mode));
  w.put_f64(config.bound.value);
  w.put_varint(std::uint64_t{1} << 56);  // chunk_elements far beyond the cap
  w.put_u32(1);
  w.put_string("t.weight");
  w.put_u8(3);
  w.put_varint(1u << 20);
  w.put_varint(1u << 20);
  w.put_varint(1u << 16);  // numel = 2^56, a single declared chunk
  w.put_f64(1e-3);
  w.put_varint(1);
  w.put_varint(1);  // one 1-byte chunk payload
  w.put_u8(0);
  const Bytes blob = w.finish();
  const FedSz fedsz{config};
  EXPECT_THROW(fedsz.decompress({blob.data(), blob.size()}), CorruptStream);
}

TEST(ChunkContainer, ZeroChunkElementsConfigRejected) {
  FedSzConfig config;
  config.chunk_elements = 0;
  EXPECT_THROW(FedSz{config}, InvalidArgument);
}

}  // namespace
}  // namespace fedsz::core
