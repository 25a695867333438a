// Wire-frame hardening: round-trips through the incremental decoder under
// adversarial read boundaries, plus a randomized corrupt-frame suite —
// every single-byte flip in the header region, truncations at every
// length, oversized length prefixes, unknown versions/types, and payload
// CRC damage must throw CorruptStream (and poison the decoder) before any
// payload byte is interpreted.
#include <gtest/gtest.h>

#include <cstring>

#include "net/wire.hpp"
#include "util/rng.hpp"

namespace fedsz::net {
namespace {

Bytes make_payload(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  Bytes payload(size);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64() & 0xFF);
  return payload;
}

TEST(WireTest, RoundTripAllTypes) {
  for (const FrameType type :
       {FrameType::kHello, FrameType::kRoundOpen, FrameType::kUpdate,
        FrameType::kPartial, FrameType::kBroadcast, FrameType::kAck,
        FrameType::kHeartbeat, FrameType::kBye}) {
    const Bytes payload =
        make_payload(static_cast<std::size_t>(type) * 37, 1);
    const Bytes framed = encode_frame(type, {payload.data(), payload.size()});
    ASSERT_EQ(framed.size(), kWireHeaderBytes + payload.size());
    FrameDecoder decoder;
    decoder.feed({framed.data(), framed.size()});
    const auto frame = decoder.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, type);
    EXPECT_EQ(frame->payload, payload);
    EXPECT_FALSE(decoder.next().has_value());
    EXPECT_EQ(decoder.buffered(), 0u);
  }
}

TEST(WireTest, IncrementalFeedAnyBoundary) {
  // Three frames back to back, delivered at every possible split point —
  // the decoder must produce the same frames regardless of read chunking.
  Bytes stream;
  for (int k = 0; k < 3; ++k) {
    const Bytes payload = make_payload(17 * static_cast<std::size_t>(k), 7);
    const Bytes framed =
        encode_frame(FrameType::kPartial, {payload.data(), payload.size()});
    stream.insert(stream.end(), framed.begin(), framed.end());
  }
  for (std::size_t split = 0; split <= stream.size(); ++split) {
    FrameDecoder decoder;
    decoder.feed({stream.data(), split});
    std::size_t frames = 0;
    while (decoder.next()) ++frames;
    decoder.feed({stream.data() + split, stream.size() - split});
    while (decoder.next()) ++frames;
    EXPECT_EQ(frames, 3u) << "split at " << split;
    EXPECT_FALSE(decoder.mid_frame());
  }
}

TEST(WireTest, MidFrameReportsTruncation) {
  const Bytes payload = make_payload(64, 3);
  const Bytes framed =
      encode_frame(FrameType::kBroadcast, {payload.data(), payload.size()});
  for (const std::size_t cut : {std::size_t{1}, kWireHeaderBytes - 1,
                                kWireHeaderBytes, framed.size() - 1}) {
    FrameDecoder decoder;
    decoder.feed({framed.data(), cut});
    EXPECT_FALSE(decoder.next().has_value());
    EXPECT_TRUE(decoder.mid_frame()) << "cut at " << cut;
  }
  FrameDecoder decoder;
  decoder.feed({framed.data(), framed.size()});
  ASSERT_TRUE(decoder.next().has_value());
  EXPECT_FALSE(decoder.mid_frame());
}

TEST(WireTest, EverySingleHeaderByteFlipIsCorrupt) {
  // Flip each bit of each header byte in turn. The CRC covers the header
  // prefix as well as the payload, so every flip must either throw
  // CorruptStream (structural check or checksum) or leave the decoder
  // waiting for bytes that never come (a grown length prefix). No flip
  // may ever decode as a valid frame.
  const Bytes payload = make_payload(48, 11);
  const Bytes framed =
      encode_frame(FrameType::kRoundOpen, {payload.data(), payload.size()});
  std::size_t corrupt = 0, pending = 0, decoded = 0;
  for (std::size_t byte = 0; byte < kWireHeaderBytes; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes damaged = framed;
      damaged[byte] = static_cast<std::uint8_t>(
          damaged[byte] ^ (1u << bit));
      FrameDecoder decoder;
      decoder.feed({damaged.data(), damaged.size()});
      try {
        const auto frame = decoder.next();
        if (frame.has_value()) {
          ++decoded;  // must never happen; asserted below
        } else {
          // A grown length prefix: the decoder waits for bytes that never
          // come. EOF handling upstream (FrameChannel) turns this into
          // CorruptStream via mid_frame().
          EXPECT_TRUE(decoder.mid_frame());
          ++pending;
        }
      } catch (const CorruptStream&) {
        ++corrupt;
        // Poisoned: every later call rethrows even with more bytes fed.
        decoder.feed({framed.data(), framed.size()});
        EXPECT_THROW(decoder.next(), CorruptStream);
      }
    }
  }
  EXPECT_EQ(decoded, 0u) << "a header flip produced a valid frame";
  EXPECT_EQ(corrupt + pending, 8 * kWireHeaderBytes);
  EXPECT_GT(corrupt, 0u);
}

TEST(WireTest, RandomPayloadDamageFailsCrc) {
  Rng rng(99);
  const Bytes payload = make_payload(256, 5);
  const Bytes framed =
      encode_frame(FrameType::kPartial, {payload.data(), payload.size()});
  for (int trial = 0; trial < 200; ++trial) {
    Bytes damaged = framed;
    const std::size_t at =
        kWireHeaderBytes +
        static_cast<std::size_t>(rng.next_u64() % payload.size());
    const auto flip = static_cast<std::uint8_t>(1u << (rng.next_u64() % 8));
    damaged[at] = static_cast<std::uint8_t>(damaged[at] ^ flip);
    FrameDecoder decoder;
    decoder.feed({damaged.data(), damaged.size()});
    EXPECT_THROW(decoder.next(), CorruptStream) << "flip at " << at;
  }
}

TEST(WireTest, OversizedLengthRejectedBeforeAllocation) {
  // A small decoder cap: a declared length just above it must throw from
  // the header alone — no payload bytes are ever required (or buffered).
  const Bytes payload = make_payload(32, 13);
  const Bytes framed =
      encode_frame(FrameType::kHello, {payload.data(), payload.size()});
  FrameDecoder decoder(/*max_payload=*/16);
  decoder.feed({framed.data(), kWireHeaderBytes});  // header only
  EXPECT_THROW(decoder.next(), CorruptStream);
}

TEST(WireTest, UnknownVersionAndTypeRejected) {
  const Bytes payload = make_payload(8, 17);
  {
    Bytes framed =
        encode_frame(FrameType::kAck, {payload.data(), payload.size()});
    framed[4] = kWireVersion + 1;  // version byte
    FrameDecoder decoder;
    decoder.feed({framed.data(), framed.size()});
    EXPECT_THROW(decoder.next(), CorruptStream);
  }
  for (const std::uint8_t bad_type : {std::uint8_t{0}, std::uint8_t{9},
                                      std::uint8_t{0x7F}, std::uint8_t{0xFF}}) {
    Bytes framed =
        encode_frame(FrameType::kAck, {payload.data(), payload.size()});
    framed[5] = bad_type;  // type byte
    FrameDecoder decoder;
    decoder.feed({framed.data(), framed.size()});
    EXPECT_THROW(decoder.next(), CorruptStream) << unsigned(bad_type);
  }
}

TEST(WireTest, NonZeroFlagsRejected) {
  // Flags are reserved-zero in every version so far; a frame carrying any
  // flag bit comes from a future (incompatible) writer.
  const Bytes payload = make_payload(8, 19);
  Bytes framed =
      encode_frame(FrameType::kBye, {payload.data(), payload.size()});
  framed[6] = 0x01;
  FrameDecoder decoder;
  decoder.feed({framed.data(), framed.size()});
  EXPECT_THROW(decoder.next(), CorruptStream);
}

TEST(WireTest, RandomGarbageNeverDecodes) {
  // Random byte soup must never produce a frame: the magic + version +
  // type + CRC gauntlet rejects it (or leaves the decoder waiting, never
  // returning data it could not authenticate).
  Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    const Bytes garbage =
        make_payload(1 + static_cast<std::size_t>(rng.next_u64() % 96),
                     rng.next_u64());
    FrameDecoder decoder;
    decoder.feed({garbage.data(), garbage.size()});
    try {
      const auto frame = decoder.next();
      EXPECT_FALSE(frame.has_value()) << "garbage decoded as a frame";
    } catch (const CorruptStream&) {
      // expected for most trials
    }
  }
}

}  // namespace
}  // namespace fedsz::net
