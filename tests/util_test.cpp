// Tests for bit/byte serialization primitives, the RNG, and the thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "util/bitstream.hpp"
#include "util/bytebuffer.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace fedsz {
namespace {

// ---- BitWriter / BitReader ----

TEST(BitStream, EmptyFinishProducesNoBytes) {
  BitWriter w;
  EXPECT_TRUE(w.finish().empty());
}

TEST(BitStream, SingleBitRoundTrip) {
  BitWriter w;
  w.write_bit(true);
  const Bytes bytes = w.finish();
  ASSERT_EQ(bytes.size(), 1u);
  BitReader r({bytes.data(), bytes.size()});
  EXPECT_TRUE(r.read_bit());
}

TEST(BitStream, CrossByteBoundaryValues) {
  BitWriter w;
  w.write(0b101, 3);
  w.write(0xABCD, 16);
  w.write(0b1, 1);
  w.write(0xFFFFFFFFu, 32);
  const Bytes bytes = w.finish();
  BitReader r({bytes.data(), bytes.size()});
  EXPECT_EQ(r.read(3), 0b101u);
  EXPECT_EQ(r.read(16), 0xABCDu);
  EXPECT_EQ(r.read(1), 1u);
  EXPECT_EQ(r.read(32), 0xFFFFFFFFu);
}

TEST(BitStream, SixtyFourBitValue) {
  BitWriter w;
  const std::uint64_t value = 0x123456789ABCDEF0ull;
  w.write(value, 64);
  const Bytes bytes = w.finish();
  BitReader r({bytes.data(), bytes.size()});
  EXPECT_EQ(r.read(64), value);
}

TEST(BitStream, ZeroCountWriteIsNoop) {
  BitWriter w;
  w.write(0xFF, 0);
  w.write(1, 1);
  const Bytes bytes = w.finish();
  BitReader r({bytes.data(), bytes.size()});
  EXPECT_EQ(r.read(0), 0u);
  EXPECT_EQ(r.read(1), 1u);
}

TEST(BitStream, WriteMasksHighBits) {
  BitWriter w;
  w.write(0xFF, 4);  // only low 4 bits kept
  const Bytes bytes = w.finish();
  BitReader r({bytes.data(), bytes.size()});
  EXPECT_EQ(r.read(4), 0xFu);
  EXPECT_EQ(r.read(4), 0u);  // padding
}

TEST(BitStream, ReadPastEndThrows) {
  BitWriter w;
  w.write(1, 1);
  const Bytes bytes = w.finish();
  BitReader r({bytes.data(), bytes.size()});
  r.read(8);  // consumes the padded byte
  EXPECT_THROW(r.read(1), CorruptStream);
}

TEST(BitStream, CountAbove64Throws) {
  BitWriter w;
  EXPECT_THROW(w.write(0, 65), InvalidArgument);
  const Bytes bytes{0, 0};
  BitReader r({bytes.data(), bytes.size()});
  EXPECT_THROW(r.read(65), InvalidArgument);
}

TEST(BitStream, ManyRandomValuesRoundTrip) {
  Rng rng(1234);
  std::vector<std::pair<std::uint64_t, unsigned>> values;
  BitWriter w;
  for (int i = 0; i < 5000; ++i) {
    const unsigned count = 1 + static_cast<unsigned>(rng.uniform_index(64));
    std::uint64_t v = rng.next_u64();
    if (count < 64) v &= (std::uint64_t{1} << count) - 1;
    values.emplace_back(v, count);
    w.write(v, count);
  }
  const Bytes bytes = w.finish();
  BitReader r({bytes.data(), bytes.size()});
  for (const auto& [v, count] : values) EXPECT_EQ(r.read(count), v);
}

/// `count` bits of `buf` from bit `pos`, LSB-first, one bit at a time; bits
/// past the end read as zero.
std::uint64_t reference_bits(const Bytes& buf, std::size_t pos,
                             unsigned count) {
  std::uint64_t v = 0;
  for (unsigned i = 0; i < count; ++i) {
    const std::size_t bit = pos + i;
    if (bit / 8 < buf.size())
      v |= static_cast<std::uint64_t>((buf[bit / 8] >> (bit % 8)) & 1u) << i;
  }
  return v;
}

TEST(BitStream, PeekAndReadMatchBitLoopReferenceAtEveryOffset) {
  // Buffers of 0-32 bytes put every offset on both sides of the point
  // where peek stops loading whole words and assembles the tail by bytes.
  Rng rng(4321);
  for (std::size_t size = 0; size <= 32; ++size) {
    Bytes buf(size);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform_index(256));
    const ByteSpan span{buf.data(), buf.size()};
    for (std::size_t pos = 0; pos <= size * 8; ++pos) {
      for (const unsigned count : {0u, 1u, 7u, 8u, 9u, 16u, 31u, 32u, 33u,
                                   56u, 57u, 58u, 63u, 64u}) {
        BitReader r(span);
        r.skip(static_cast<unsigned>(pos));
        const std::uint64_t expected = reference_bits(buf, pos, count);
        if (count <= 57) {
          EXPECT_EQ(r.peek(count), expected)
              << "size=" << size << " pos=" << pos << " count=" << count;
        }
        if (pos + count <= size * 8) {
          EXPECT_EQ(r.read(count), expected)
              << "size=" << size << " pos=" << pos << " count=" << count;
          EXPECT_EQ(r.bits_left(), size * 8 - pos - count);
        } else {
          EXPECT_THROW(r.read(count), CorruptStream);
        }
      }
    }
  }
}

// ---- ByteWriter / ByteReader ----

TEST(ByteBuffer, FixedWidthRoundTrip) {
  ByteWriter w;
  w.put_u8(0xAB);
  w.put_u16(0xCDEF);
  w.put_u32(0x12345678u);
  w.put_u64(0xFEDCBA9876543210ull);
  w.put_f32(3.14159f);
  w.put_f64(-2.718281828459045);
  const Bytes bytes = w.finish();
  ByteReader r({bytes.data(), bytes.size()});
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_EQ(r.get_u16(), 0xCDEF);
  EXPECT_EQ(r.get_u32(), 0x12345678u);
  EXPECT_EQ(r.get_u64(), 0xFEDCBA9876543210ull);
  EXPECT_FLOAT_EQ(r.get_f32(), 3.14159f);
  EXPECT_DOUBLE_EQ(r.get_f64(), -2.718281828459045);
  EXPECT_TRUE(r.done());
}

TEST(ByteBuffer, LittleEndianLayout) {
  ByteWriter w;
  w.put_u32(0x04030201u);
  const Bytes bytes = w.finish();
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(bytes[0], 1);
  EXPECT_EQ(bytes[1], 2);
  EXPECT_EQ(bytes[2], 3);
  EXPECT_EQ(bytes[3], 4);
}

TEST(ByteBuffer, VarintBoundaries) {
  const std::uint64_t cases[] = {0,       1,       127,        128,
                                 16383,   16384,   0xFFFFFFFF, (1ull << 62),
                                 ~0ull};
  ByteWriter w;
  for (const auto v : cases) w.put_varint(v);
  const Bytes bytes = w.finish();
  ByteReader r({bytes.data(), bytes.size()});
  for (const auto v : cases) EXPECT_EQ(r.get_varint(), v);
  for (const auto v : cases) {
    ByteWriter one;
    one.put_varint(v);
    EXPECT_EQ(varint_size(v), one.size()) << v;
  }
}

TEST(ByteBuffer, VarintSingleByteForSmallValues) {
  ByteWriter w;
  w.put_varint(127);
  EXPECT_EQ(w.size(), 1u);
}

TEST(ByteBuffer, StringAndBlobRoundTrip) {
  ByteWriter w;
  w.put_string("features.0.weight");
  w.put_string("");
  const Bytes blob{1, 2, 3, 255};
  w.put_blob({blob.data(), blob.size()});
  const Bytes bytes = w.finish();
  ByteReader r({bytes.data(), bytes.size()});
  EXPECT_EQ(r.get_string(), "features.0.weight");
  EXPECT_EQ(r.get_string(), "");
  EXPECT_EQ(r.get_blob(), blob);
}

TEST(ByteBuffer, TruncatedReadThrows) {
  ByteWriter w;
  w.put_u16(7);
  const Bytes bytes = w.finish();
  ByteReader r({bytes.data(), bytes.size()});
  EXPECT_THROW(r.get_u32(), CorruptStream);
}

TEST(ByteBuffer, OversizedBlobLengthThrows) {
  ByteWriter w;
  w.put_varint(1000);  // claims 1000 bytes, provides none
  const Bytes bytes = w.finish();
  ByteReader r({bytes.data(), bytes.size()});
  EXPECT_THROW(r.get_blob(), CorruptStream);
}

TEST(ByteBuffer, MalformedVarintThrows) {
  const Bytes bytes(11, 0x80);  // continuation bit forever
  ByteReader r({bytes.data(), bytes.size()});
  EXPECT_THROW(r.get_varint(), CorruptStream);
}

// ---- Rng ----

TEST(Rng, DeterministicForSameSeed) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_index(8));
  EXPECT_EQ(seen.size(), 8u);
  EXPECT_EQ(*seen.rbegin(), 7u);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(11);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, LaplaceMomentsMatchParameters) {
  Rng rng(13);
  const double mu = 0.5, b = 2.0;
  double sum = 0.0, abs_dev = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.laplace(mu, b);
  const double mean = sum / n;
  EXPECT_NEAR(mean, mu, 0.1);
  Rng rng2(13);
  for (int i = 0; i < n; ++i) abs_dev += std::fabs(rng2.laplace(mu, b) - mu);
  EXPECT_NEAR(abs_dev / n, b, 0.1);
}

TEST(Rng, GammaMeanMatchesShape) {
  Rng rng(17);
  for (const double shape : {0.3, 1.0, 4.0}) {
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += rng.gamma(shape);
    EXPECT_NEAR(sum / n, shape, shape * 0.1 + 0.03);
  }
}

TEST(Rng, ForkProducesIndependentStreams) {
  Rng base(21);
  Rng a = base.fork(0);
  Rng b = base.fork(1);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 3);
}

// ---- Timer ----

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 2000000; ++i) sink = sink + i;
  EXPECT_GT(t.seconds(), 0.0);
}

TEST(StopWatch, AccumulatesIntervals) {
  StopWatch sw;
  sw.start();
  sw.stop();
  sw.start();
  sw.stop();
  EXPECT_GE(sw.total_seconds(), 0.0);
  sw.clear();
  EXPECT_EQ(sw.total_seconds(), 0.0);
}

// ---- ThreadPool ----

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  auto future = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesTaskException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(4,
                        [](std::size_t i) {
                          if (i == 2) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ManyTasksComplete) {
  ThreadPool pool(8);
  std::atomic<std::int64_t> sum{0};
  pool.parallel_for(1000, [&](std::size_t i) {
    sum += static_cast<std::int64_t>(i);
  });
  EXPECT_EQ(sum.load(), 999 * 1000 / 2);
}

}  // namespace
}  // namespace fedsz
