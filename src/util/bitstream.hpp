// Bit-granular writer/reader used by the entropy coders (Huffman, ZFP
// bit-plane coding). Bits are packed LSB-first within each byte.
//
// The writer batches bits in a 64-bit accumulator and spills whole words
// into a buffer it sizes ahead (doubling), so per-symbol costs are a
// shift/or and a spill is one 8-byte store; the emitted byte stream is
// identical to the historical byte-loop encoder. Bulk encoders append
// through a WordCursor, which stores whole words with no capacity check.
// The reader adds peek()/skip() so table-driven decoders can inspect a
// window of upcoming bits without consuming them.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>

#include "util/common.hpp"

namespace fedsz {

/// Store `word` at `dst` in little-endian byte order (LSB-first stream
/// order): one unaligned 8-byte store on little-endian hosts.
inline void store_le64(std::uint8_t* dst, std::uint64_t word) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(dst, &word, sizeof(word));
  } else {
    for (int i = 0; i < 8; ++i)
      dst[i] = static_cast<std::uint8_t>(word >> (8 * i));
  }
}

class BitWriter {
 public:
  /// Append the low `count` bits of `bits` (0 <= count <= 64).
  void write(std::uint64_t bits, unsigned count) {
    if (count > 64) throw InvalidArgument("BitWriter::write: count > 64");
    if (count < 64) bits &= (std::uint64_t{1} << count) - 1;
    if (acc_bits_ + count < 64) {
      acc_ |= bits << acc_bits_;
      acc_bits_ += count;
      return;
    }
    spill(bits, count);
  }

  /// Append a single bit.
  void write_bit(bool bit) { write(bit ? 1u : 0u, 1); }

  /// Flush any partial byte and return the buffer. The writer is left empty.
  Bytes finish();

  /// Flush any partial byte and expose the encoded bytes without giving up
  /// the buffer (arena reuse: capacity survives the next reset()). The view
  /// is invalidated by any subsequent write.
  ByteSpan finish_view();

  std::size_t capacity() const { return out_.capacity(); }

  /// Drop all written bits but keep the buffer capacity.
  void reset() {
    size_ = 0;
    acc_ = 0;
    acc_bits_ = 0;
  }

  /// The writer's state while a bulk encoder appends whole words: the next
  /// byte to store at, and fewer than 8 pending bits after each flush().
  struct WordCursor {
    std::uint8_t* ptr;
    std::uint64_t acc;
    unsigned bits;

    /// Append the low `len` bits of `code` (no higher bits set). At most
    /// 56 bits may be put between two flush() calls.
    void put(std::uint64_t code, unsigned len) {
      acc |= code << bits;
      bits += len;
    }
    /// Store the whole pending bytes with one 8-byte store.
    void flush() {
      store_le64(ptr, acc);
      const unsigned whole = bits & ~7u;
      ptr += whole >> 3;
      acc >>= whole;
      bits -= whole;
    }
  };

  /// Make room for `max_bits` more bits and hand the writer's state to a
  /// cursor; end_words takes it back. Nothing else may write in between.
  /// Both are inline so the cursor can live in registers.
  WordCursor begin_words(std::size_t max_bits) {
    // The pending bits (under 8 bytes), the new bits, and the 8 bytes the
    // last flush() stores from its final position.
    reserve_tail(8 + max_bits / 8 + 1 + 8);
    WordCursor cursor{out_.data() + size_, acc_, acc_bits_};
    cursor.flush();
    return cursor;
  }
  void end_words(const WordCursor& cursor) {
    size_ = static_cast<std::size_t>(cursor.ptr - out_.data());
    acc_ = cursor.acc;
    acc_bits_ = cursor.bits;
  }

 private:
  void spill(std::uint64_t bits, unsigned count);
  void flush_partial();
  /// Grow the buffer so at least `bytes` can be stored past size_.
  void reserve_tail(std::size_t bytes);

  Bytes out_;              // sized ahead; only the first size_ bytes count
  std::size_t size_ = 0;   // bytes written
  std::uint64_t acc_ = 0;  // pending bits, LSB-first
  unsigned acc_bits_ = 0;  // number of pending bits (< 64 between calls)
};

class BitReader {
 public:
  explicit BitReader(ByteSpan data) : data_(data) {}

  /// Read `count` bits (0 <= count <= 64). Throws CorruptStream past the end.
  std::uint64_t read(unsigned count);

  bool read_bit() { return read(1) != 0; }

  /// Return the next `count` bits (0 <= count <= 57) without consuming
  /// them. Bits past the end of the buffer read as zero — the caller is
  /// responsible for checking bits_left() before trusting more than that
  /// many bits.
  std::uint64_t peek(unsigned count) const {
    const std::size_t byte = pos_ >> 3;
    const unsigned offset = static_cast<unsigned>(pos_ & 7);
    std::uint64_t word = 0;
    if (std::endian::native == std::endian::little &&
        byte + 8 <= data_.size()) {
      // One unaligned word load: on little-endian hosts its bytes land in
      // exactly the LSB-first order the loop below assembles.
      std::memcpy(&word, data_.data() + byte, sizeof(word));
    } else {
      const std::size_t have = byte < data_.size() ? data_.size() - byte : 0;
      const std::size_t take = have < 8 ? have : 8;
      for (std::size_t i = 0; i < take; ++i)
        word |= static_cast<std::uint64_t>(data_[byte + i]) << (8 * i);
    }
    word >>= offset;
    return word & ((std::uint64_t{1} << count) - 1);
  }

  /// Advance past bits already examined with peek(). The caller must not
  /// skip past the end of the buffer.
  void skip(unsigned count) { pos_ += count; }

  /// Bits remaining in the underlying buffer.
  std::size_t bits_left() const { return data_.size() * 8 - pos_; }

 private:
  ByteSpan data_;
  std::size_t pos_ = 0;  // absolute bit position
};

}  // namespace fedsz
