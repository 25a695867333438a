// Bit-granular writer/reader used by the entropy coders (Huffman, ZFP
// bit-plane coding). Bits are packed LSB-first within each byte.
//
// The writer batches bits in a 64-bit accumulator and spills whole words,
// so per-symbol costs are a shift/or instead of a byte-at-a-time loop; the
// emitted byte stream is identical to the historical byte-loop encoder.
// The reader adds peek()/skip() so table-driven decoders can inspect a
// window of upcoming bits without consuming them.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>

#include "util/common.hpp"

namespace fedsz {

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
    out_.clear();
    acc_ = 0;
    acc_bits_ = 0;
  }

 private:
  void spill(std::uint64_t bits, unsigned count);
  void flush_partial();

  Bytes out_;
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
