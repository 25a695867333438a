// Byte-granular serialization helpers: little-endian fixed-width integers,
// IEEE-754 floats, LEB128 varints, and length-prefixed strings/blobs.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>

#include "util/common.hpp"

namespace fedsz {

/// Bytes ByteWriter::put_varint(v) writes.
constexpr std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

class ByteWriter {
 public:
  void put_u8(std::uint8_t v) { out_.push_back(v); }
  void put_u16(std::uint16_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_f32(float v);
  void put_f64(double v);

  /// Unsigned LEB128.
  void put_varint(std::uint64_t v);

  /// Raw bytes, no length prefix.
  void put_bytes(ByteSpan data);

  /// Varint length prefix followed by the bytes.
  void put_blob(ByteSpan data);
  void put_string(const std::string& s);

  std::size_t size() const { return out_.size(); }
  Bytes finish() { return std::move(out_); }

  /// View of the bytes written so far (invalidated by further writes).
  ByteSpan view() const { return {out_.data(), out_.size()}; }

  /// Drop the contents but keep the capacity — the arena-reuse primitive:
  /// a reset writer re-encodes into the same heap block.
  void reset() { out_.clear(); }

  void reserve(std::size_t capacity) { out_.reserve(capacity); }

  std::size_t capacity() const { return out_.capacity(); }

 private:
  Bytes out_;
};

class ByteReader {
 public:
  explicit ByteReader(ByteSpan data) : data_(data) {}

  std::uint8_t get_u8();
  std::uint16_t get_u16();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  float get_f32();
  double get_f64();
  std::uint64_t get_varint();
  /// View of the next `count` bytes; advances the cursor.
  ByteSpan get_bytes(std::size_t count);
  Bytes get_blob();
  /// Zero-copy variant of get_blob(): a view into the underlying buffer.
  ByteSpan get_blob_view();
  std::string get_string();

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

 private:
  void require(std::size_t count) const;
  ByteSpan data_;
  std::size_t pos_ = 0;
};

}  // namespace fedsz
