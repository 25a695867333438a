#include "util/bytebuffer.hpp"

namespace fedsz {

void ByteWriter::put_u16(std::uint16_t v) {
  put_u8(static_cast<std::uint8_t>(v));
  put_u8(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::put_u32(std::uint32_t v) {
  put_u16(static_cast<std::uint16_t>(v));
  put_u16(static_cast<std::uint16_t>(v >> 16));
}

void ByteWriter::put_u64(std::uint64_t v) {
  put_u32(static_cast<std::uint32_t>(v));
  put_u32(static_cast<std::uint32_t>(v >> 32));
}

void ByteWriter::put_f32(float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u32(bits);
}

void ByteWriter::put_f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(bits);
}

void ByteWriter::put_varint(std::uint64_t v) {
  while (v >= 0x80) {
    put_u8(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  put_u8(static_cast<std::uint8_t>(v));
}

void ByteWriter::put_bytes(ByteSpan data) {
  out_.insert(out_.end(), data.begin(), data.end());
}

void ByteWriter::put_blob(ByteSpan data) {
  put_varint(data.size());
  put_bytes(data);
}

void ByteWriter::put_string(const std::string& s) {
  put_blob({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

void ByteReader::require(std::size_t count) const {
  // Subtract, never add: pos_ <= size() always holds, while pos_ + count
  // wraps for a stream-borne count near 2^64.
  if (count > data_.size() - pos_)
    throw CorruptStream("ByteReader: truncated stream");
}

std::uint8_t ByteReader::get_u8() {
  require(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::get_u16() {
  const auto lo = get_u8();
  const auto hi = get_u8();
  return static_cast<std::uint16_t>(lo | (hi << 8));
}

std::uint32_t ByteReader::get_u32() {
  const std::uint32_t lo = get_u16();
  const std::uint32_t hi = get_u16();
  return lo | (hi << 16);
}

std::uint64_t ByteReader::get_u64() {
  const std::uint64_t lo = get_u32();
  const std::uint64_t hi = get_u32();
  return lo | (hi << 32);
}

float ByteReader::get_f32() {
  const std::uint32_t bits = get_u32();
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

double ByteReader::get_f64() {
  const std::uint64_t bits = get_u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::uint64_t ByteReader::get_varint() {
  std::uint64_t result = 0;
  unsigned shift = 0;
  while (true) {
    if (shift >= 64) throw CorruptStream("ByteReader: varint overflow");
    const std::uint8_t byte = get_u8();
    result |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  return result;
}

ByteSpan ByteReader::get_bytes(std::size_t count) {
  require(count);
  ByteSpan view = data_.subspan(pos_, count);
  pos_ += count;
  return view;
}

Bytes ByteReader::get_blob() {
  const auto len = get_varint();
  if (len > remaining()) throw CorruptStream("ByteReader: blob too long");
  ByteSpan view = get_bytes(static_cast<std::size_t>(len));
  return Bytes(view.begin(), view.end());
}

ByteSpan ByteReader::get_blob_view() {
  const auto len = get_varint();
  if (len > remaining()) throw CorruptStream("ByteReader: blob too long");
  return get_bytes(static_cast<std::size_t>(len));
}

std::string ByteReader::get_string() {
  const auto len = get_varint();
  if (len > remaining()) throw CorruptStream("ByteReader: string too long");
  ByteSpan view = get_bytes(static_cast<std::size_t>(len));
  return std::string(reinterpret_cast<const char*>(view.data()), view.size());
}

}  // namespace fedsz
