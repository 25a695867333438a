#include "util/bitstream.hpp"

#include <algorithm>

namespace fedsz {

void BitWriter::reserve_tail(std::size_t bytes) {
  if (out_.size() - size_ >= bytes) return;
  out_.resize(std::max(size_ + bytes, 2 * out_.size()));
}

void BitWriter::spill(std::uint64_t bits, unsigned count) {
  // Precondition (from write()): acc_bits_ < 64 and acc_bits_ + count >= 64.
  const unsigned take = 64 - acc_bits_;
  acc_ |= bits << acc_bits_;
  reserve_tail(8);
  store_le64(out_.data() + size_, acc_);  // little-endian == LSB-first
  size_ += 8;
  acc_ = take >= count ? 0 : bits >> take;
  acc_bits_ = acc_bits_ + count - 64;
}

void BitWriter::flush_partial() {
  reserve_tail(8);
  while (acc_bits_ > 0) {
    out_[size_++] = static_cast<std::uint8_t>(acc_);
    acc_ >>= 8;
    acc_bits_ = acc_bits_ > 8 ? acc_bits_ - 8 : 0;
  }
  acc_ = 0;
}

Bytes BitWriter::finish() {
  flush_partial();
  out_.resize(size_);
  Bytes result = std::move(out_);
  out_.clear();
  size_ = 0;
  return result;
}

ByteSpan BitWriter::finish_view() {
  flush_partial();
  return {out_.data(), size_};
}

std::uint64_t BitReader::read(unsigned count) {
  if (count > 64) throw InvalidArgument("BitReader::read: count > 64");
  if (pos_ + count > data_.size() * 8)
    throw CorruptStream("BitReader: read past end of stream");
  if (count <= 57) {  // single peek covers the whole request
    const std::uint64_t result = peek(count);
    pos_ += count;
    return result;
  }
  std::uint64_t result = 0;
  unsigned got = 0;
  while (got < count) {
    const std::size_t byte = pos_ >> 3;
    const unsigned offset = static_cast<unsigned>(pos_ & 7);
    const unsigned avail = 8 - offset;
    const unsigned take = (count - got) < avail ? (count - got) : avail;
    const std::uint64_t chunk = (data_[byte] >> offset) & ((1u << take) - 1);
    result |= chunk << got;
    got += take;
    pos_ += take;
  }
  return result;
}

}  // namespace fedsz

