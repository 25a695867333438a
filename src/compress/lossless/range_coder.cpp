#include "compress/lossless/range_coder.hpp"

namespace fedsz::lossless {

namespace {
constexpr std::uint32_t kTopValue = 1u << 24;
constexpr unsigned kProbBits = 11;
constexpr unsigned kMoveBits = 5;
}  // namespace

void RangeEncoder::shift_low() {
  if (static_cast<std::uint32_t>(low_) < 0xFF000000u || (low_ >> 32) != 0) {
    std::uint8_t carry = static_cast<std::uint8_t>(low_ >> 32);
    out_.push_back(static_cast<std::uint8_t>(cache_ + carry));
    while (cache_size_ > 1) {
      out_.push_back(static_cast<std::uint8_t>(0xFF + carry));
      --cache_size_;
    }
    cache_ = static_cast<std::uint8_t>(low_ >> 24);
    cache_size_ = 0;
  }
  ++cache_size_;
  low_ = (low_ << 8) & 0xFFFFFFFFull;
}

void RangeEncoder::encode_bit(BitProb& prob, unsigned bit) {
  const std::uint32_t bound = (range_ >> kProbBits) * prob.value;
  if (bit == 0) {
    range_ = bound;
    prob.value = static_cast<std::uint16_t>(
        prob.value + (((1u << kProbBits) - prob.value) >> kMoveBits));
  } else {
    low_ += bound;
    range_ -= bound;
    prob.value = static_cast<std::uint16_t>(prob.value -
                                            (prob.value >> kMoveBits));
  }
  while (range_ < kTopValue) {
    range_ <<= 8;
    shift_low();
  }
}

void RangeEncoder::encode_direct(std::uint32_t value, unsigned count) {
  for (unsigned i = count; i-- > 0;) {
    range_ >>= 1;
    if ((value >> i) & 1u) low_ += range_;
    while (range_ < kTopValue) {
      range_ <<= 8;
      shift_low();
    }
  }
}

void RangeEncoder::encode_tree(std::vector<BitProb>& probs, unsigned count,
                               std::uint32_t value) {
  std::uint32_t m = 1;
  for (unsigned i = count; i-- > 0;) {
    const unsigned bit = (value >> i) & 1u;
    encode_bit(probs[m], bit);
    m = (m << 1) | bit;
  }
}

Bytes RangeEncoder::finish() {
  for (int i = 0; i < 5; ++i) shift_low();
  return std::move(out_);
}

RangeDecoder::RangeDecoder(ByteSpan data) : data_(data) {
  next_byte();  // skip the encoder's initial cache byte (always 0)
  for (int i = 0; i < 4; ++i) code_ = (code_ << 8) | next_byte();
}

std::uint8_t RangeDecoder::next_byte() {
  // The decoder normalizes exactly when the encoder shifted a byte out, and
  // the five constructor reads match finish()'s five flushed bytes, so a
  // well-formed stream is never read past its end.
  if (pos_ >= data_.size())
    throw CorruptStream("range coder: read past the end of the stream");
  return data_[pos_++];
}

void RangeDecoder::normalize() {
  while (range_ < kTopValue) {
    range_ <<= 8;
    code_ = (code_ << 8) | next_byte();
  }
}

unsigned RangeDecoder::decode_bit(BitProb& prob) {
  const std::uint32_t bound = (range_ >> kProbBits) * prob.value;
  unsigned bit;
  if (code_ < bound) {
    range_ = bound;
    prob.value = static_cast<std::uint16_t>(
        prob.value + (((1u << kProbBits) - prob.value) >> kMoveBits));
    bit = 0;
  } else {
    code_ -= bound;
    range_ -= bound;
    prob.value = static_cast<std::uint16_t>(prob.value -
                                            (prob.value >> kMoveBits));
    bit = 1;
  }
  normalize();
  return bit;
}

std::uint32_t RangeDecoder::decode_direct(unsigned count) {
  std::uint32_t result = 0;
  for (unsigned i = 0; i < count; ++i) {
    range_ >>= 1;
    result <<= 1;
    if (code_ >= range_) {
      code_ -= range_;
      result |= 1u;
    }
    normalize();
  }
  return result;
}

std::uint32_t RangeDecoder::decode_tree(std::vector<BitProb>& probs,
                                        unsigned count) {
  std::uint32_t m = 1;
  for (unsigned i = 0; i < count; ++i)
    m = (m << 1) | decode_bit(probs[m]);
  return m - (1u << count);
}

}  // namespace fedsz::lossless
