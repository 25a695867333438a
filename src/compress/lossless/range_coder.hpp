// Adaptive binary range coder (LZMA-style), the entropy back end of the
// xz-like codec: 32-bit range, 11-bit adaptive bit probabilities, carry
// propagation through a cache byte. Also provides bit-tree helpers for
// encoding fixed-width fields with per-node adaptive contexts.
#pragma once

#include <cstdint>
#include <vector>

#include "util/common.hpp"

namespace fedsz::lossless {

/// Adaptive probability state for one binary context. 11-bit fixed point:
/// value/2048 is the probability of bit 0.
struct BitProb {
  std::uint16_t value = 1024;  // p(0) = 0.5 initially
};

class RangeEncoder {
 public:
  void encode_bit(BitProb& prob, unsigned bit);
  /// Encode `count` bits of `value` (MSB first) at fixed probability 1/2.
  void encode_direct(std::uint32_t value, unsigned count);
  /// Bit-tree encode: `probs` must hold (1 << count) contexts.
  void encode_tree(std::vector<BitProb>& probs, unsigned count,
                   std::uint32_t value);

  /// Flush and return the byte stream. The encoder is consumed.
  Bytes finish();

 private:
  void shift_low();

  std::uint64_t low_ = 0;
  std::uint32_t range_ = 0xFFFFFFFFu;
  std::uint8_t cache_ = 0;
  std::uint64_t cache_size_ = 1;
  Bytes out_;
};

class RangeDecoder {
 public:
  explicit RangeDecoder(ByteSpan data);

  unsigned decode_bit(BitProb& prob);
  std::uint32_t decode_direct(unsigned count);
  std::uint32_t decode_tree(std::vector<BitProb>& probs, unsigned count);
  /// True once every byte has been read. A well-formed stream ends here
  /// exactly when its last symbol is decoded (see next_byte).
  bool done() const { return pos_ == data_.size(); }

 private:
  std::uint8_t next_byte();
  void normalize();

  ByteSpan data_;
  std::size_t pos_ = 0;
  std::uint32_t range_ = 0xFFFFFFFFu;
  std::uint32_t code_ = 0;
};

}  // namespace fedsz::lossless
