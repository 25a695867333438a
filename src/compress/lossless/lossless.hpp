// Lossless codec suite. Mirrors the five compressors the paper evaluates for
// the metadata/non-weight partition (Table II): blosc-lz, zlib, zstd, gzip,
// xz. Each is a from-scratch implementation occupying the same design point
// (speed vs ratio) as the original tool:
//
//   blosc-lz  byte-shuffle + LZ4-style fast LZ, no entropy stage   (fastest)
//   zlib      LZ77 + canonical-Huffman token coding (deflate-like)
//   gzip      same deflate-like core at a higher effort setting
//   zstd      LZ77 (large window) + separate Huffman streams
//   xz        LZ77 + adaptive binary range coder (LZMA-like)       (best CR)
//
// All codecs produce self-contained buffers (the original size is embedded)
// and fall back to stored-raw framing when compression does not help, so
// compress() never expands the payload by more than a few header bytes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace fedsz::lossless {

enum class LosslessId : std::uint8_t {
  kBloscLz = 1,
  kZlib = 2,
  kZstd = 3,
  kGzip = 4,
  kXz = 5,
};

class LosslessCodec {
 public:
  virtual ~LosslessCodec() = default;
  virtual LosslessId id() const = 0;
  virtual std::string name() const = 0;
  /// Compress into `out` (contents replaced, capacity reused, so hot
  /// callers can keep one buffer per slot).
  virtual void compress_into(ByteSpan data, Bytes& out) const = 0;
  /// Allocating wrapper around compress_into.
  Bytes compress(ByteSpan data) const {
    Bytes out;
    compress_into(data, out);
    return out;
  }
  virtual Bytes decompress(ByteSpan data) const = 0;
};

/// Registry access. Codecs are stateless singletons owned by the registry;
/// lookups and codec calls are thread-safe, so the chunked FedSZ pipeline
/// shares one instance across all pool workers.
const LosslessCodec& lossless_codec(LosslessId id);
const LosslessCodec& lossless_codec(const std::string& name);
std::vector<const LosslessCodec*> all_lossless_codecs();

/// True when `raw` is a registered LosslessId value (stream validation and
/// randomized-test id sampling).
bool is_lossless_id(std::uint8_t raw);

}  // namespace fedsz::lossless
