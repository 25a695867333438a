// Shared LZ77 match finder. Every lossless codec in the suite is "LZ77 plus a
// different token encoding", exactly as the real blosc-lz / deflate / zstd /
// xz tools are; this module provides the parse they share. Match finding uses
// a hash-head + previous-position chain table; effort is tuned per codec via
// LzParams (chain depth, window size, lazy matching).
#pragma once

#include <cstdint>
#include <vector>

#include "util/common.hpp"

namespace fedsz::lossless {

/// One parsed sequence: a run of literals copied verbatim from the input,
/// followed by a back-reference match. The final sequence of a parse may have
/// match_len == 0 (trailing literals with no match).
struct LzSequence {
  std::uint32_t literal_start = 0;  // offset of the literal run in the input
  std::uint32_t literal_len = 0;
  std::uint32_t match_len = 0;     // 0 => no match (final sequence only)
  std::uint32_t match_offset = 0;  // distance back from the match position
};

struct LzParams {
  unsigned window_log = 16;   // match offsets < 2^window_log
  unsigned min_match = 4;     // shortest usable match
  unsigned max_match = 1 << 16;
  unsigned max_chain = 32;    // candidates examined per position
  bool lazy = false;          // one-step-lazy matching (better, slower)
  // 0 tries (and inserts) every position. k > 0 skips ahead after a miss,
  // as zstd's fast strategies do (their kSearchStrength is 8): the parse
  // advances 1 + (current literal-run length >> k) positions and never
  // inserts the ones it steps over, so long literal runs cost a few probes.
  unsigned skip_log = 0;
};

/// Greedy (optionally lazy, optionally skip-ahead) LZ77 parse of `data`.
std::vector<LzSequence> lz77_parse(ByteSpan data, const LzParams& params);

/// Arena variant: fill a caller-owned (reused) sequence buffer instead of
/// allocating a fresh vector per parse.
void lz77_parse(ByteSpan data, const LzParams& params,
                std::vector<LzSequence>& sequences);

/// Rebuild the original buffer from a parse (used by tests and as the shared
/// back end of codec decoders that materialize sequences).
Bytes lz77_reconstruct(ByteSpan source_literals,
                       const std::vector<LzSequence>& sequences,
                       std::size_t expected_size);

/// Byte-transpose ("shuffle") of fixed-size elements: groups byte 0 of every
/// element, then byte 1, ... Dramatically improves LZ/entropy compression of
/// float arrays whose high bytes are similar — the trick that makes blosc-lz
/// competitive with xz on model metadata (Table II).
Bytes shuffle_bytes(ByteSpan data, std::size_t element_size);
Bytes unshuffle_bytes(ByteSpan data, std::size_t element_size);

}  // namespace fedsz::lossless
