// Per-worker reusable encode/decode buffers — the zero-allocation backbone
// of the chunked FedSZ pipeline. Every lossy codec draws its working
// storage (quantizer codes, verbatim floats, reconstruction buffer, block
// tags, body/bit writers) from the calling thread's arena instead of
// allocating fresh vectors per chunk. Buffers are reset — never freed —
// between chunks and rounds, so once they have grown to the working-set
// size of the largest chunk, steady-state encode performs no heap
// allocation at all.
#pragma once

#include <cstdint>
#include <vector>

#include "compress/lossless/huffman.hpp"
#include "util/bitstream.hpp"
#include "util/bytebuffer.hpp"
#include "util/common.hpp"

namespace fedsz::lossy {

struct EncodeArena {
  std::vector<std::uint32_t> codes;  // quantizer codes, one per element
  std::vector<float> verbatim;       // out-of-range values stored exactly
  std::vector<float> recon;          // reconstructed values (SZ3 traversal)
  std::vector<std::uint8_t> tags;    // per-block predictor/block tags
  std::vector<float> coeffs;         // regression coefficient pairs (SZ2)
  ByteWriter body;                   // codec body before the LZ back end
  ByteWriter entropy;                // one entropy-coded sub-stream
  BitWriter bits;                    // bit-packing scratch
  lossless::HuffmanWorkspace huff;   // codebook-construction scratch

  /// The calling thread's arena. Thread-pool-local by construction: each
  /// pool worker owns one for the lifetime of the thread, so concurrent
  /// chunk tasks never contend and capacity persists across rounds.
  static EncodeArena& local();
};

}  // namespace fedsz::lossy
