// Canonical, length-limited Huffman coding over 32-bit symbols.
//
// Used in two places, mirroring the paper's compressor stack:
//  - the SZ2/SZ3 lossy codecs entropy-code their quantization integers with
//    Huffman (Section II-A),
//  - the deflate- and zstd-like lossless codecs entropy-code LZ token streams.
//
// Codes are canonical (assigned by (length, symbol) order) and limited to
// kMaxCodeLength bits so the decoder can walk lengths with bounded state.
//
// Hot-path layout: the encoder keeps a dense table of packed (bit-reversed
// code, length) entries indexed by symbol - min symbol, so emitting a
// symbol is one table load plus one buffered BitWriter::write — not a hash
// lookup and a bit-at-a-time loop. The decoder fronts the canonical walk
// with a root-indexed table over the next kDecodeRootBits stream bits, whose
// entries carry two short codes where both fit, and decodes a block out of
// one 57-bit register window per refill. The encoder counts into four
// sub-histograms and stores whole words into a buffer sized up front. Both
// produce streams byte-identical to the historical bitwise coder.
//
// A codebook carries only the tables its role needs: rebuild_from_* (the
// encoders) builds encoder tables, read_table (the decoders) the decode
// table, and the from_* factories both.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/bitstream.hpp"
#include "util/bytebuffer.hpp"
#include "util/common.hpp"

namespace fedsz::lossless {

struct HuffmanWorkspace;

class HuffmanCodebook {
 public:
  static constexpr unsigned kMaxCodeLength = 16;
  /// Codes no longer than this decode with a single table lookup; longer
  /// ones fall back to the canonical length walk.
  static constexpr unsigned kDecodeRootBits = 12;
  /// Encoder tables are dense over [min, max] symbol, so an encoded
  /// stream's symbols must span fewer than this many values: huffman_count
  /// and the encoder builds throw InvalidArgument beyond it. Every codec
  /// fits: SZ2/SZ3 codes stay below 2 * radius = 2^16, deflate's symbols
  /// end at 284, and zstd's streams are bytes and value codes below 44.
  static constexpr std::uint32_t kDenseSymbolLimit = 1u << 16;

  /// Build from (symbol, count) pairs; counts must be > 0 and symbols
  /// distinct, spanning fewer than kDenseSymbolLimit values (so at most
  /// 65536 distinct symbols, which the 16-bit length limit needs anyway).
  /// Encodes and decodes.
  static HuffmanCodebook from_frequencies(
      const std::vector<std::pair<std::uint32_t, std::uint64_t>>& freqs);

  /// Count symbols then build. Encodes and decodes.
  static HuffmanCodebook from_symbols(std::span<const std::uint32_t> symbols);

  /// In-place encoder rebuilds drawing every construction buffer (frequency
  /// counts, tree nodes, heap, length repair, canonical assignment) from
  /// `ws`, and reusing THIS book's table capacity. Byte-identical codes to
  /// the from_* factories; zero steady-state allocations once the
  /// workspace has grown to the working-set size. Such a book has no root
  /// decode table: decode() on it takes the canonical length walk.
  void rebuild_from_frequencies(
      const std::vector<std::pair<std::uint32_t, std::uint64_t>>& freqs,
      HuffmanWorkspace& ws);
  void rebuild_from_symbols(std::span<const std::uint32_t> symbols,
                            HuffmanWorkspace& ws);

  /// Serialize the (symbol, code length) table.
  void write_table(ByteWriter& out) const;
  /// Parse a serialized table into a decode-only book (encode() and
  /// code_length() treat every symbol as absent). Stream damage throws
  /// CorruptStream.
  static HuffmanCodebook read_table(ByteReader& in);
  /// read_table in place, reusing this book's tables and `ws` scratch.
  void rebuild_from_table(ByteReader& in, HuffmanWorkspace& ws);

  void encode(BitWriter& out, std::uint32_t symbol) const;
  /// Encode a whole block — the dense-table inner loop the codecs use.
  void encode_all(std::span<const std::uint32_t> symbols,
                  BitWriter& out) const;
  std::uint32_t decode(BitReader& in) const;
  /// Decode out.size() symbols — the word-at-a-time loop the codecs use;
  /// the same symbols and CorruptStream behaviour as calling decode() once
  /// per slot.
  void decode_all(BitReader& in, std::span<std::uint32_t> out) const;

  std::size_t distinct_symbols() const { return symbols_.size(); }
  /// Code length in bits for a symbol (0 if the symbol is not in the book).
  unsigned code_length(std::uint32_t symbol) const;

 private:
  /// The canonical assignment: sorts `symbol_lengths` in place and fills
  /// symbols_/count_/first_code_/first_index_, dropping any encoder or
  /// decode table of the previous build.
  void assign_canonical(
      std::vector<std::pair<std::uint32_t, unsigned>>& symbol_lengths);
  void build_encoder_tables();
  void build_decode_table();
  /// Packed (bit_reverse(code, len) << 5 | len) for `symbol`, 0 if absent.
  std::uint32_t find_entry(std::uint32_t symbol) const;
  /// Canonical length walk over the low `avail` bits of `window` (stream
  /// order, LSB first): the symbol, with its code length in `len`. Throws
  /// CorruptStream when no code fits in those bits. When the first `known`
  /// bits (MSB-first value `prefix`) are known to start no shorter code,
  /// the walk resumes after them.
  std::uint32_t walk(std::uint64_t window, unsigned avail, unsigned& len,
                     unsigned known = 0, std::uint32_t prefix = 0) const;

  // Encoder side: packed entries, dense by symbol - enc_base_.
  std::vector<std::uint32_t> enc_dense_;
  std::uint32_t enc_base_ = 0;
  // Decoder side: canonical layout.
  std::vector<std::uint32_t> symbols_;  // sorted by (length, symbol)
  std::array<std::uint32_t, kMaxCodeLength + 1> count_{};       // per length
  std::array<std::uint32_t, kMaxCodeLength + 1> first_code_{};  // per length
  std::array<std::uint32_t, kMaxCodeLength + 1> first_index_{};
  // Root decode table: next root_bits_ stream bits -> the code they start
  // with (symbol, len1), and, when a second whole code follows inside the
  // same bits, that one too (index2, len = both lengths; len == len1 when
  // the entry holds one code). len1 0 marks "no short code here" (long
  // code or corrupt prefix); `symbol` then holds the root bits MSB-first,
  // where the canonical walk resumes.
  struct DecEntry {
    std::uint32_t symbol = 0;
    std::uint16_t index2 = 0;  // the second code's place in symbols_
    std::uint8_t len = 0;      // bits of the entry's codes together
    std::uint8_t len1 = 0;     // bits of the first code alone
  };
  std::vector<DecEntry> dec_table_;
  unsigned root_bits_ = 0;
  unsigned max_len_ = 0;  // longest code length in the book
};

/// Self-contained one-shot encode: table header + symbol count + bitstream.
Bytes huffman_encode(std::span<const std::uint32_t> symbols);
std::vector<std::uint32_t> huffman_decode(ByteSpan data);

/// Reusable codebook-construction scratch: the tree nodes, min-heap,
/// frequency/length vectors, and a persistent codebook whose tables are
/// rebuilt in place. One per encode arena (a codebook build otherwise
/// costs ~10 allocations per chunk, and the chunked pipeline builds one
/// per chunk per round).
struct HuffmanWorkspace {
  struct TreeNode {
    std::uint64_t weight = 0;
    int left = -1;  // node indices, -1 for leaves
    int right = -1;
    std::uint32_t symbol = 0;  // valid for leaves
  };
  std::vector<std::pair<std::uint32_t, std::uint64_t>> freqs;
  std::vector<std::uint32_t> counts;  // 4 dense sub-histograms, [min, max]
  std::vector<unsigned> lengths;
  std::vector<TreeNode> nodes;
  std::vector<std::pair<std::uint64_t, int>> heap;  // (weight, node index)
  std::vector<std::pair<int, unsigned>> stack;      // DFS depth assignment
  std::vector<std::size_t> order;                   // length-limit repair
  std::vector<std::pair<std::uint32_t, unsigned>> symbol_lengths;
  HuffmanCodebook book;
};

/// Arena variants: append the identical encoding to `out` using `bits` as
/// reusable bit-packing scratch / fill a caller-owned symbol buffer. These
/// let steady-state encode/decode run without fresh allocations once the
/// buffers have grown to their working size.
void huffman_encode(std::span<const std::uint32_t> symbols, ByteWriter& out,
                    BitWriter& bits);
/// Fully pooled variant: additionally draws the codebook build from `ws`.
void huffman_encode(std::span<const std::uint32_t> symbols, ByteWriter& out,
                    BitWriter& bits, HuffmanWorkspace& ws);
/// Fills `out`, resized to the stream's symbol count; only slots past its
/// previous size are zero-filled first, and every slot is overwritten. A
/// declared count the payload cannot hold (more than 8 symbols per byte)
/// throws CorruptStream before `out` is resized.
void huffman_decode(ByteSpan data, std::vector<std::uint32_t>& out);

/// Size-first encoding, for callers that choose a framing before packing
/// any bits (the zstd-like backend keeps a raw frame when coding would not
/// shrink it):
///  - huffman_count fills ws.freqs with the (symbol, count) pairs of
///    `symbols` in ascending symbol order (InvalidArgument when they span
///    kDenseSymbolLimit values or more);
///  - huffman_plan builds ws.book from ws.freqs and returns the exact byte
///    count huffman_encode would append for that stream;
///  - huffman_write appends those bytes, reusing the book built by the plan.
void huffman_count(std::span<const std::uint32_t> symbols,
                   HuffmanWorkspace& ws);
std::size_t huffman_plan(HuffmanWorkspace& ws);
void huffman_write(std::span<const std::uint32_t> symbols,
                   const HuffmanWorkspace& ws, ByteWriter& out,
                   BitWriter& bits);

}  // namespace fedsz::lossless
