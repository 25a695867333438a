#include "compress/lossless/huffman.hpp"

#include <algorithm>
#include <limits>
#include <queue>

namespace fedsz::lossless {

namespace {

/// Optimal (unlimited) Huffman code lengths via the classic two-queue/heap
/// construction, then repaired to honor the length limit by a Kraft-sum
/// adjustment (the zlib-style approach: demote overlong codes, then re-pay
/// the Kraft budget greedily). Writes into ws.lengths; every working vector
/// (nodes, heap, DFS stack, repair order) comes from the workspace. The
/// heap mirrors std::priority_queue's push/pop sequence exactly — one
/// push_heap per insert, pop_heap+pop_back per extract — so tie-breaks
/// among equal weights (and therefore tree shapes and emitted bytes) are
/// unchanged from the historical construction.
void huffman_lengths(
    const std::vector<std::pair<std::uint32_t, std::uint64_t>>& freqs,
    unsigned max_len, HuffmanWorkspace& ws) {
  using TreeNode = HuffmanWorkspace::TreeNode;
  const std::size_t n = freqs.size();
  std::vector<unsigned>& lengths = ws.lengths;
  lengths.assign(n, 0);
  if (n == 0) return;
  if (n == 1) {
    lengths[0] = 1;
    return;
  }

  std::vector<TreeNode>& nodes = ws.nodes;
  auto& heap = ws.heap;
  const auto greater = std::greater<>{};
  nodes.clear();
  nodes.reserve(2 * n);
  heap.clear();
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(TreeNode{freqs[i].second, -1, -1, freqs[i].first});
    heap.emplace_back(freqs[i].second, static_cast<int>(i));
    std::push_heap(heap.begin(), heap.end(), greater);
  }
  while (heap.size() > 1) {
    std::pop_heap(heap.begin(), heap.end(), greater);
    const auto [wa, a] = heap.back();
    heap.pop_back();
    std::pop_heap(heap.begin(), heap.end(), greater);
    const auto [wb, b] = heap.back();
    heap.pop_back();
    nodes.push_back(TreeNode{wa + wb, a, b, 0});
    heap.emplace_back(wa + wb, static_cast<int>(nodes.size() - 1));
    std::push_heap(heap.begin(), heap.end(), greater);
  }

  // Depth-first traversal to assign depths to leaves.
  auto& stack = ws.stack;
  stack.clear();
  stack.emplace_back(heap.front().second, 0u);
  while (!stack.empty()) {
    const auto [idx, depth] = stack.back();
    stack.pop_back();
    const TreeNode& node = nodes[idx];
    if (node.left < 0) {
      lengths[static_cast<std::size_t>(idx)] = std::max(1u, depth);
    } else {
      stack.emplace_back(node.left, depth + 1);
      stack.emplace_back(node.right, depth + 1);
    }
  }

  // Length-limit repair. Kraft units: each code of length L costs
  // 2^(max_len - L); the budget is 2^max_len.
  const std::uint64_t budget = std::uint64_t{1} << max_len;
  std::uint64_t kraft = 0;
  for (auto& len : lengths) {
    if (len > max_len) len = max_len;
    kraft += std::uint64_t{1} << (max_len - len);
  }
  if (kraft > budget) {
    // Demote (lengthen) the cheapest-to-demote codes until feasible.
    // Lengthening a code of length L < max_len frees 2^(max_len-L-1) units.
    std::vector<std::size_t>& order = ws.order;
    order.resize(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    // Prefer lengthening already-long codes (smallest Kraft release, but they
    // belong to the rarest symbols, minimizing cost increase).
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return lengths[a] > lengths[b];
    });
    std::size_t cursor = 0;
    while (kraft > budget) {
      const std::size_t i = order[cursor % n];
      ++cursor;
      if (lengths[i] < max_len) {
        kraft -= std::uint64_t{1} << (max_len - lengths[i] - 1);
        ++lengths[i];
      }
    }
  }
}

/// Reverse the low `len` bits of `code`. The historical encoder emitted
/// code bits MSB-first into the LSB-first stream; writing the reversed
/// code with one buffered BitWriter::write produces identical bytes.
std::uint32_t bit_reverse(std::uint32_t code, unsigned len) {
  std::uint32_t rev = 0;
  for (unsigned b = 0; b < len; ++b) rev = (rev << 1) | ((code >> b) & 1u);
  return rev;
}

}  // namespace

void HuffmanCodebook::rebuild_from_frequencies(
    const std::vector<std::pair<std::uint32_t, std::uint64_t>>& freqs,
    HuffmanWorkspace& ws) {
  if (freqs.size() > 65536)
    throw InvalidArgument("HuffmanCodebook: more than 65536 distinct symbols");
  huffman_lengths(freqs, kMaxCodeLength, ws);
  std::vector<std::pair<std::uint32_t, unsigned>>& symbol_lengths =
      ws.symbol_lengths;
  symbol_lengths.clear();
  symbol_lengths.reserve(freqs.size());
  for (std::size_t i = 0; i < freqs.size(); ++i)
    symbol_lengths.emplace_back(freqs[i].first, ws.lengths[i]);
  assign_canonical(symbol_lengths);
  build_encoder_tables();
}

void HuffmanCodebook::rebuild_from_symbols(
    std::span<const std::uint32_t> symbols, HuffmanWorkspace& ws) {
  huffman_count(symbols, ws);
  rebuild_from_frequencies(ws.freqs, ws);
}

HuffmanCodebook HuffmanCodebook::from_frequencies(
    const std::vector<std::pair<std::uint32_t, std::uint64_t>>& freqs) {
  HuffmanWorkspace ws;
  HuffmanCodebook book;
  book.rebuild_from_frequencies(freqs, ws);
  book.build_decode_table();
  return book;
}

HuffmanCodebook HuffmanCodebook::from_symbols(
    std::span<const std::uint32_t> symbols) {
  HuffmanWorkspace ws;
  HuffmanCodebook book;
  book.rebuild_from_symbols(symbols, ws);
  book.build_decode_table();
  return book;
}

void HuffmanCodebook::assign_canonical(
    std::vector<std::pair<std::uint32_t, unsigned>>& symbol_lengths) {
  std::sort(symbol_lengths.begin(), symbol_lengths.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second < b.second;
              return a.first < b.first;
            });
  count_.fill(0);
  symbols_.clear();
  symbols_.reserve(symbol_lengths.size());
  for (const auto& [symbol, length] : symbol_lengths) {
    if (length == 0 || length > kMaxCodeLength)
      throw InvalidArgument("HuffmanCodebook: invalid code length");
    ++count_[length];
    symbols_.push_back(symbol);
  }
  // Canonical first codes per length.
  std::uint32_t code = 0;
  std::uint32_t index = 0;
  std::uint64_t kraft = 0;
  max_len_ = 0;
  for (unsigned len = 1; len <= kMaxCodeLength; ++len) {
    code <<= 1;
    first_code_[len] = code;
    first_index_[len] = index;
    code += count_[len];
    index += count_[len];
    kraft += static_cast<std::uint64_t>(count_[len])
             << (kMaxCodeLength - len);
    if (count_[len] != 0) max_len_ = len;
  }
  if (kraft > (std::uint64_t{1} << kMaxCodeLength))
    throw CorruptStream("HuffmanCodebook: oversubscribed code lengths");
  enc_dense_.clear();
  dec_table_.clear();
  root_bits_ = 0;
}

void HuffmanCodebook::build_encoder_tables() {
  // Packed (bit-reversed code << 5 | length) per symbol. The table spans
  // only [min, max] symbol: SZ quantization codes sit near the radius
  // (32768), so indexing from 0 would zero-fill ~128 KB per build.
  const auto [lo, hi] = std::minmax_element(symbols_.begin(), symbols_.end());
  if (lo == symbols_.end()) return;
  if (*hi - *lo >= kDenseSymbolLimit)
    throw InvalidArgument("HuffmanCodebook: symbols span 2^16 values or more");
  enc_base_ = *lo;
  enc_dense_.assign(static_cast<std::size_t>(*hi - *lo) + 1, 0);
  std::size_t i = 0;
  for (unsigned len = 1; len <= kMaxCodeLength; ++len) {
    for (std::uint32_t k = 0; k < count_[len]; ++k, ++i)
      enc_dense_[symbols_[i] - enc_base_] =
          (bit_reverse(first_code_[len] + k, len) << 5) | len;
  }
}

void HuffmanCodebook::build_decode_table() {
  root_bits_ = 0;
  dec_table_.clear();
  if (max_len_ == 0) return;
  root_bits_ = std::min(max_len_, kDecodeRootBits);
  dec_table_.assign(std::size_t{1} << root_bits_, DecEntry{});
  // A code of length L <= root_bits_ owns every table index whose low L
  // bits equal its bit-reversed value (the next L stream bits). Indices
  // left at len 0 route to the canonical walk: either a longer code's
  // prefix or an invalid pattern.
  std::size_t i = 0;
  for (unsigned len = 1; len <= kMaxCodeLength; ++len) {
    for (std::uint32_t k = 0; k < count_[len]; ++k, ++i) {
      if (len > root_bits_) continue;
      const std::uint32_t rev = bit_reverse(first_code_[len] + k, len);
      for (std::size_t idx = rev; idx < dec_table_.size();
           idx += std::size_t{1} << len) {
        const auto l = static_cast<std::uint8_t>(len);
        dec_table_[idx] = DecEntry{symbols_[i], static_cast<std::uint16_t>(i),
                                   l, l};
      }
    }
  }
  // Pair up: when the bits after an index's first code still hold a whole
  // second code, the entry decodes both. The second code's entry sits at a
  // lower index, so a descending pass reads it before it is paired itself.
  // An index that starts no short code keeps its bits MSB-first instead.
  for (std::size_t idx = dec_table_.size(); idx-- > 0;) {
    DecEntry& e = dec_table_[idx];
    if (e.len1 == 0) {
      e.symbol = bit_reverse(static_cast<std::uint32_t>(idx), root_bits_);
      continue;
    }
    if (e.len1 >= root_bits_) continue;
    const DecEntry& next = dec_table_[idx >> e.len1];
    if (next.len1 == 0 || e.len1 + next.len1 > root_bits_) continue;
    e.index2 = next.index2;
    e.len = static_cast<std::uint8_t>(e.len1 + next.len1);
  }
}

std::uint32_t HuffmanCodebook::find_entry(std::uint32_t symbol) const {
  const std::uint32_t k = symbol - enc_base_;  // wraps below the base
  return k < enc_dense_.size() ? enc_dense_[k] : 0;
}

void HuffmanCodebook::write_table(ByteWriter& out) const {
  out.put_varint(symbols_.size());
  std::size_t i = 0;
  for (unsigned len = 1; len <= kMaxCodeLength; ++len) {
    for (std::uint32_t k = 0; k < count_[len]; ++k, ++i) {
      out.put_varint(symbols_[i]);
      out.put_u8(static_cast<std::uint8_t>(len));
    }
  }
}

HuffmanCodebook HuffmanCodebook::read_table(ByteReader& in) {
  HuffmanWorkspace ws;
  HuffmanCodebook book;
  book.rebuild_from_table(in, ws);
  return book;
}

void HuffmanCodebook::rebuild_from_table(ByteReader& in,
                                         HuffmanWorkspace& ws) {
  const std::uint64_t n = in.get_varint();
  if (n > 65536) throw CorruptStream("HuffmanCodebook: table too large");
  std::vector<std::pair<std::uint32_t, unsigned>>& symbol_lengths =
      ws.symbol_lengths;
  symbol_lengths.clear();
  // Each entry takes at least two bytes, so a short table cannot make the
  // reserve exceed what the stream justifies.
  symbol_lengths.reserve(
      static_cast<std::size_t>(std::min<std::uint64_t>(n, in.remaining() / 2)));
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto symbol = static_cast<std::uint32_t>(in.get_varint());
    const unsigned length = in.get_u8();
    // Stream-originated, so reject here as corruption; assign_canonical's
    // InvalidArgument is reserved for caller bugs.
    if (length == 0 || length > kMaxCodeLength)
      throw CorruptStream("HuffmanCodebook: invalid code length in stream");
    symbol_lengths.emplace_back(symbol, length);
  }
  assign_canonical(symbol_lengths);
  build_decode_table();
}

void HuffmanCodebook::encode(BitWriter& out, std::uint32_t symbol) const {
  const std::uint32_t entry = find_entry(symbol);
  if (entry == 0)
    throw InvalidArgument("HuffmanCodebook: symbol not in codebook");
  out.write(entry >> 5, entry & 31u);
}

void HuffmanCodebook::encode_all(std::span<const std::uint32_t> symbols,
                                 BitWriter& out) const {
  const std::uint32_t* table = enc_dense_.data();
  const std::uint32_t base = enc_base_;
  const auto limit = static_cast<std::uint32_t>(enc_dense_.size());
  const auto entry_of = [&](std::uint32_t s) {
    const std::uint32_t k = s - base;  // wraps below the base
    return k < limit ? table[k] : 0u;
  };
  // Whole-word stores into a buffer sized up front: three codes (at most
  // 48 bits) per flush keep the cursor under 64 bits. The concatenated
  // bits, and so the bytes, are the same as per-code writes.
  BitWriter::WordCursor cursor = out.begin_words(symbols.size() * max_len_);
  const std::size_t n = symbols.size();
  std::size_t i = 0;
  for (; i + 3 <= n; i += 3) {
    const std::uint32_t e0 = entry_of(symbols[i]);
    const std::uint32_t e1 = entry_of(symbols[i + 1]);
    const std::uint32_t e2 = entry_of(symbols[i + 2]);
    if (std::min({e0, e1, e2}) == 0) break;  // the tail loop throws
    cursor.put(e0 >> 5, e0 & 31u);
    cursor.put(e1 >> 5, e1 & 31u);
    cursor.put(e2 >> 5, e2 & 31u);
    cursor.flush();
  }
  for (; i < n; ++i) {
    const std::uint32_t e = entry_of(symbols[i]);
    if (e == 0) {
      out.end_words(cursor);
      throw InvalidArgument("HuffmanCodebook: symbol not in codebook");
    }
    cursor.put(e >> 5, e & 31u);
    cursor.flush();
  }
  out.end_words(cursor);
}

std::uint32_t HuffmanCodebook::walk(std::uint64_t window, unsigned avail,
                                    unsigned& len, unsigned known,
                                    std::uint32_t prefix) const {
  // The canonical bit-by-bit length walk (the historical decoder): the
  // code is read MSB-first, one stream bit per length step, from the first
  // length not yet ruled out.
  std::uint32_t code = prefix;
  const unsigned limit = std::min(avail, kMaxCodeLength);
  for (len = known + 1; len <= limit; ++len) {
    code = (code << 1) | static_cast<std::uint32_t>((window >> (len - 1)) & 1);
    if (count_[len] != 0 && code >= first_code_[len] &&
        code - first_code_[len] < count_[len]) {
      return symbols_[first_index_[len] + (code - first_code_[len])];
    }
  }
  if (limit < kMaxCodeLength)
    throw CorruptStream("HuffmanCodebook: code runs past end of stream");
  throw CorruptStream("HuffmanCodebook: invalid code in stream");
}

std::uint32_t HuffmanCodebook::decode(BitReader& in) const {
  const std::size_t left = in.bits_left();
  if (root_bits_ != 0) {
    const DecEntry e = dec_table_[in.peek(root_bits_)];
    if (e.len1 != 0 && e.len1 <= left) {
      in.skip(e.len1);
      return e.symbol;
    }
  }
  // Long codes, corrupt prefixes, or the zero-padded tail of the buffer.
  const auto avail = static_cast<unsigned>(
      std::min<std::size_t>(left, kMaxCodeLength));
  unsigned len = 0;
  const std::uint32_t symbol = walk(in.peek(avail), avail, len);
  in.skip(len);
  return symbol;
}

void HuffmanCodebook::decode_all(BitReader& in,
                                 std::span<std::uint32_t> out) const {
  // A 57-bit peek always comes from one 8-byte load. While the whole
  // window lies inside the buffer, decode from the register until the next
  // code might not fit in what is left of it, then consume the bits once.
  // Each lookup yields one or two symbols, so the loop stops one slot short
  // of the end: both slots are always written.
  constexpr unsigned kWindow = 57;
  const std::size_t n = out.size();
  std::size_t i = 0;
  if (root_bits_ != 0) {
    const DecEntry* table = dec_table_.data();
    const std::uint32_t* symbols = symbols_.data();
    const std::uint64_t root_mask = (std::uint64_t{1} << root_bits_) - 1;
    const unsigned max_len = max_len_;  // not reloaded after each store
    while (i + 1 < n && in.bits_left() >= kWindow) {
      std::uint64_t window = in.peek(kWindow);
      unsigned used = 0;
      do {
        const DecEntry e = table[window & root_mask];
        unsigned len = e.len;
        if (len != 0) {
          out[i] = e.symbol;
          out[i + 1] = symbols[e.index2];
          i += len == e.len1 ? 1 : 2;
        } else {
          out[i++] = walk(window, kWindow - used, len, root_bits_, e.symbol);
        }
        window >>= len;
        used += len;
      } while (i + 1 < n && used + max_len <= kWindow);
      in.skip(used);
    }
  }
  for (; i < n; ++i) out[i] = decode(in);
}

unsigned HuffmanCodebook::code_length(std::uint32_t symbol) const {
  return find_entry(symbol) & 31u;
}

void huffman_count(std::span<const std::uint32_t> symbols,
                   HuffmanWorkspace& ws) {
  std::vector<std::pair<std::uint32_t, std::uint64_t>>& freqs = ws.freqs;
  freqs.clear();
  if (symbols.empty()) return;
  std::uint32_t lo = symbols[0];
  std::uint32_t hi = symbols[0];
  for (const std::uint32_t s : symbols) {  // branch-free, so it vectorizes
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  if (hi - lo >= HuffmanCodebook::kDenseSymbolLimit)
    throw InvalidArgument("huffman_count: symbols span 2^16 values or more");
  // Dense counting over [lo, hi], then emit in ascending symbol order. Four
  // sub-histograms, one per position mod 4, so a run of equal symbols bumps
  // four counters in turn instead of waiting on one. Each counts at most a
  // quarter of the symbols plus three, so 32 bits hold.
  if (symbols.size() > std::numeric_limits<std::uint32_t>::max())
    throw InvalidArgument("huffman_count: more than 2^32 - 1 symbols");
  const std::size_t span = static_cast<std::size_t>(hi - lo) + 1;
  std::vector<std::uint32_t>& counts = ws.counts;
  counts.assign(4 * span, 0);
  std::uint32_t* c0 = counts.data();
  std::uint32_t* c1 = c0 + span;
  std::uint32_t* c2 = c1 + span;
  std::uint32_t* c3 = c2 + span;
  const std::size_t n = symbols.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    ++c0[symbols[i] - lo];
    ++c1[symbols[i + 1] - lo];
    ++c2[symbols[i + 2] - lo];
    ++c3[symbols[i + 3] - lo];
  }
  for (; i < n; ++i) ++c0[symbols[i] - lo];
  for (std::size_t k = 0; k < span; ++k) {
    const std::uint64_t count = std::uint64_t{c0[k]} + c1[k] + c2[k] + c3[k];
    if (count != 0)
      freqs.emplace_back(lo + static_cast<std::uint32_t>(k), count);
  }
}

std::size_t huffman_plan(HuffmanWorkspace& ws) {
  std::uint64_t count = 0;
  for (const auto& entry : ws.freqs) count += entry.second;
  if (count == 0) return varint_size(0);
  ws.book.rebuild_from_frequencies(ws.freqs, ws);
  // ws.lengths holds each symbol's final code length, in ws.freqs order.
  std::size_t table = varint_size(ws.freqs.size());
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < ws.freqs.size(); ++i) {
    table += varint_size(ws.freqs[i].first) + 1;
    bits += ws.freqs[i].second * ws.lengths[i];
  }
  const auto payload = static_cast<std::size_t>((bits + 7) / 8);
  return varint_size(count) + table + varint_size(payload) + payload;
}

void huffman_write(std::span<const std::uint32_t> symbols,
                   const HuffmanWorkspace& ws, ByteWriter& out,
                   BitWriter& bits) {
  out.put_varint(symbols.size());
  if (symbols.empty()) return;
  ws.book.write_table(out);
  bits.reset();
  ws.book.encode_all(symbols, bits);
  out.put_blob(bits.finish_view());
  bits.reset();
}

void huffman_encode(std::span<const std::uint32_t> symbols, ByteWriter& out,
                    BitWriter& bits, HuffmanWorkspace& ws) {
  if (!symbols.empty()) ws.book.rebuild_from_symbols(symbols, ws);
  huffman_write(symbols, ws, out, bits);
}

void huffman_encode(std::span<const std::uint32_t> symbols, ByteWriter& out,
                    BitWriter& bits) {
  // Callers without an arena still get pooled construction: the workspace
  // (codebook tables included) is thread-local, so steady-state encodes
  // reuse grown capacity exactly like the 4-arg overload.
  static thread_local HuffmanWorkspace ws;
  huffman_encode(symbols, out, bits, ws);
}

Bytes huffman_encode(std::span<const std::uint32_t> symbols) {
  ByteWriter out;
  BitWriter bits;
  huffman_encode(symbols, out, bits);
  return out.finish();
}

void huffman_decode(ByteSpan data, std::vector<std::uint32_t>& out) {
  ByteReader in(data);
  const std::uint64_t count = in.get_varint();
  if (count == 0) {
    out.clear();
    return;
  }
  // Decode tables are rebuilt in place per stream, like the encoder's.
  static thread_local HuffmanWorkspace ws;
  ws.book.rebuild_from_table(in, ws);
  const ByteSpan payload = in.get_blob_view();
  // Every code is at least one bit long.
  if (count > std::uint64_t{8} * payload.size())
    throw CorruptStream("huffman: symbol count exceeds the payload");
  out.resize(static_cast<std::size_t>(count));
  BitReader bits(payload);
  ws.book.decode_all(bits, out);
}

std::vector<std::uint32_t> huffman_decode(ByteSpan data) {
  std::vector<std::uint32_t> symbols;
  huffman_decode(data, symbols);
  return symbols;
}

}  // namespace fedsz::lossless
