#include "compress/lossless/lz77.hpp"

#include <algorithm>
#include <cstring>

namespace fedsz::lossless {

namespace {

constexpr unsigned kHashBits = 16;
constexpr std::uint32_t kNoPos = 0xFFFFFFFFu;

inline std::uint32_t load32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline std::uint32_t load24(const std::uint8_t* p) {
  // Same value as load32(p) & 0x00FFFFFF on little-endian, without reading
  // the 4th byte: min_match == 3 callers only guarantee 3 readable bytes.
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16);
}

inline std::uint32_t hash_at(const std::uint8_t* p, unsigned min_match) {
  // Hash 3 bytes when min_match == 3, else 4; multiplicative (Knuth) hash.
  const std::uint32_t v = min_match >= 4 ? load32(p) : load24(p);
  return (v * 2654435761u) >> (32 - kHashBits);
}

inline std::uint32_t match_length(const std::uint8_t* a, const std::uint8_t* b,
                                  std::uint32_t limit) {
  std::uint32_t len = 0;
  while (len + 4 <= limit && load32(a + len) == load32(b + len)) len += 4;
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

class MatchFinder {
 public:
  // The hash tables are thread-local and reused across parses: head_ is
  // re-filled with kNoPos (every chain starts empty, so stale prev_ entries
  // are unreachable — a chain only contains positions inserted this parse,
  // and insert() writes prev_[pos] before linking pos into its chain),
  // while prev_ only ever grows. This removes the dominant per-parse
  // allocation without changing any parse decision.
  MatchFinder(ByteSpan data, const LzParams& params)
      : data_(data), params_(params), head_(t_head()), prev_(t_prev()) {
    head_.assign(std::size_t{1} << kHashBits, kNoPos);
    if (prev_.size() < data.size()) prev_.resize(data.size());
  }

  struct Match {
    std::uint32_t len = 0;
    std::uint32_t offset = 0;
  };

  /// Hash-chain slot of position `pos` (0 when fewer than min_match bytes
  /// remain: find() and insert() ignore such positions). The parse hashes
  /// each position once and hands the slot to both find() and insert().
  std::uint32_t hash(std::uint32_t pos) const {
    if (pos + params_.min_match > data_.size()) return 0;
    return hash_at(data_.data() + pos, params_.min_match);
  }

  /// Best match at `pos` (hash slot `h`), or len==0.
  Match find(std::uint32_t pos, std::uint32_t h) const {
    Match best;
    if (pos + params_.min_match > data_.size()) return best;
    const std::uint8_t* base = data_.data();
    const std::uint32_t window = std::uint32_t{1} << params_.window_log;
    const std::uint32_t limit = static_cast<std::uint32_t>(
        std::min<std::size_t>(data_.size() - pos, params_.max_match));
    std::uint32_t candidate = head_[h];
    unsigned chain = params_.max_chain;
    while (candidate != kNoPos && chain-- > 0) {
      if (pos - candidate > window) break;  // chain is ordered by position
      // zlib-style quick reject: a candidate can only beat the current best
      // if it also matches at offset best.len (best.len < limit here — a
      // limit-length match breaks out below — so the loads are in bounds).
      // A rejected candidate's match length is <= best.len, which the full
      // comparison would have discarded anyway: the parse is unchanged.
      if (best.len != 0 && base[candidate + best.len] != base[pos + best.len]) {
        candidate = prev_[candidate];
        continue;
      }
      const std::uint32_t len = match_length(base + candidate, base + pos,
                                             limit);
      if (len >= params_.min_match && len > best.len) {
        best.len = len;
        best.offset = pos - candidate;
        if (len >= limit) break;
      }
      candidate = prev_[candidate];
    }
    return best;
  }

  /// Register position `pos` (hash slot `h`) in the hash chains.
  void insert(std::uint32_t pos, std::uint32_t h) {
    if (pos + params_.min_match > data_.size()) return;
    prev_[pos] = head_[h];
    head_[h] = pos;
  }

 private:
  static std::vector<std::uint32_t>& t_head() {
    static thread_local std::vector<std::uint32_t> head;
    return head;
  }
  static std::vector<std::uint32_t>& t_prev() {
    static thread_local std::vector<std::uint32_t> prev;
    return prev;
  }

  ByteSpan data_;
  const LzParams& params_;
  std::vector<std::uint32_t>& head_;
  std::vector<std::uint32_t>& prev_;
};

}  // namespace

std::vector<LzSequence> lz77_parse(ByteSpan data, const LzParams& params) {
  std::vector<LzSequence> sequences;
  lz77_parse(data, params, sequences);
  return sequences;
}

void lz77_parse(ByteSpan data, const LzParams& params,
                std::vector<LzSequence>& sequences) {
  if (params.min_match < 3)
    throw InvalidArgument("lz77_parse: min_match must be >= 3");
  sequences.clear();
  if (data.empty()) return;

  MatchFinder finder(data, params);
  const std::uint32_t size = static_cast<std::uint32_t>(data.size());
  std::uint32_t pos = 0;
  std::uint32_t literal_start = 0;

  std::uint32_t h = finder.hash(pos);  // always the slot of `pos`
  while (pos < size) {
    MatchFinder::Match match = finder.find(pos, h);
    if (match.len == 0) {
      finder.insert(pos, h);
      const std::uint32_t run = pos - literal_start;  // literals so far
      pos += params.skip_log == 0 ? 1 : 1 + (run >> params.skip_log);
      h = finder.hash(pos);
      continue;
    }
    if (params.lazy && pos + 1 < size) {
      // One-step lazy evaluation: if the next position has a strictly better
      // match, emit this byte as a literal instead.
      const std::uint32_t next_h = finder.hash(pos + 1);
      const MatchFinder::Match next = finder.find(pos + 1, next_h);
      if (next.len > match.len + 1) {
        finder.insert(pos, h);
        ++pos;
        h = next_h;
        match = next;
        // Fall through with pos advanced; re-check lazily only once.
      }
    }
    sequences.push_back(LzSequence{literal_start, pos - literal_start,
                                   match.len, match.offset});
    const std::uint32_t match_end = pos + match.len;
    finder.insert(pos, h);
    while (++pos < match_end) finder.insert(pos, finder.hash(pos));
    h = finder.hash(pos);
    literal_start = pos;
  }
  if (literal_start < size || sequences.empty()) {
    sequences.push_back(LzSequence{literal_start, size - literal_start, 0, 0});
  }
}

Bytes lz77_reconstruct(ByteSpan source_literals,
                       const std::vector<LzSequence>& sequences,
                       std::size_t expected_size) {
  Bytes out;
  out.reserve(expected_size);
  for (const LzSequence& seq : sequences) {
    if (seq.literal_start + seq.literal_len > source_literals.size())
      throw CorruptStream("lz77_reconstruct: literal range out of bounds");
    out.insert(out.end(),
               source_literals.begin() + seq.literal_start,
               source_literals.begin() + seq.literal_start + seq.literal_len);
    if (seq.match_len > 0) {
      if (seq.match_offset == 0 || seq.match_offset > out.size())
        throw CorruptStream("lz77_reconstruct: bad match offset");
      std::size_t from = out.size() - seq.match_offset;
      for (std::uint32_t i = 0; i < seq.match_len; ++i)
        out.push_back(out[from + i]);  // byte-wise: overlapping matches OK
    }
  }
  if (out.size() != expected_size)
    throw CorruptStream("lz77_reconstruct: size mismatch");
  return out;
}

Bytes shuffle_bytes(ByteSpan data, std::size_t element_size) {
  if (element_size == 0 || data.size() % element_size != 0)
    throw InvalidArgument("shuffle_bytes: size not divisible by element size");
  const std::size_t count = data.size() / element_size;
  Bytes out(data.size());
  for (std::size_t j = 0; j < element_size; ++j)
    for (std::size_t i = 0; i < count; ++i)
      out[j * count + i] = data[i * element_size + j];
  return out;
}

Bytes unshuffle_bytes(ByteSpan data, std::size_t element_size) {
  if (element_size == 0 || data.size() % element_size != 0)
    throw InvalidArgument("unshuffle_bytes: size not divisible by element size");
  const std::size_t count = data.size() / element_size;
  Bytes out(data.size());
  for (std::size_t j = 0; j < element_size; ++j)
    for (std::size_t i = 0; i < count; ++i)
      out[i * element_size + j] = data[j * count + i];
  return out;
}

}  // namespace fedsz::lossless
