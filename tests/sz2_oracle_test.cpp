// Byte-identity oracle for the SZ2 hot loops. The reference functions below
// are the SZ2 encode/decode loops, the Huffman symbol count, encode_all,
// decode_all and the BitWriter word spill exactly as they stood before
// those loops were rewritten to run across blocks and lanes (predictor
// selection four blocks in lockstep, a branch-free regression quantizer
// and reconstruct, word-wide Huffman I/O). Every case memcmps the library's
// stream, the floats it decodes and the reconstruction its encoder writes
// against the reference's.
//
// Only the loops live here. Code-length construction (the Huffman tree and
// its length-limit repair), the serialized table, ByteWriter/ByteReader and
// the zstd-like back end are shared with the library: the oracle builds the
// library's codebook and reads each symbol's length from it. The back end
// itself entropy-codes with huffman_count/huffman_write/huffman_decode, so
// the Huffman cases below cover it symbol stream by symbol stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <unordered_map>

#include "compress/lossless/huffman.hpp"
#include "compress/lossless/lossless.hpp"
#include "compress/lossy/lossy.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace fedsz {
namespace {

// ---- reference BitWriter: resize-per-word spill, byte-wise stores ----

class RefBitWriter {
 public:
  void write(std::uint64_t bits, unsigned count) {
    if (count < 64) bits &= (std::uint64_t{1} << count) - 1;
    if (acc_bits_ + count < 64) {
      acc_ |= bits << acc_bits_;
      acc_bits_ += count;
      return;
    }
    const unsigned take = 64 - acc_bits_;
    acc_ |= bits << acc_bits_;
    const std::size_t base = out_.size();
    out_.resize(base + 8);
    std::uint64_t word = acc_;
    for (int i = 0; i < 8; ++i) {
      out_[base + i] = static_cast<std::uint8_t>(word);
      word >>= 8;
    }
    acc_ = take >= count ? 0 : bits >> take;
    acc_bits_ = acc_bits_ + count - 64;
  }

  Bytes finish() {
    while (acc_bits_ > 0) {
      out_.push_back(static_cast<std::uint8_t>(acc_));
      acc_ >>= 8;
      acc_bits_ = acc_bits_ > 8 ? acc_bits_ - 8 : 0;
    }
    acc_ = 0;
    return std::move(out_);
  }

 private:
  Bytes out_;
  std::uint64_t acc_ = 0;
  unsigned acc_bits_ = 0;
};

// ---- reference Huffman: count, canonical tables, encode_all, decode_all ----

using Freqs = std::vector<std::pair<std::uint32_t, std::uint64_t>>;

Freqs ref_count(std::span<const std::uint32_t> symbols) {
  Freqs freqs;
  if (symbols.empty()) return freqs;
  std::uint32_t lo = symbols[0];
  std::uint32_t hi = symbols[0];
  for (const std::uint32_t s : symbols) {
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(hi - lo) + 1, 0);
  for (const std::uint32_t s : symbols) ++counts[s - lo];
  for (std::size_t k = 0; k < counts.size(); ++k)
    if (counts[k] != 0)
      freqs.emplace_back(lo + static_cast<std::uint32_t>(k), counts[k]);
  return freqs;
}

std::uint32_t bit_reverse(std::uint32_t code, unsigned len) {
  std::uint32_t rev = 0;
  for (unsigned b = 0; b < len; ++b) rev = (rev << 1) | ((code >> b) & 1u);
  return rev;
}

/// The canonical code of a (symbol, length) table, with the pre-rewrite
/// dense encoder table and one-symbol root decode table.
struct RefBook {
  static constexpr unsigned kMaxLen = 16;
  static constexpr unsigned kRootBits = 11;

  explicit RefBook(std::vector<std::pair<std::uint32_t, unsigned>> lengths) {
    std::sort(lengths.begin(), lengths.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second < b.second;
      return a.first < b.first;
    });
    for (const auto& [symbol, length] : lengths) {
      ++count[length];
      symbols.push_back(symbol);
    }
    std::uint32_t code = 0;
    std::uint32_t index = 0;
    for (unsigned len = 1; len <= kMaxLen; ++len) {
      code <<= 1;
      first_code[len] = code;
      first_index[len] = index;
      code += count[len];
      index += count[len];
      if (count[len] != 0) max_len = len;
    }
    std::size_t i = 0;
    for (unsigned len = 1; len <= kMaxLen; ++len)
      for (std::uint32_t k = 0; k < count[len]; ++k, ++i)
        packed[symbols[i]] = (bit_reverse(first_code[len] + k, len) << 5) | len;
    if (max_len == 0) return;
    root_bits = std::min(max_len, kRootBits);
    dec_table.assign(std::size_t{1} << root_bits, {0, 0});
    i = 0;
    for (unsigned len = 1; len <= kMaxLen; ++len) {
      for (std::uint32_t k = 0; k < count[len]; ++k, ++i) {
        if (len > root_bits) continue;
        const std::uint32_t rev = bit_reverse(first_code[len] + k, len);
        for (std::size_t idx = rev; idx < dec_table.size();
             idx += std::size_t{1} << len)
          dec_table[idx] = {symbols[i], static_cast<std::uint8_t>(len)};
      }
    }
  }

  void encode_all(std::span<const std::uint32_t> in, RefBitWriter& out) const {
    std::uint64_t batch = 0;
    unsigned batch_bits = 0;
    for (const std::uint32_t s : in) {
      const std::uint32_t entry = packed.at(s);
      const unsigned len = entry & 31u;
      if (batch_bits + len > 64) {
        out.write(batch, batch_bits);
        batch = 0;
        batch_bits = 0;
      }
      batch |= static_cast<std::uint64_t>(entry >> 5) << batch_bits;
      batch_bits += len;
    }
    out.write(batch, batch_bits);
  }

  std::uint32_t walk(std::uint64_t window, unsigned avail,
                     unsigned& len) const {
    std::uint32_t code = 0;
    const unsigned limit = std::min(avail, kMaxLen);
    for (len = 1; len <= limit; ++len) {
      code = (code << 1) |
             static_cast<std::uint32_t>((window >> (len - 1)) & 1);
      if (count[len] != 0 && code >= first_code[len] &&
          code - first_code[len] < count[len])
        return symbols[first_index[len] + (code - first_code[len])];
    }
    throw CorruptStream("reference: invalid code");
  }

  std::uint32_t decode(BitReader& in) const {
    const std::size_t left = in.bits_left();
    if (root_bits != 0) {
      const auto& e = dec_table[in.peek(root_bits)];
      if (e.second != 0 && e.second <= left) {
        in.skip(e.second);
        return e.first;
      }
    }
    const auto avail =
        static_cast<unsigned>(std::min<std::size_t>(left, kMaxLen));
    unsigned len = 0;
    const std::uint32_t symbol = walk(in.peek(avail), avail, len);
    in.skip(len);
    return symbol;
  }

  void decode_all(BitReader& in, std::span<std::uint32_t> out) const {
    constexpr unsigned kWindow = 57;
    const std::size_t n = out.size();
    std::size_t i = 0;
    if (root_bits != 0) {
      const std::uint64_t root_mask = (std::uint64_t{1} << root_bits) - 1;
      while (i < n && in.bits_left() >= kWindow) {
        std::uint64_t window = in.peek(kWindow);
        unsigned used = 0;
        do {
          const auto& e = dec_table[window & root_mask];
          unsigned len = e.second;
          const std::uint32_t symbol =
              len != 0 ? e.first : walk(window, kWindow - used, len);
          out[i++] = symbol;
          window >>= len;
          used += len;
        } while (i < n && used + max_len <= kWindow);
        in.skip(used);
      }
    }
    for (; i < n; ++i) out[i] = decode(in);
  }

  std::vector<std::uint32_t> symbols;
  std::array<std::uint32_t, kMaxLen + 1> count{};
  std::array<std::uint32_t, kMaxLen + 1> first_code{};
  std::array<std::uint32_t, kMaxLen + 1> first_index{};
  std::unordered_map<std::uint32_t, std::uint32_t> packed;
  std::vector<std::pair<std::uint32_t, std::uint8_t>> dec_table;
  unsigned root_bits = 0;
  unsigned max_len = 0;
};

/// huffman_encode: count + table + payload, code lengths from the library.
void ref_huffman_encode(std::span<const std::uint32_t> symbols,
                        ByteWriter& out) {
  out.put_varint(symbols.size());
  if (symbols.empty()) return;
  lossless::HuffmanWorkspace ws;
  ws.freqs = ref_count(symbols);
  ws.book.rebuild_from_frequencies(ws.freqs, ws);
  ws.book.write_table(out);
  std::vector<std::pair<std::uint32_t, unsigned>> lengths;
  for (const auto& [symbol, count] : ws.freqs)
    lengths.emplace_back(symbol, ws.book.code_length(symbol));
  RefBitWriter bits;
  RefBook(std::move(lengths)).encode_all(symbols, bits);
  const Bytes payload = bits.finish();
  out.put_blob({payload.data(), payload.size()});
}

std::vector<std::uint32_t> ref_huffman_decode(ByteSpan data) {
  ByteReader in(data);
  const std::uint64_t count = in.get_varint();
  if (count == 0) return {};
  const std::uint64_t n = in.get_varint();
  std::vector<std::pair<std::uint32_t, unsigned>> lengths;
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto symbol = static_cast<std::uint32_t>(in.get_varint());
    lengths.emplace_back(symbol, in.get_u8());
  }
  const RefBook book(std::move(lengths));
  const ByteSpan payload = in.get_blob_view();
  std::vector<std::uint32_t> out(static_cast<std::size_t>(count));
  BitReader bits(payload);
  book.decode_all(bits, out);
  return out;
}

// ---- reference SZ2 ----

constexpr std::size_t kBlockSize = 256;

struct RefQuantizer {
  explicit RefQuantizer(double e) : eps(e) {
    if (!(eps > 0.0)) eps = 1e-300;
    inv_step = 1.0 / (2.0 * eps);
    step = 2.0 * eps;
  }
  std::uint32_t quantize(double residual) const {
    const double scaled = residual * inv_step;
    if (!(std::fabs(scaled) < max_scaled)) return 0;
    const auto truncated = static_cast<std::int64_t>(scaled);
    const double frac = scaled - static_cast<double>(truncated);
    const std::int64_t bin = truncated +
                             static_cast<std::int64_t>(frac >= 0.5) -
                             static_cast<std::int64_t>(frac <= -0.5);
    return static_cast<std::uint32_t>(bin + 32768);
  }
  double reconstruct(std::uint32_t code) const {
    return static_cast<double>(static_cast<std::int64_t>(code) - 32768) * step;
  }
  double eps, inv_step, step;
  double max_scaled = 32767.0;
};

struct Fit {
  float slope = 0.0f;
  float intercept = 0.0f;
};

Fit ref_fit(const float* block, std::size_t n) {
  if (n == 1) return {0.0f, block[0]};
  double sum_x = 0.0, sum_ix = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double xi = block[i];
    sum_x += xi;
    sum_ix += static_cast<double>(i) * xi;
  }
  const double dn = static_cast<double>(n);
  const double sum_i = static_cast<double>(n * (n - 1) / 2);
  const double sum_ii = static_cast<double>((n - 1) * n * (2 * n - 1) / 6);
  const double denom = dn * sum_ii - sum_i * sum_i;
  double slope = denom != 0.0 ? (dn * sum_ix - sum_i * sum_x) / denom : 0.0;
  double intercept = (sum_x - slope * sum_i) / dn;
  return {static_cast<float>(slope), static_cast<float>(intercept)};
}

double ref_lorenzo_cost(const float* block, std::size_t n, float prev) {
  double cost = 0.0;
  float last = prev;
  for (std::size_t i = 0; i < n; ++i) {
    cost += std::fabs(static_cast<double>(block[i]) - last);
    last = block[i];
  }
  return cost;
}

double ref_regression_cost(const float* block, std::size_t n, Fit reg) {
  double cost = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double pred = static_cast<double>(reg.intercept) +
                        static_cast<double>(reg.slope) * static_cast<double>(i);
    cost += std::fabs(static_cast<double>(block[i]) - pred);
  }
  return cost;
}

/// The SZ2 body before the zstd-like back end.
Bytes ref_sz2_body(FloatSpan data, const lossy::ErrorBound& bound) {
  const double eps = bound.mode == lossy::BoundMode::kAbsolute
                         ? bound.value
                         : bound.value * stats::summarize(data).range();
  ByteWriter body;
  body.put_varint(data.size());
  body.put_f64(eps);
  if (data.empty()) return body.finish();
  const RefQuantizer quantizer(eps);
  const std::size_t n_blocks = (data.size() + kBlockSize - 1) / kBlockSize;
  std::vector<std::uint8_t> tags(n_blocks);
  std::vector<Fit> fits(n_blocks);
  std::vector<std::uint32_t> codes(data.size());
  std::vector<float> verbatim;
  for (std::size_t b = 0; b < n_blocks; ++b) {
    const std::size_t begin = b * kBlockSize;
    const std::size_t len = std::min(kBlockSize, data.size() - begin);
    fits[b] = ref_fit(data.data() + begin, len);
    tags[b] = ref_regression_cost(data.data() + begin, len, fits[b]) <
              ref_lorenzo_cost(data.data() + begin, len,
                               b == 0 ? 0.0f : data[begin - 1]);
  }
  float last_reconstructed = 0.0f;
  for (std::size_t b = 0; b < n_blocks; ++b) {
    const std::size_t begin = b * kBlockSize;
    const std::size_t len = std::min(kBlockSize, data.size() - begin);
    const auto slope = static_cast<double>(fits[b].slope);
    const auto intercept = static_cast<double>(fits[b].intercept);
    for (std::size_t i = 0; i < len; ++i) {
      const float x = data[begin + i];
      const double pred = tags[b]
                              ? intercept + slope * static_cast<double>(i)
                              : static_cast<double>(last_reconstructed);
      const std::uint32_t code = quantizer.quantize(static_cast<double>(x) -
                                                    pred);
      codes[begin + i] = code;
      if (code == 0) {
        verbatim.push_back(x);
        last_reconstructed = x;
      } else {
        last_reconstructed =
            static_cast<float>(pred + quantizer.reconstruct(code));
      }
    }
  }
  for (std::size_t b = 0; b < n_blocks; ++b) {
    body.put_u8(tags[b]);
    if (tags[b]) {
      body.put_f32(fits[b].slope);
      body.put_f32(fits[b].intercept);
    }
  }
  ByteWriter entropy;
  ref_huffman_encode(codes, entropy);
  body.put_blob(entropy.view());
  body.put_varint(verbatim.size());
  body.put_bytes(as_bytes({verbatim.data(), verbatim.size()}));
  return body.finish();
}

std::vector<float> ref_sz2_decode(ByteSpan body_bytes) {
  ByteReader r(body_bytes);
  const auto n = static_cast<std::size_t>(r.get_varint());
  const RefQuantizer quantizer(r.get_f64());
  std::vector<float> out(n);
  if (n == 0) return out;
  const std::size_t n_blocks = (n + kBlockSize - 1) / kBlockSize;
  std::vector<std::uint8_t> tags(n_blocks);
  std::vector<Fit> fits(n_blocks);
  for (std::size_t b = 0; b < n_blocks; ++b) {
    tags[b] = r.get_u8();
    if (tags[b]) {
      fits[b].slope = r.get_f32();
      fits[b].intercept = r.get_f32();
    }
  }
  const std::vector<std::uint32_t> codes =
      ref_huffman_decode(r.get_blob_view());
  const auto n_verbatim = static_cast<std::size_t>(r.get_varint());
  std::vector<float> verbatim(n_verbatim);
  const ByteSpan raw = r.get_bytes(n_verbatim * sizeof(float));
  if (n_verbatim > 0) std::memcpy(verbatim.data(), raw.data(), raw.size());
  std::size_t v = 0;
  float last_reconstructed = 0.0f;
  for (std::size_t b = 0; b < n_blocks; ++b) {
    const std::size_t begin = b * kBlockSize;
    const std::size_t len = std::min(kBlockSize, n - begin);
    const auto slope = static_cast<double>(fits[b].slope);
    const auto intercept = static_cast<double>(fits[b].intercept);
    for (std::size_t i = 0; i < len; ++i) {
      const std::uint32_t code = codes[begin + i];
      float value;
      if (code == 0) {
        value = verbatim.at(v++);
      } else {
        const double pred = tags[b]
                                ? intercept + slope * static_cast<double>(i)
                                : static_cast<double>(last_reconstructed);
        value = static_cast<float>(pred + quantizer.reconstruct(code));
      }
      out[begin + i] = value;
      last_reconstructed = value;
    }
  }
  return out;
}

// ---- the cases ----

struct Sz2Case {
  std::string name;
  std::vector<float> data;
  lossy::ErrorBound bound;
};

/// +1,-1,-1,+1 repeated: sums to 0 against both 1 and i over any multiple
/// of four, so adding it to a line leaves the block's least-squares fit
/// exactly on the line and every regression residual exactly +-amplitude.
float symmetric_sign(std::size_t i) {
  const std::size_t k = i % 4;
  return k == 0 || k == 3 ? 1.0f : -1.0f;
}

std::vector<Sz2Case> sz2_cases() {
  Rng rng(2312);
  std::vector<Sz2Case> cases;
  const std::size_t fixed_lengths[] = {1, 2, 255, 256, 257, 1023, 1024, 65536};
  const auto length = [&](std::size_t k) {
    return k < std::size(fixed_lengths) ? fixed_lengths[k]
                                        : 1 + rng.uniform_index(5000);
  };
  const auto rel = [](double v) { return lossy::ErrorBound::relative(v); };
  const auto abs = [](double v) { return lossy::ErrorBound::absolute(v); };
  for (std::size_t k = 0; k < 16; ++k) {
    const std::size_t n = length(k);
    const std::string suffix = " n=" + std::to_string(n);
    std::vector<float> gauss(n), walk(n), mixed(n), spikes(n);
    double level = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      gauss[i] = static_cast<float>(rng.normal(0.0, 0.05));
      level += rng.normal(0.0, 0.01);
      walk[i] = static_cast<float>(level);
      // Alternate blocks: a noisy line (regression wins) then a walk
      // (Lorenzo wins), so regression blocks hand their last value on.
      mixed[i] = (i / kBlockSize) % 2 == 0
                     ? static_cast<float>(0.001 * static_cast<double>(i) +
                                          rng.normal(0.0, 1e-4))
                     : static_cast<float>(level);
      spikes[i] = rng.uniform() < 0.02
                      ? static_cast<float>(rng.uniform(-50.0, 50.0))
                      : static_cast<float>(rng.normal(0.0, 0.01));
    }
    for (const double b : {1e-1, 1e-2, 1e-3, 1e-4}) {
      const std::string tag = " rel=" + std::to_string(b) + suffix;
      cases.push_back({"gauss" + tag, gauss, rel(b)});
      cases.push_back({"walk" + tag, walk, rel(b)});
      cases.push_back({"mixed" + tag, mixed, rel(b)});
      cases.push_back({"spikes" + tag, spikes, rel(b)});
    }
    cases.push_back({"spikes abs=1e-3" + suffix, spikes, abs(1e-3)});
    cases.push_back({"gauss abs=1e-9" + suffix, gauss, abs(1e-9)});
    cases.push_back({"constant" + suffix, std::vector<float>(n, 0.75f),
                     rel(1e-2)});
    cases.push_back({"zeros" + suffix, std::vector<float>(n, 0.0f), rel(1e-2)});
    std::vector<float> signed_zeros(n);
    for (std::size_t i = 0; i < n; ++i)
      signed_zeros[i] = rng.uniform() < 0.5 ? -0.0f : 0.0f;
    cases.push_back({"signed zeros" + suffix, signed_zeros, rel(1e-2)});
    cases.push_back({"negative zeros" + suffix, std::vector<float>(n, -0.0f),
                     rel(1e-2)});
    // Residuals exactly on +-0.5-bin ties: step 1, a line plus +-0.5 and
    // +-(k + 0.5) under the symmetric signs, and half-integer walks.
    std::vector<float> tie_line(n), tie_far(n), tie_walk(n);
    double half_walk = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double line = 1.0 + 0.25 * static_cast<double>(i % kBlockSize);
      tie_line[i] = static_cast<float>(line + 0.5 * symmetric_sign(i));
      tie_far[i] = static_cast<float>(line + 7.5 * symmetric_sign(i));
      half_walk += 0.5 * static_cast<double>(rng.uniform_index(9)) - 2.0;
      tie_walk[i] = static_cast<float>(half_walk);
    }
    cases.push_back({"tie line" + suffix, tie_line, abs(0.5)});
    cases.push_back({"tie far" + suffix, tie_far, abs(0.5)});
    cases.push_back({"tie walk" + suffix, tie_walk, abs(0.5)});
    cases.push_back({"tie walk fine" + suffix, tie_walk, abs(0.125)});
    // Regression residuals at (radius - 1) bins and 1 ulp either side:
    // step 2^-10, amplitude 32767 * 2^-10 under the symmetric signs.
    const float edge = 32767.0f / 1024.0f;
    for (const float amplitude :
         {edge, std::nextafter(edge, 0.0f), std::nextafter(edge, 64.0f)}) {
      std::vector<float> radius_edge(n);
      for (std::size_t i = 0; i < n; ++i)
        radius_edge[i] = amplitude * symmetric_sign(i);
      cases.push_back({"radius edge " + std::to_string(amplitude) + suffix,
                       radius_edge, abs(1.0 / 2048.0)});
    }
  }
  return cases;
}

const lossy::LossyCodec& sz2() {
  return lossy::lossy_codec(lossy::LossyId::kSz2);
}

const lossless::LosslessCodec& backend() {
  return lossless::lossless_codec(lossless::LosslessId::kZstd);
}

bool same_bytes(const Bytes& a, const Bytes& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

bool same_floats(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

TEST(Sz2Oracle, StreamsAndDecodedFloatsMatchTheReferenceLoops) {
  const std::vector<Sz2Case> cases = sz2_cases();
  ASSERT_GE(cases.size(), 300u);
  std::size_t verbatim_cases = 0, regression_cases = 0, lorenzo_cases = 0;
  for (const Sz2Case& c : cases) {
    const FloatSpan data{c.data.data(), c.data.size()};
    const Bytes stream = sz2().compress(data, c.bound);
    const Bytes body = backend().decompress({stream.data(), stream.size()});
    const Bytes ref_body = ref_sz2_body(data, c.bound);
    ASSERT_TRUE(same_bytes(body, ref_body)) << c.name;
    const Bytes ref_stream =
        backend().compress({ref_body.data(), ref_body.size()});
    ASSERT_TRUE(same_bytes(stream, ref_stream)) << c.name;

    const std::vector<float> decoded =
        sz2().decompress({stream.data(), stream.size()});
    ASSERT_TRUE(
        same_floats(decoded, ref_sz2_decode({body.data(), body.size()})))
        << c.name;
    std::vector<float> into(c.data.size(), -1.0f);
    sz2().decompress_into({stream.data(), stream.size()},
                          {into.data(), into.size()});
    ASSERT_TRUE(same_floats(into, decoded)) << c.name;

    // The encoder's own reconstruction is the oracle's decode too, and
    // asking for it moves no stream byte.
    std::vector<float> recon(c.data.size(), -1.0f);
    Bytes with_recon;
    sz2().compress_into(data, c.bound, with_recon,
                        {recon.data(), recon.size()});
    ASSERT_TRUE(same_bytes(with_recon, stream)) << c.name;
    ASSERT_TRUE(same_floats(recon, decoded)) << c.name;

    // Census of what the case exercised, read from the body.
    ByteReader r({body.data(), body.size()});
    const auto n = static_cast<std::size_t>(r.get_varint());
    (void)r.get_f64();
    if (n == 0) continue;
    bool any_regression = false, any_lorenzo = false;
    for (std::size_t b = 0; b < (n + kBlockSize - 1) / kBlockSize; ++b) {
      if (r.get_u8() != 0) {
        any_regression = true;
        (void)r.get_f32();
        (void)r.get_f32();
      } else {
        any_lorenzo = true;
      }
    }
    (void)r.get_blob_view();
    verbatim_cases += r.get_varint() > 0;
    regression_cases += any_regression;
    lorenzo_cases += any_lorenzo;
  }
  EXPECT_GT(verbatim_cases, 50u);
  EXPECT_GT(regression_cases, 100u);
  EXPECT_GT(lorenzo_cases, 100u);
}

std::vector<std::vector<std::uint32_t>> huffman_cases() {
  Rng rng(1312);
  std::vector<std::vector<std::uint32_t>> cases;
  cases.push_back({});
  cases.push_back({7});
  cases.push_back(std::vector<std::uint32_t>(1000, 32768));  // 1 symbol
  for (const std::size_t n : {2u, 3u, 1000u}) {               // 2 symbols
    std::vector<std::uint32_t> two(n);
    for (auto& s : two)
      s = 32768 + static_cast<std::uint32_t>(rng.uniform_index(2));
    cases.push_back(two);
  }
  // All 65536 symbols, each at least once, then skewed repeats.
  std::vector<std::uint32_t> full(65536);
  for (std::uint32_t s = 0; s < 65536; ++s) full[s] = s;
  for (int i = 0; i < 200000; ++i)
    full.push_back(32768 + static_cast<std::uint32_t>(std::countr_zero(
                               rng.next_u64() | (std::uint64_t{1} << 15))));
  cases.push_back(full);
  // Fibonacci counts: the unlimited tree runs past 16 bits, so the length
  // limit binds and the longest codes sit exactly at 16.
  std::vector<std::uint32_t> fib;
  std::uint64_t a = 1, b = 1;
  for (std::uint32_t s = 0; s < 26; ++s) {
    for (std::uint64_t k = 0; k < a; ++k) fib.push_back(s);
    const std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  cases.push_back(fib);
  // The draws of a stream spanning ~200000 symbols, which the encoder
  // rejects (Huffman.SymbolSpanOfTwoToTheSixteenThrows): kept so every
  // case below draws the same values.
  for (int i = 0; i < 5000; ++i)
    (void)(rng.uniform() < 0.5 ? rng.uniform_index(50) : rng.uniform_index(30));
  // Quantization-code and geometric streams of many lengths.
  for (int trial = 0; trial < 120; ++trial) {
    std::vector<std::uint32_t> s(
        1 + rng.uniform_index(trial % 3 ? 3000 : 70000));
    const std::uint32_t spread =
        1 + static_cast<std::uint32_t>(rng.uniform_index(trial % 2 ? 9 : 400));
    for (auto& x : s) {
      x = trial % 4 == 3
              ? static_cast<std::uint32_t>(std::countr_zero(
                    rng.next_u64() | (std::uint64_t{1} << 24)))
              : 32768 + static_cast<std::uint32_t>(
                            std::lround(rng.normal(0.0, spread)));
    }
    cases.push_back(s);
  }
  return cases;
}

TEST(Sz2Oracle, HuffmanCountWriteAndDecodeMatchTheReferenceLoops) {
  lossless::HuffmanWorkspace ws;
  ByteWriter out;
  BitWriter bits;
  std::vector<std::uint32_t> decoded;
  for (const std::vector<std::uint32_t>& symbols : huffman_cases()) {
    const std::string name = "n=" + std::to_string(symbols.size());
    lossless::huffman_count(symbols, ws);
    ASSERT_EQ(ws.freqs, ref_count(symbols)) << name;

    ByteWriter ref;
    ref_huffman_encode(symbols, ref);
    const ByteSpan ref_view = ref.view();
    const Bytes ref_bytes(ref_view.begin(), ref_view.end());
    (void)lossless::huffman_plan(ws);
    out.reset();
    lossless::huffman_write(symbols, ws, out, bits);
    const ByteSpan view = out.view();
    ASSERT_TRUE(same_bytes(Bytes(view.begin(), view.end()), ref_bytes)) << name;
    ASSERT_TRUE(same_bytes(lossless::huffman_encode(symbols), ref_bytes))
        << name;

    lossless::huffman_decode({ref_bytes.data(), ref_bytes.size()}, decoded);
    ASSERT_EQ(decoded, ref_huffman_decode({ref_bytes.data(), ref_bytes.size()}))
        << name;
    ASSERT_EQ(decoded, symbols) << name;
  }
}

TEST(Sz2Oracle, BitWriterMatchesTheReferenceSpill) {
  // Mixed widths 0..64 across many word boundaries, after a reset that
  // keeps capacity, and once more through finish().
  Rng rng(77);
  BitWriter w;
  for (int trial = 0; trial < 40; ++trial) {
    RefBitWriter ref;
    w.reset();
    const std::size_t writes = 1 + rng.uniform_index(trial % 2 ? 20 : 5000);
    for (std::size_t i = 0; i < writes; ++i) {
      const auto count = static_cast<unsigned>(rng.uniform_index(65));
      const std::uint64_t value = rng.next_u64();
      ref.write(value, count);
      w.write(value, count);
    }
    const ByteSpan view = w.finish_view();
    ASSERT_TRUE(same_bytes(Bytes(view.begin(), view.end()), ref.finish()))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace fedsz
