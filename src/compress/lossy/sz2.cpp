// SZ2 analogue (prediction-based model, Liang et al. 2018): the array is cut
// into fixed blocks; each block selects between a Lorenzo predictor (previous
// reconstructed value) and a per-block linear regression (stored as two f32
// coefficients); prediction residuals are quantized into error-bounded bins,
// entropy-coded with canonical Huffman, and the whole body is passed through
// the LZ back end — the SZ2 pipeline of Section II-A. Out-of-range residuals
// are stored verbatim (exact), preserving the hard error bound.
//
// Encode runs as contiguous passes — predictor selection over every block,
// then a quantize sweep with per-predictor inner loops — and draws all
// working buffers from the thread's EncodeArena, so steady-state encode
// allocates nothing. On request the quantize sweep also writes the
// reconstruction, the floats decode will return: regression blocks store
// it next to each code in quantize_line's loop (and the verbatim scan
// overwrites an out-of-range element with its input), Lorenzo blocks the
// value they carry. No block is visited twice.
//
// Order contract. Every stream byte and decoded float is the same as the
// plain per-element loops give (tests/sz2_oracle_test.cpp holds those loops
// and compares). The loops below reorder work only across independent
// blocks or elements, never within a sum:
//  - Selection runs kLanes full blocks in lockstep, one block per lane;
//    each block's fit sums, Lorenzo cost and regression cost are still
//    sequential double sums in index order. Partial blocks (and the full
//    blocks left over after the last group of kLanes) take the per-block
//    loop.
//  - Regression blocks quantize and reconstruct each element on its own,
//    with no branch (LinearQuantizer::quantize_line/reconstruct_line): an
//    out-of-range residual becomes a too-large code, and a scan that runs
//    only when a block's largest code says so turns it into kUnpredictable
//    plus a verbatim value, in element order. The value a regression block
//    hands to the next block is recomputed from its last element alone.
//    Lorenzo blocks keep the scalar recurrence.
//
// Rounding identity. t + int32(2 * (scaled - t)), with t = int32(scaled),
// is the quantizer's round-half-away llround(scaled) for every in-range
// scaled residual; quantizer.cpp gives the argument and keeps every
// double->int conversion inside int32.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "compress/lossless/huffman.hpp"
#include "compress/lossless/lossless.hpp"
#include "compress/lossy/arena.hpp"
#include "compress/lossy/lossy.hpp"
#include "compress/lossy/quantizer.hpp"
#include "util/bytebuffer.hpp"

namespace fedsz::lossy {

namespace {

constexpr std::size_t kBlockSize = 256;
constexpr std::size_t kLanes = 4;  // blocks per lockstep selection group
constexpr std::uint8_t kPredictorLorenzo = 0;
constexpr std::uint8_t kPredictorRegression = 1;

/// double(i) for every in-block index. The vector loops read the index as a
/// double from here: GCC 12 does not vectorize a size_t->double conversion.
constexpr std::array<double, kBlockSize> kIndex = [] {
  std::array<double, kBlockSize> index{};
  for (std::size_t i = 0; i < kBlockSize; ++i)
    index[i] = static_cast<double>(i);
  return index;
}();

struct Regression {
  float slope = 0.0f;
  float intercept = 0.0f;
};

/// Least-squares line through (i, x[i]) over a block of n > 1 elements,
/// from its two data sums. The index sums are closed-form: for
/// n <= kBlockSize they are exact integers in double.
Regression fit_from_sums(std::size_t n, double sum_x, double sum_ix) {
  const double dn = static_cast<double>(n);
  const double sum_i = static_cast<double>(n * (n - 1) / 2);
  const double sum_ii = static_cast<double>((n - 1) * n * (2 * n - 1) / 6);
  const double denom = dn * sum_ii - sum_i * sum_i;
  double slope = denom != 0.0 ? (dn * sum_ix - sum_i * sum_x) / denom : 0.0;
  double intercept = (sum_x - slope * sum_i) / dn;
  return {static_cast<float>(slope), static_cast<float>(intercept)};
}

double line_at(const Regression& reg, std::size_t i) {
  return static_cast<double>(reg.intercept) +
         static_cast<double>(reg.slope) * kIndex[i];
}

/// Predictor choice for one block (any length), with `prev` the element
/// before it (0 for the first block). Regression wins when its estimated
/// absolute error is strictly below Lorenzo's over the original data.
bool select_block(FloatSpan block, float prev, Regression& reg) {
  const std::size_t n = block.size();
  if (n == 1) {
    reg = {0.0f, block[0]};
  } else {
    double sum_x = 0.0, sum_ix = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double xi = block[i];
      sum_x += xi;
      sum_ix += kIndex[i] * xi;
    }
    reg = fit_from_sums(n, sum_x, sum_ix);
  }
  double regression_cost = 0.0, lorenzo_cost = 0.0;
  float last = prev;
  for (std::size_t i = 0; i < n; ++i) {
    const double xi = block[i];
    regression_cost += std::fabs(xi - line_at(reg, i));
    lorenzo_cost += std::fabs(xi - last);
    last = block[i];
  }
  return regression_cost < lorenzo_cost;
}

/// select_block for kLanes consecutive full blocks starting at `x`, one
/// block per lane, so the per-block sums advance side by side.
void select_full_blocks(const float* x, float prev, std::uint8_t* tags,
                        float* coeffs) {
  double sum_x[kLanes] = {}, sum_ix[kLanes] = {}, lorenzo[kLanes] = {};
  for (std::size_t l = 0; l < kLanes; ++l) {
    const float before = l == 0 ? prev : x[l * kBlockSize - 1];
    const double x0 = x[l * kBlockSize];
    sum_x[l] += x0;  // from +0, as the per-block loop: -0.0 + 0.0 is +0
    sum_ix[l] += kIndex[0] * x0;
    lorenzo[l] += std::fabs(x0 - before);
  }
  for (std::size_t i = 1; i < kBlockSize; ++i) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      const float* block = x + l * kBlockSize;
      const double xi = block[i];
      sum_x[l] += xi;
      sum_ix[l] += kIndex[i] * xi;
      lorenzo[l] += std::fabs(xi - block[i - 1]);
    }
  }
  double slope[kLanes], intercept[kLanes], regression[kLanes] = {};
  for (std::size_t l = 0; l < kLanes; ++l) {
    const Regression reg = fit_from_sums(kBlockSize, sum_x[l], sum_ix[l]);
    coeffs[2 * l] = reg.slope;
    coeffs[2 * l + 1] = reg.intercept;
    slope[l] = reg.slope;
    intercept[l] = reg.intercept;
  }
  for (std::size_t i = 0; i < kBlockSize; ++i) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      const double pred = intercept[l] + slope[l] * kIndex[i];
      regression[l] += std::fabs(static_cast<double>(x[l * kBlockSize + i]) -
                                 pred);
    }
  }
  for (std::size_t l = 0; l < kLanes; ++l)
    tags[l] = regression[l] < lorenzo[l] ? kPredictorRegression
                                         : kPredictorLorenzo;
}

class Sz2Codec final : public LossyCodec {
 public:
  LossyId id() const override { return LossyId::kSz2; }
  std::string name() const override { return "sz2"; }
  bool strictly_bounded() const override { return true; }

 private:
  void encode(FloatSpan data, const ErrorBound& bound, Bytes& out,
              std::span<float> reconstruction) const override {
    require_finite(data, name());
    const double eps = bound.absolute_for(data);
    EncodeArena& arena = EncodeArena::local();
    const lossless::LosslessCodec& backend =
        lossless::lossless_codec(lossless::LosslessId::kZstd);

    ByteWriter& body = arena.body;
    body.reset();
    body.put_varint(data.size());
    body.put_f64(eps);
    if (data.empty()) {
      backend.compress_into(body.view(), out);
      return;
    }

    const LinearQuantizer quantizer(eps);
    const std::size_t n = data.size();
    const std::size_t n_blocks = (n + kBlockSize - 1) / kBlockSize;

    arena.tags.resize(n_blocks);
    arena.coeffs.resize(2 * n_blocks);  // (slope, intercept) per block
    arena.codes.resize(n);
    arena.verbatim.clear();

    // Pass 1: predictor selection per block. Costs depend only on the
    // original data, so this pass is independent of reconstruction state.
    const std::size_t n_grouped = n / kBlockSize / kLanes * kLanes;
    for (std::size_t b = 0; b < n_grouped; b += kLanes) {
      const std::size_t begin = b * kBlockSize;
      select_full_blocks(data.data() + begin,
                         b == 0 ? 0.0f : data[begin - 1], &arena.tags[b],
                         &arena.coeffs[2 * b]);
    }
    for (std::size_t b = n_grouped; b < n_blocks; ++b) {
      const std::size_t begin = b * kBlockSize;
      const std::size_t len = std::min(kBlockSize, n - begin);
      Regression reg;
      arena.tags[b] = select_block(data.subspan(begin, len),
                                   b == 0 ? 0.0f : data[begin - 1], reg)
                          ? kPredictorRegression
                          : kPredictorLorenzo;
      arena.coeffs[2 * b] = reg.slope;
      arena.coeffs[2 * b + 1] = reg.intercept;
    }

    // Pass 2: quantize block by block. Regression blocks quantize as one
    // branch-free line (quantize_line scans for verbatim values only when
    // one was out of range) and carry only their last element's
    // reconstruction; Lorenzo blocks run the scalar recurrence. A wanted
    // reconstruction is stored as each value is decided: quantize_line
    // writes it next to each code, Lorenzo blocks store the value they
    // carry.
    std::uint32_t* codes = arena.codes.data();
    float* recon = reconstruction.empty() ? nullptr : reconstruction.data();
    float last_reconstructed = 0.0f;
    for (std::size_t b = 0; b < n_blocks; ++b) {
      const std::size_t begin = b * kBlockSize;
      const std::size_t len = std::min(kBlockSize, n - begin);
      const float* block = data.data() + begin;
      std::uint32_t* block_codes = codes + begin;
      float* block_recon = recon != nullptr ? recon + begin : nullptr;
      if (arena.tags[b] == kPredictorRegression) {
        const Regression reg{arena.coeffs[2 * b], arena.coeffs[2 * b + 1]};
        quantizer.quantize_line({block, len}, kIndex.data(), reg.intercept,
                                reg.slope, block_codes, arena.verbatim,
                                block_recon);
        const std::uint32_t last = block_codes[len - 1];
        last_reconstructed =
            last == LinearQuantizer::kUnpredictable
                ? block[len - 1]
                : static_cast<float>(line_at(reg, len - 1) +
                                     quantizer.reconstruct(last));
      } else {
        for (std::size_t i = 0; i < len; ++i) {
          const double pred = static_cast<double>(last_reconstructed);
          const double residual = static_cast<double>(block[i]) - pred;
          const std::uint32_t code = quantizer.quantize(residual);
          block_codes[i] = code;
          if (code == LinearQuantizer::kUnpredictable) {
            arena.verbatim.push_back(block[i]);
            last_reconstructed = block[i];
          } else {
            last_reconstructed =
                static_cast<float>(pred + quantizer.reconstruct(code));
          }
          if (block_recon != nullptr) block_recon[i] = last_reconstructed;
        }
      }
    }

    for (std::size_t b = 0; b < n_blocks; ++b) {
      body.put_u8(arena.tags[b]);
      if (arena.tags[b] == kPredictorRegression) {
        body.put_f32(arena.coeffs[2 * b]);
        body.put_f32(arena.coeffs[2 * b + 1]);
      }
    }
    arena.entropy.reset();
    lossless::huffman_encode(arena.codes, arena.entropy, arena.bits,
                             arena.huff);
    body.put_blob(arena.entropy.view());
    body.put_varint(arena.verbatim.size());
    body.put_bytes(as_bytes({arena.verbatim.data(), arena.verbatim.size()}));

    backend.compress_into(body.view(), out);
  }

  void decode(ByteSpan stream, const DecodeTarget& target) const override {
    const Bytes body = lossless::lossless_codec(lossless::LosslessId::kZstd)
                           .decompress(stream);
    ByteReader r({body.data(), body.size()});
    const auto n = static_cast<std::size_t>(r.get_varint());
    const double eps = r.get_f64();
    if (n == 0) {
      if (!r.done()) throw CorruptStream("sz2: trailing bytes");
      target.claim(0, "sz2");
      return;
    }

    // Every block carries at least its tag byte, so a corrupt element
    // count is rejected before it can size the block tables.
    if (n > kBlockSize * r.remaining())
      throw CorruptStream("sz2: element count exceeds stream");
    const LinearQuantizer quantizer(eps);
    EncodeArena& arena = EncodeArena::local();
    const std::size_t n_blocks = (n + kBlockSize - 1) / kBlockSize;
    arena.tags.resize(n_blocks);
    arena.coeffs.resize(2 * n_blocks);
    for (std::size_t b = 0; b < n_blocks; ++b) {
      arena.tags[b] = r.get_u8();
      if (arena.tags[b] == kPredictorRegression) {
        arena.coeffs[2 * b] = r.get_f32();
        arena.coeffs[2 * b + 1] = r.get_f32();
      } else if (arena.tags[b] != kPredictorLorenzo) {
        throw CorruptStream("sz2: unknown predictor tag");
      }
    }
    const ByteSpan huffman = r.get_blob_view();
    lossless::huffman_decode(huffman, arena.codes);
    if (arena.codes.size() != n)
      throw CorruptStream("sz2: code count mismatch");
    // Every code is validated here, and the verbatim values counted, so
    // the loops below neither range-check nor bound the verbatim cursor.
    const std::size_t n_unpredictable =
        quantizer.count_unpredictable(arena.codes, "sz2");
    const auto n_verbatim = static_cast<std::size_t>(r.get_varint());
    // Guard the multiply below: a corrupt count can wrap n_verbatim * 4 to
    // a small value and request an absurd allocation.
    if (n_verbatim > r.remaining() / sizeof(float))
      throw CorruptStream("sz2: verbatim count exceeds stream");
    ByteSpan raw = r.get_bytes(n_verbatim * sizeof(float));
    if (!r.done()) throw CorruptStream("sz2: trailing bytes");
    if (n_verbatim != n_unpredictable)
      throw CorruptStream("sz2: verbatim count differs from the "
                          "unpredictable codes");
    arena.verbatim.resize(n_verbatim);
    if (n_verbatim > 0)
      std::memcpy(arena.verbatim.data(), raw.data(), raw.size());

    float* values = target.claim(n, "sz2").data();
    const std::uint32_t* codes = arena.codes.data();
    const float* verbatim = arena.verbatim.data();
    std::size_t v = 0;
    float last_reconstructed = 0.0f;
    for (std::size_t b = 0; b < n_blocks; ++b) {
      const std::size_t begin = b * kBlockSize;
      const std::size_t len = std::min(kBlockSize, n - begin);
      const std::uint32_t* block_codes = codes + begin;
      float* block = values + begin;
      if (arena.tags[b] == kPredictorRegression) {
        const Regression reg{arena.coeffs[2 * b], arena.coeffs[2 * b + 1]};
        quantizer.reconstruct_line({block_codes, len}, kIndex.data(),
                                   reg.intercept, reg.slope, block);
        if (v < n_verbatim) {
          for (std::size_t i = 0; i < len; ++i)
            if (block_codes[i] == LinearQuantizer::kUnpredictable)
              block[i] = verbatim[v++];
        }
        last_reconstructed = block[len - 1];
      } else {
        for (std::size_t i = 0; i < len; ++i) {
          const std::uint32_t code = block_codes[i];
          const float value =
              code == LinearQuantizer::kUnpredictable
                  ? verbatim[v++]
                  : static_cast<float>(
                        static_cast<double>(last_reconstructed) +
                        quantizer.reconstruct(code));
          block[i] = value;
          last_reconstructed = value;
        }
      }
    }
  }
};

}  // namespace

const LossyCodec& sz2_codec_instance() {
  static const Sz2Codec codec;
  return codec;
}

}  // namespace fedsz::lossy
