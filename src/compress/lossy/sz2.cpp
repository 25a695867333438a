// SZ2 analogue (prediction-based model, Liang et al. 2018): the array is cut
// into fixed blocks; each block selects between a Lorenzo predictor (previous
// reconstructed value) and a per-block linear regression (stored as two f32
// coefficients); prediction residuals are quantized into error-bounded bins,
// entropy-coded with canonical Huffman, and the whole body is passed through
// the LZ back end — the SZ2 pipeline of Section II-A. Out-of-range residuals
// are stored verbatim (exact), preserving the hard error bound.
//
// Encode runs as contiguous passes — predictor selection over every block,
// then a predict->quantize->reconstruct sweep with per-predictor inner
// loops — and draws all working buffers from the thread's EncodeArena, so
// steady-state encode allocates nothing and the inner loops carry no
// per-element branching on the predictor kind.
#include <cmath>
#include <cstring>

#include "compress/lossless/huffman.hpp"
#include "compress/lossless/lossless.hpp"
#include "compress/lossy/arena.hpp"
#include "compress/lossy/lossy.hpp"
#include "compress/lossy/quantizer.hpp"
#include "util/bytebuffer.hpp"
#include "util/stats.hpp"

namespace fedsz::lossy {

namespace {

constexpr std::size_t kBlockSize = 256;
constexpr std::uint8_t kPredictorLorenzo = 0;
constexpr std::uint8_t kPredictorRegression = 1;

struct Regression {
  float slope = 0.0f;
  float intercept = 0.0f;
};

/// Least-squares fit of x[i] ~ intercept + slope * i over a block. The
/// index sums are closed-form: for n <= kBlockSize they are exact integers
/// in double, identical to accumulating them in the data loop, so only the
/// two data-dependent sums remain per-element work.
Regression fit_regression(FloatSpan block) {
  const std::size_t n = block.size();
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

/// Estimated absolute prediction error of each candidate over a block
/// (selection heuristic; actual encoding uses reconstructed-value Lorenzo).
double lorenzo_cost(FloatSpan block, float prev) {
  double cost = 0.0;
  float last = prev;
  for (const float v : block) {
    cost += std::fabs(static_cast<double>(v) - last);
    last = v;
  }
  return cost;
}

double regression_cost(FloatSpan block, const Regression& reg) {
  double cost = 0.0;
  for (std::size_t i = 0; i < block.size(); ++i) {
    const double pred =
        static_cast<double>(reg.intercept) +
        static_cast<double>(reg.slope) * static_cast<double>(i);
    cost += std::fabs(static_cast<double>(block[i]) - pred);
  }
  return cost;
}

class Sz2Codec final : public LossyCodec {
 public:
  LossyId id() const override { return LossyId::kSz2; }
  std::string name() const override { return "sz2"; }
  bool strictly_bounded() const override { return true; }

  void compress_into(FloatSpan data, const ErrorBound& bound,
                     Bytes& out) const override {
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
    const std::size_t n_blocks = (data.size() + kBlockSize - 1) / kBlockSize;

    arena.tags.resize(n_blocks);
    arena.coeffs.resize(2 * n_blocks);  // (slope, intercept) per block
    arena.codes.resize(data.size());
    arena.verbatim.clear();

    // Pass 1: predictor selection per block. Costs depend only on the
    // original data, so this pass is independent of reconstruction state.
    for (std::size_t b = 0; b < n_blocks; ++b) {
      const std::size_t begin = b * kBlockSize;
      const std::size_t len = std::min(kBlockSize, data.size() - begin);
      FloatSpan block = data.subspan(begin, len);
      const Regression reg = fit_regression(block);
      const bool use_regression =
          regression_cost(block, reg) <
          lorenzo_cost(block, b == 0 ? 0.0f : data[begin - 1]);
      arena.tags[b] = use_regression ? kPredictorRegression
                                     : kPredictorLorenzo;
      arena.coeffs[2 * b] = reg.slope;
      arena.coeffs[2 * b + 1] = reg.intercept;
    }

    // Pass 2: predict -> quantize -> reconstruct, one contiguous sweep with
    // the predictor branch hoisted to block level.
    std::uint32_t* codes = arena.codes.data();
    float last_reconstructed = 0.0f;
    for (std::size_t b = 0; b < n_blocks; ++b) {
      const std::size_t begin = b * kBlockSize;
      const std::size_t len = std::min(kBlockSize, data.size() - begin);
      const float* block = data.data() + begin;
      std::uint32_t* block_codes = codes + begin;
      if (arena.tags[b] == kPredictorRegression) {
        const auto slope = static_cast<double>(arena.coeffs[2 * b]);
        const auto intercept = static_cast<double>(arena.coeffs[2 * b + 1]);
        for (std::size_t i = 0; i < len; ++i) {
          const double pred = intercept + slope * static_cast<double>(i);
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
        }
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

  std::vector<float> decompress(ByteSpan stream) const override {
    const Bytes body = lossless::lossless_codec(lossless::LosslessId::kZstd)
                           .decompress(stream);
    ByteReader r({body.data(), body.size()});
    const auto n = static_cast<std::size_t>(r.get_varint());
    const double eps = r.get_f64();
    std::vector<float> out;
    if (n == 0) {
      if (!r.done()) throw CorruptStream("sz2: trailing bytes");
      return out;
    }

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
    // Validate every entropy-decoded code up front (reconstruct() itself no
    // longer range-checks in the hot loop).
    const std::uint32_t code_limit = 2 * quantizer.radius();
    for (const std::uint32_t code : arena.codes)
      if (code >= code_limit)
        throw CorruptStream("sz2: quantizer code out of range");
    const auto n_verbatim = static_cast<std::size_t>(r.get_varint());
    // Guard the multiply below: a corrupt count can wrap n_verbatim * 4 to
    // a small value and request an absurd allocation.
    if (n_verbatim > r.remaining() / sizeof(float))
      throw CorruptStream("sz2: verbatim count exceeds stream");
    ByteSpan raw = r.get_bytes(n_verbatim * sizeof(float));
    if (!r.done()) throw CorruptStream("sz2: trailing bytes");
    arena.verbatim.resize(n_verbatim);
    if (n_verbatim > 0)
      std::memcpy(arena.verbatim.data(), raw.data(), raw.size());

    out.resize(n);
    const std::uint32_t* codes = arena.codes.data();
    float* values = out.data();
    std::size_t v = 0;
    float last_reconstructed = 0.0f;
    for (std::size_t b = 0; b < n_blocks; ++b) {
      const std::size_t begin = b * kBlockSize;
      const std::size_t len = std::min(kBlockSize, n - begin);
      if (arena.tags[b] == kPredictorRegression) {
        const auto slope = static_cast<double>(arena.coeffs[2 * b]);
        const auto intercept = static_cast<double>(arena.coeffs[2 * b + 1]);
        for (std::size_t i = 0; i < len; ++i) {
          const std::uint32_t code = codes[begin + i];
          float value;
          if (code == LinearQuantizer::kUnpredictable) {
            if (v >= arena.verbatim.size())
              throw CorruptStream("sz2: verbatim stream exhausted");
            value = arena.verbatim[v++];
          } else {
            const double pred = intercept + slope * static_cast<double>(i);
            value = static_cast<float>(pred + quantizer.reconstruct(code));
          }
          values[begin + i] = value;
          last_reconstructed = value;
        }
      } else {
        for (std::size_t i = 0; i < len; ++i) {
          const std::uint32_t code = codes[begin + i];
          float value;
          if (code == LinearQuantizer::kUnpredictable) {
            if (v >= arena.verbatim.size())
              throw CorruptStream("sz2: verbatim stream exhausted");
            value = arena.verbatim[v++];
          } else {
            const double pred = static_cast<double>(last_reconstructed);
            value = static_cast<float>(pred + quantizer.reconstruct(code));
          }
          values[begin + i] = value;
          last_reconstructed = value;
        }
      }
    }
    return out;
  }
};

}  // namespace

const LossyCodec& sz2_codec_instance() {
  static const Sz2Codec codec;
  return codec;
}

}  // namespace fedsz::lossy
