// Error-bounded linear quantization of prediction residuals, the mechanism
// shared by the SZ2- and SZ3-like codecs: residual r maps to the integer bin
// round(r / 2eps), guaranteeing |r - reconstructed| <= eps. Bin indices are
// biased by `radius` into unsigned codes; code 0 is reserved for
// "unpredictable" values that fall outside the code range and are stored
// verbatim (and hence reconstructed exactly).
//
// quantize()/reconstruct() are header-inline: they sit in the innermost
// predict->quantize->reconstruct loops of every lossy codec, and inlining
// them removes a call per element and lets the surrounding pass vectorize.
// quantize_line()/reconstruct_line() apply the same rule to a whole run of
// residuals from a line predictor, with no per-element branch;
// quantize_line can also write the reconstruction as it goes.
#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "util/common.hpp"

namespace fedsz::lossy {

class LinearQuantizer {
 public:
  static constexpr std::uint32_t kDefaultRadius = 32768;
  static constexpr std::uint32_t kUnpredictable = 0;

  explicit LinearQuantizer(double eps,
                           std::uint32_t radius = kDefaultRadius);

  /// Quantize a residual. Returns a code in [1, 2*radius - 1], or
  /// kUnpredictable if the residual does not fit.
  std::uint32_t quantize(double residual) const {
    const double scaled = residual * inv_step_;
    // Reject residuals whose bin index cannot be represented. The negated
    // comparison also routes NaNs to the verbatim path. When it passes,
    // |llround(scaled)| <= radius - 1, so the biased code always lands in
    // [1, 2*radius - 1] — no second range check is needed.
    if (!(std::fabs(scaled) < max_scaled_)) return kUnpredictable;
    // Inline std::llround (round half away from zero): |scaled| < radius
    // fits int64, so the cast truncates exactly, and scaled - truncated is
    // the exact fractional part, so comparing it to +-0.5 decides the
    // rounding exactly as llround does.
    const auto truncated = static_cast<std::int64_t>(scaled);
    const double frac = scaled - static_cast<double>(truncated);
    const std::int64_t bin = truncated +
                             static_cast<std::int64_t>(frac >= 0.5) -
                             static_cast<std::int64_t>(frac <= -0.5);
    return static_cast<std::uint32_t>(bin +
                                      static_cast<std::int64_t>(radius_));
  }

  /// Reconstruct the residual midpoint for a valid (non-zero) code. Code
  /// validity is the caller's contract: the decode paths validate every
  /// entropy-decoded code against the radius before this runs (throwing
  /// CorruptStream), so the hot loop carries only a debug assert.
  double reconstruct(std::uint32_t code) const {
    assert(code != kUnpredictable && code < 2 * radius_ &&
           "LinearQuantizer: invalid code");
    const auto bin =
        static_cast<std::int64_t>(code) - static_cast<std::int64_t>(radius_);
    // step_ == 2*eps exactly (the *2 is exact in binary FP), so this single
    // multiply rounds the same exact product bin*2*eps as the historical
    // (bin * 2.0) * eps_ expression — bit-identical output.
    return static_cast<double>(bin) * step_;
  }

  /// quantize(x[i] - (intercept + slope * index[i])) into codes[i] for
  /// every i < x.size(), with no per-element branch; index[i] must hold
  /// double(i). Codes of residuals out of range become kUnpredictable, in
  /// element order, with x[i] appended to `verbatim`; that scan runs only
  /// when the run's largest code calls for it. A non-null `recon` (not
  /// overlapping x) receives what reconstruct_line plus the verbatim
  /// overwrite decode: each in-range value is stored next to its code, in
  /// the same loop, and the scan stores x[i] over each verbatim one.
  [[gnu::noinline]] void quantize_line(std::span<const float> x,
                                       const double* index, double intercept,
                                       double slope, std::uint32_t* codes,
                                       std::vector<float>& verbatim,
                                       float* recon = nullptr) const;

  /// float(intercept + slope * index[i] + reconstruct(codes[i])) into
  /// out[i] for every i < codes.size(), with no per-element branch. Codes
  /// must be valid except kUnpredictable, whose output the caller
  /// overwrites with the verbatim value.
  [[gnu::noinline]] void reconstruct_line(std::span<const std::uint32_t> codes,
                                          const double* index,
                                          double intercept, double slope,
                                          float* out) const;

  /// Check a stream's entropy-decoded codes: throws CorruptStream naming
  /// `codec` if any code is 2*radius or more, and returns how many are
  /// kUnpredictable (the verbatim values the stream must carry). One
  /// branch-free pass.
  std::size_t count_unpredictable(std::span<const std::uint32_t> codes,
                                  const char* codec) const;

  double eps() const { return eps_; }
  std::uint32_t radius() const { return radius_; }

 private:
  double eps_;
  double inv_step_;    // 1 / (2 * eps)
  double step_;        // 2 * eps (exact)
  double max_scaled_;  // radius - 1, the representable |bin| bound
  std::uint32_t radius_;
};

}  // namespace fedsz::lossy
