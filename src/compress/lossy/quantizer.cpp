#include "compress/lossy/quantizer.hpp"

#include <string>
#include <type_traits>

namespace fedsz::lossy {

LinearQuantizer::LinearQuantizer(double eps, std::uint32_t radius)
    : eps_(eps), radius_(radius) {
  if (radius_ < 2) throw InvalidArgument("LinearQuantizer: radius too small");
  // The line loops compute codes up to 2*radius in int32.
  if (radius_ >= (1u << 30))
    throw InvalidArgument("LinearQuantizer: radius too large");
  // A zero epsilon arises for constant arrays under relative bounds; clamp to
  // a denormal-safe floor so every residual becomes "unpredictable" (exact).
  if (!(eps_ > 0.0)) eps_ = 1e-300;
  inv_step_ = 1.0 / (2.0 * eps_);
  step_ = 2.0 * eps_;
  max_scaled_ = static_cast<double>(radius_) - 1.0;
}

// Rounding identity. quantize() rounds scaled = residual / (2 eps) half away
// from zero. For |scaled| < radius - 1, t = int32(scaled) truncates exactly
// and scaled - t is the exact fraction, so 2 * (scaled - t) is exact too and
// its int32 is +1, 0 or -1 exactly when the fraction is >= 0.5, within
// +-0.5, or <= -0.5: t + int32(2 * (scaled - t)) is llround(scaled). A
// residual out of range, or NaN, is swapped for `radius` before either
// conversion, so no double->int conversion sees a value outside int32 and
// its code lands at 2*radius, above every valid one. The swap reads the
// radius at run time: GCC 12 does not vectorize the select against a
// constant, nor a loop where a comparison feeds an integer.
//
// The reconstruction stored next to a code is reconstruct_line's
// expression on the same bin (code - radius): pred + bin * step, rounded to
// float. An out-of-range element stores garbage there until the verbatim
// scan overwrites it with x[i], as the decoder does. The loop is
// instantiated with and without that store, so an encode that wants no
// reconstruction pays nothing for it.
void LinearQuantizer::quantize_line(std::span<const float> x,
                                    const double* index, double intercept,
                                    double slope, std::uint32_t* codes,
                                    std::vector<float>& verbatim,
                                    float* recon) const {
  const std::size_t n = x.size();
  const float* values = x.data();
  const double inv_step = inv_step_;
  const double step = step_;
  const double max_scaled = max_scaled_;
  const auto overflow = static_cast<double>(radius_);
  const auto radius = static_cast<std::int32_t>(radius_);
  const auto quantize_all = [&](auto reconstruct) {
    std::int32_t worst = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double pred = intercept + slope * index[i];
      const double scaled =
          (static_cast<double>(values[i]) - pred) * inv_step;
      const double sv = std::fabs(scaled) < max_scaled ? scaled : overflow;
      const auto t = static_cast<std::int32_t>(sv);
      const std::int32_t bin = t + static_cast<std::int32_t>(2.0 * (sv - t));
      const std::int32_t code = bin + radius;
      codes[i] = static_cast<std::uint32_t>(code);
      if constexpr (decltype(reconstruct)::value)
        recon[i] = static_cast<float>(pred + static_cast<double>(bin) * step);
      worst = code > worst ? code : worst;
    }
    return worst;
  };
  const std::int32_t worst = recon != nullptr
                                 ? quantize_all(std::true_type{})
                                 : quantize_all(std::false_type{});
  if (worst < 2 * radius) return;
  for (std::size_t i = 0; i < n; ++i) {
    if (codes[i] >= 2 * radius_) {
      codes[i] = kUnpredictable;
      verbatim.push_back(values[i]);
      if (recon != nullptr) recon[i] = values[i];
    }
  }
}

void LinearQuantizer::reconstruct_line(std::span<const std::uint32_t> codes,
                                       const double* index, double intercept,
                                       double slope, float* out) const {
  const std::size_t n = codes.size();
  const std::uint32_t* code = codes.data();
  const double step = step_;
  const auto radius = static_cast<std::int32_t>(radius_);
  for (std::size_t i = 0; i < n; ++i) {
    const double pred = intercept + slope * index[i];
    const auto bin = static_cast<std::int32_t>(code[i]) - radius;
    out[i] = static_cast<float>(pred + static_cast<double>(bin) * step);
  }
}

std::size_t LinearQuantizer::count_unpredictable(
    std::span<const std::uint32_t> codes, const char* codec) const {
  std::uint32_t worst = 0;
  std::size_t unpredictable = 0;
  for (const std::uint32_t code : codes) {
    worst = code > worst ? code : worst;
    unpredictable += code == kUnpredictable;
  }
  if (worst >= 2 * radius_)
    throw CorruptStream(std::string(codec) + ": quantizer code out of range");
  return unpredictable;
}

}  // namespace fedsz::lossy
