#include "compress/lossy/error_bound.hpp"

#include <cmath>

namespace fedsz::lossy {

void ErrorBound::validate() const {
  if (!(value > 0.0) || !std::isfinite(value))
    throw InvalidArgument("ErrorBound: value must be positive and finite");
}

double ErrorBound::absolute_for(FloatSpan data) const {
  validate();
  if (mode == BoundMode::kAbsolute) return value;
  if (data.empty()) return 0.0;
  // Only the range is needed, so scan min and max alone, in eight
  // independent lanes. Every lane starts at data[0] and takes a value only
  // when it lies strictly beyond, so the extremes are the same values in
  // any order; a NaN at data[0] still makes the range NaN while any other
  // NaN is skipped; and an all-zero array keeps data[0] in every lane, so
  // its range is +0 whatever the signs, as in a single ordered pass. (Zeros
  // of different sign as min and max elsewhere do not change max - min.)
  constexpr std::size_t kLanes = 8;
  float lo[kLanes];
  float hi[kLanes];
  for (std::size_t j = 0; j < kLanes; ++j) lo[j] = hi[j] = data[0];
  const std::size_t n = data.size();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (std::size_t j = 0; j < kLanes; ++j) {
      const float v = data[i + j];
      lo[j] = v < lo[j] ? v : lo[j];
      hi[j] = hi[j] < v ? v : hi[j];
    }
  }
  for (; i < n; ++i) {
    lo[0] = data[i] < lo[0] ? data[i] : lo[0];
    hi[0] = hi[0] < data[i] ? data[i] : hi[0];
  }
  for (std::size_t j = 1; j < kLanes; ++j) {
    lo[0] = lo[j] < lo[0] ? lo[j] : lo[0];
    hi[0] = hi[0] < hi[j] ? hi[j] : hi[0];
  }
  return value * (static_cast<double>(hi[0]) - static_cast<double>(lo[0]));
}

}  // namespace fedsz::lossy
