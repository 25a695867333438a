#include "core/error_feedback.hpp"

#include <cmath>

namespace fedsz::core {

namespace {

constexpr std::size_t kLanes = 8;

/// out[i] = c[i] - r[i] for i < n; returns the sum of the out[i]^2. `out`
/// may be `c` or `r` itself: each block of kLanes elements is read whole
/// before it is written. c - r is c + (-1.0f * r) bit for bit, so this is
/// the residual the old copy-then-add_scaled pass made. The squares sum in
/// kLanes independent double lanes, added up at the end.
double subtract_and_norm2(const float* c, const float* r, float* out,
                          std::size_t n) {
  double lanes[kLanes] = {};
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    float d[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l) d[l] = c[i + l] - r[i + l];
    for (std::size_t l = 0; l < kLanes; ++l) {
      out[i + l] = d[l];
      lanes[l] += static_cast<double>(d[l]) * static_cast<double>(d[l]);
    }
  }
  for (std::size_t l = 0; i < n; ++i, ++l) {
    const float d = c[i] - r[i];
    out[i] = d;
    lanes[l] += static_cast<double>(d) * static_cast<double>(d);
  }
  double sum = 0.0;
  for (const double lane : lanes) sum += lane;
  return sum;
}

void require(bool ok, const char* what) {
  if (!ok) throw InvalidArgument(std::string("ErrorFeedbackAccumulator: ") +
                                 what);
}

}  // namespace

ErrorFeedbackAccumulator::Step ErrorFeedbackAccumulator::encode(
    StateDict update, const UpdateCodec& codec, EncodeContext ctx) {
  if (!residual_.empty()) update.add_scaled_matched(residual_, 1.0f);
  Step step;
  try {
    ctx.reconstruction = &residual_;
    step.encoded = codec.encode(update, ctx);
    double sum = 0.0;
    if (step.encoded.reconstructed) {
      // The residual holds the reconstruction, in the update's layout.
      std::vector<StateDict::Entry>& recon = residual_.entries_mutable();
      require(recon.size() == update.size(),
              "reconstruction entry count differs from the update");
      for (std::size_t k = 0; k < recon.size(); ++k) {
        const auto& [name, compensated] = update.entries()[k];
        Tensor& r = recon[k].second;
        require(recon[k].first == name && r.same_shape(compensated),
                "reconstruction layout differs from the update");
        sum += subtract_and_norm2(compensated.data(), r.data(), r.data(),
                                  r.numel());
      }
    } else {
      CompressionStats stats;
      const StateDict recon = codec.decode(
          {step.encoded.payload.data(), step.encoded.payload.size()}, &stats);
      step.decode_seconds = stats.decompress_seconds;
      require(recon.size() == update.size(),
              "decoded entry count differs from the update");
      residual_ = std::move(update);
      std::vector<StateDict::Entry>& entries = residual_.entries_mutable();
      for (std::size_t k = 0; k < entries.size(); ++k) {
        auto& [name, c] = entries[k];
        const Tensor& r = recon.entries()[k].first == name
                              ? recon.entries()[k].second
                              : recon.get(name);  // throws on a missing name
        require(r.same_shape(c), "decoded shape differs from the update");
        sum += subtract_and_norm2(c.data(), r.data(), c.data(), c.numel());
      }
    }
    step.residual_norm = std::sqrt(sum);
  } catch (...) {
    reset();
    throw;
  }
  return step;
}

}  // namespace fedsz::core
