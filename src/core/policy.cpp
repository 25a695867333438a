#include "core/policy.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "compress/sparse/sparse_codec.hpp"
#include "core/codec_spec.hpp"
#include "core/fedsz.hpp"

namespace fedsz::core {

namespace {

/// policy= spellings, in SpecPolicy::Kind order.
constexpr const char* kKindNames[] = {"threshold", "layerwise", "schedule",
                                      "magnitude", "gradaware"};

double tensor_rms(const Tensor& tensor) {
  const FloatSpan values = tensor.span();
  if (values.empty()) return 0.0;
  double sum_sq = 0.0;
  for (const float v : values)
    sum_sq += static_cast<double>(v) * static_cast<double>(v);
  return std::sqrt(sum_sq / static_cast<double>(values.size()));
}

}  // namespace

SpecPolicy::SpecPolicy(const CodecSpec& spec)
    : lossy_id_(spec.lossy_id),
      bound_(spec.bound),
      lossy_threshold_(spec.lossy_threshold),
      schedule_factor_(spec.schedule_factor),
      beta_(spec.gradaware_beta),
      sparse_(spec.sparse),
      sparsity_(spec.sparsity),
      sparse_bits_(spec.sparse_bits) {
  const auto kind =
      std::find(std::begin(kKindNames), std::end(kKindNames), spec.policy);
  if (kind == std::end(kKindNames))
    throw InvalidArgument("codec spec: unknown policy '" + spec.policy + "'");
  kind_ = static_cast<Kind>(kind - std::begin(kKindNames));
  bound_.validate();
  // Resolve eagerly so a bad id fails here, as in FedSz's constructor.
  (void)lossy::lossy_codec(lossy_id_);
  if (kind_ != Kind::kThreshold &&
      bound_.mode != lossy::BoundMode::kRelative)
    throw InvalidArgument("codec spec: policy=" + spec.policy +
                          " requires a relative bound (eb=rel:...)");
  if (kind_ == Kind::kSchedule &&
      (!(schedule_factor_ > 0.0) || !std::isfinite(schedule_factor_)))
    throw InvalidArgument(
        "codec spec: policy=schedule factor must be positive and finite");
  if (kind_ == Kind::kGradAware && !(beta_ > 0.0 && beta_ < 1.0))
    throw InvalidArgument(
        "codec spec: policy=gradaware beta must be in (0, 1)");
  if (sparse_)
    sparse::SparseParams{sparsity_, sparse_bits_}.validate();
  else if (sparsity_ > 0.0 || sparse_bits_ > 0)
    throw InvalidArgument(
        "codec spec: sparsity/bits are set but the family is not sparse; "
        "only the sparse family can honor them");
}

std::string SpecPolicy::name() const {
  const std::string kind = kKindNames[static_cast<std::size_t>(kind_)];
  return sparse_ ? "sparse+" + kind : kind;
}

TensorPlan SpecPolicy::plan(const std::string& name, const Tensor& tensor,
                            const EncodeContext& ctx) const {
  if (!is_lossy_entry(name, tensor.numel(), lossy_threshold_))
    return TensorPlan::lossless();
  double value = bound_.value;
  switch (kind_) {
    case Kind::kThreshold:
      break;
    case Kind::kLayerwise:
      for (const char* pattern : kTightLayerPatterns) {
        if (name.find(pattern) != std::string::npos) {
          value = bound_.value / kTightLayerDivisor;
          break;
        }
      }
      break;
    case Kind::kSchedule:
      value = std::clamp(
          bound_.value * std::pow(schedule_factor_, std::max(0, ctx.round)),
          bound_.value * kScheduleFloor, bound_.value * kScheduleCeiling);
      break;
    case Kind::kMagnitude:
    case Kind::kGradAware: {
      const double rms = tensor_rms(tensor);
      // An all-zero update (frozen/unchanged layer) compresses to almost
      // nothing on the lossless path and reconstructs exactly; a lossy pass
      // would only add codec overhead.
      if (rms == 0.0) return TensorPlan::lossless();
      const double scale =
          kind_ == Kind::kMagnitude
              ? rms / kReferenceRms
              : kReferenceRms / advance_sensitivity(name, rms, ctx);
      value = bound_.value * std::clamp(scale, kMinScale, kMaxScale);
      break;
    }
  }
  const lossy::ErrorBound bound{bound_.mode, value};
  if (sparse_) return TensorPlan::sparse(bound, sparsity_, sparse_bits_);
  return TensorPlan::lossy(lossy_id_, bound);
}

double SpecPolicy::advance_sensitivity(const std::string& name, double rms,
                                       const EncodeContext& ctx) const {
  const std::string key = std::to_string(ctx.client_id) + '|' + name;
  std::lock_guard<std::mutex> lock(mutex_);
  Accumulator& acc = sensitivity_[key];
  if (!acc.seeded) {
    acc.seeded = true;
    acc.round = ctx.round;
    acc.before = rms;
  } else if (ctx.round != acc.round) {
    acc.round = ctx.round;
    acc.before = acc.current;
  }
  // Recomputing from `before` keeps same-round re-encodes idempotent.
  acc.current = beta_ * acc.before + (1.0 - beta_) * rms;
  return acc.current;
}

double SpecPolicy::sensitivity(int client_id, const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sensitivity_.find(std::to_string(client_id) + '|' + name);
  return it == sensitivity_.end() ? 0.0 : it->second.current;
}

std::vector<std::string> compression_policy_names() {
  return {std::begin(kKindNames), std::end(kKindNames)};
}

}  // namespace fedsz::core
