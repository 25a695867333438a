// Policy-driven compression planning: the seam between the FL runtime and
// the FedSZ pipeline. Algorithm 1 hardwires one global error bound and a
// name/size partition rule; the follow-on literature (Ye et al.'s
// gradient-aware per-layer bounds, FedSparQ's adaptive schedules) shows the
// win comes from per-tensor, per-round decisions. A CompressionPolicy maps
// (tensor name, tensor, EncodeContext) -> TensorPlan — which path the tensor
// takes and, for the lossy path, which codec and bound — so the bound/codec
// choice is pluggable instead of a struct field:
//
//   ThresholdPolicy       Algorithm 1 verbatim (the default): "weight" in
//                         the name and numel > threshold -> lossy at one
//                         global bound; everything else lossless.
//                         Regression-pinned to the paper's partition/bytes.
//   LayerwiseBoundPolicy  per-layer-pattern bounds: first substring rule
//                         that matches the tensor name decides the bound
//                         (e.g. tighter bounds on the classifier head).
//   BoundSchedulePolicy   the bound decays (or tightens) geometrically over
//                         rounds via EncodeContext::round — coarse early
//                         rounds, precise late rounds.
//   MagnitudeAwarePolicy  relative bound scaled by each tensor's update
//                         magnitude (RMS), after Ye et al.: small-magnitude
//                         layers get proportionally tighter bounds.
//   GradientAwareBoundPolicy  per-tensor bounds scaled by gradient
//                         sensitivity accumulated across rounds (an EMA of
//                         the update RMS keyed by client and tensor, driven
//                         by EncodeContext::round): layers whose updates
//                         stay large are sensitive and get tighter bounds.
//   SparseOverlayPolicy   reroutes an inner policy's lossy plans onto the
//                         sparse path (threshold + quantize + mask), keeping
//                         the inner policy's bound; everything else passes
//                         through untouched.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "compress/lossy/error_bound.hpp"
#include "compress/lossy/lossy.hpp"
#include "tensor/tensor.hpp"
#include "util/common.hpp"

namespace fedsz::core {

/// Which pipeline a tensor rides. kLossless entries are serialized together
/// and compressed with the container's lossless codec; kRaw entries ship
/// their float bytes untouched (exact, zero codec time — for tensors that
/// must not be perturbed and do not compress). kSparse entries go through
/// the sparse-quantization codec (threshold + adaptive-width quantization
/// of survivors); dropped elements decode to zero, which composes with the
/// error-feedback accumulator.
enum class TensorPath : std::uint8_t {
  kLossy = 0,
  kLossless = 1,
  kRaw = 2,
  kSparse = 3,
};

/// One tensor's compression decision. `lossy_id` is only meaningful on the
/// lossy path; `bound` on the lossy and sparse paths; `sparsity` /
/// `sparse_bits` on the sparse path (0 = adaptive for both — see
/// sparse::SparseParams).
struct TensorPlan {
  TensorPath path = TensorPath::kLossless;
  lossy::LossyId lossy_id = lossy::LossyId::kSz2;
  lossy::ErrorBound bound = lossy::ErrorBound::relative(1e-2);
  double sparsity = 0.0;
  unsigned sparse_bits = 0;

  static TensorPlan lossy(lossy::LossyId id, lossy::ErrorBound bound) {
    return TensorPlan{TensorPath::kLossy, id, bound};
  }
  static TensorPlan lossless() { return TensorPlan{}; }
  static TensorPlan raw() {
    TensorPlan plan;
    plan.path = TensorPath::kRaw;
    return plan;
  }
  static TensorPlan sparse(lossy::ErrorBound bound, double sparsity = 0.0,
                           unsigned bits = 0) {
    TensorPlan plan;
    plan.path = TensorPath::kSparse;
    plan.bound = bound;
    plan.sparsity = sparsity;
    plan.sparse_bits = bits;
    return plan;
  }
};

/// Round/client context threaded from the coordinator into every encode, so
/// policies can be round- and client-aware. Default-constructed context
/// (round 0, no client) is what standalone compression uses.
struct EncodeContext {
  int round = 0;        // server round the update was dispatched at
  int client_id = -1;   // -1 outside a federation run
  std::size_t steps = 0;  // local optimizer steps behind this update
};

/// Maps each tensor of an update to its TensorPlan. plan() is called
/// concurrently from codec pipelines, so implementations must be
/// thread-safe through const; most are pure functions of their arguments
/// and construction-time config, and stateful ones (GradientAware) must
/// keep plan() idempotent per (client, round) so re-encoding an update is
/// byte-identical at any thread count.
class CompressionPolicy {
 public:
  virtual ~CompressionPolicy() = default;
  virtual std::string name() const = 0;
  /// Decide the plan for one tensor. `tensor` carries shape and values
  /// (magnitude-aware policies read the values; most only look at numel).
  virtual TensorPlan plan(const std::string& name, const Tensor& tensor,
                          const EncodeContext& ctx) const = 0;
  /// True when plan() keeps state keyed by EncodeContext::client_id.
  virtual bool keyed_by_client() const { return false; }
};

using CompressionPolicyPtr = std::shared_ptr<const CompressionPolicy>;

// ---- ThresholdPolicy (Algorithm 1, the default) ----

struct ThresholdPolicyConfig {
  lossy::LossyId lossy_id = lossy::LossyId::kSz2;
  lossy::ErrorBound bound = lossy::ErrorBound::relative(1e-2);
  /// Algorithm 1's minimum flattened element count for the lossy path.
  std::size_t lossy_threshold = 1000;
};

class ThresholdPolicy final : public CompressionPolicy {
 public:
  explicit ThresholdPolicy(ThresholdPolicyConfig config);
  std::string name() const override { return "threshold"; }
  TensorPlan plan(const std::string& name, const Tensor& tensor,
                  const EncodeContext& ctx) const override;

 private:
  ThresholdPolicyConfig config_;
};

// ---- LayerwiseBoundPolicy ----

struct LayerwiseRule {
  std::string pattern;  // substring of the tensor name
  lossy::ErrorBound bound;
};

struct LayerwiseBoundConfig {
  lossy::LossyId lossy_id = lossy::LossyId::kSz2;
  /// First rule whose pattern is a substring of the tensor name wins.
  std::vector<LayerwiseRule> rules;
  lossy::ErrorBound fallback = lossy::ErrorBound::relative(1e-2);
  std::size_t lossy_threshold = 1000;
};

class LayerwiseBoundPolicy final : public CompressionPolicy {
 public:
  explicit LayerwiseBoundPolicy(LayerwiseBoundConfig config);
  std::string name() const override { return "layerwise"; }
  TensorPlan plan(const std::string& name, const Tensor& tensor,
                  const EncodeContext& ctx) const override;

 private:
  LayerwiseBoundConfig config_;
};

// ---- BoundSchedulePolicy ----

struct BoundScheduleConfig {
  lossy::LossyId lossy_id = lossy::LossyId::kSz2;
  /// Relative bound at round 0.
  double initial = 1e-2;
  /// Per-round multiplier: < 1 tightens the bound over rounds (coarse early,
  /// precise late), > 1 loosens it. Must be positive and finite.
  double factor = 0.7;
  /// The scheduled bound is clamped to [floor, ceiling].
  double floor = 1e-4;
  double ceiling = 1e-1;
  std::size_t lossy_threshold = 1000;
};

class BoundSchedulePolicy final : public CompressionPolicy {
 public:
  explicit BoundSchedulePolicy(BoundScheduleConfig config);
  std::string name() const override { return "schedule"; }
  TensorPlan plan(const std::string& name, const Tensor& tensor,
                  const EncodeContext& ctx) const override;
  /// The relative bound the schedule resolves to at `round` (exposed for
  /// tests and traces).
  double bound_at(int round) const;

 private:
  BoundScheduleConfig config_;
};

// ---- MagnitudeAwarePolicy ----

struct MagnitudeAwareConfig {
  lossy::LossyId lossy_id = lossy::LossyId::kSz2;
  /// Relative bound applied when a tensor's RMS equals `reference_rms`.
  double base = 1e-2;
  /// Update-magnitude pivot: tensors with RMS below it get tighter bounds,
  /// above it looser (Ye et al.'s gradient-aware scaling).
  double reference_rms = 1e-2;
  /// The magnitude scale factor is clamped to [min_scale, max_scale].
  double min_scale = 0.1;
  double max_scale = 10.0;
  std::size_t lossy_threshold = 1000;
};

class MagnitudeAwarePolicy final : public CompressionPolicy {
 public:
  explicit MagnitudeAwarePolicy(MagnitudeAwareConfig config);
  std::string name() const override { return "magnitude"; }
  TensorPlan plan(const std::string& name, const Tensor& tensor,
                  const EncodeContext& ctx) const override;

 private:
  MagnitudeAwareConfig config_;
};

// ---- GradientAwareBoundPolicy ----

struct GradientAwareConfig {
  lossy::LossyId lossy_id = lossy::LossyId::kSz2;
  /// Relative bound applied when a tensor's sensitivity equals
  /// `reference_sensitivity`.
  double base = 1e-2;
  /// EMA smoothing for the cross-round sensitivity accumulator, in (0, 1):
  /// ema_r = beta * ema_{r-1} + (1 - beta) * rms_r.
  double beta = 0.5;
  /// Sensitivity pivot: tensors whose accumulated update RMS exceeds it
  /// (still moving -> perturbation-sensitive) get tighter bounds, quieter
  /// tensors looser ones (Ye et al.'s gradient-aware scaling, integrated
  /// over rounds instead of a single update).
  double reference_sensitivity = 1e-2;
  /// The sensitivity scale factor is clamped to [min_scale, max_scale].
  double min_scale = 0.1;
  double max_scale = 10.0;
  std::size_t lossy_threshold = 1000;
};

/// Stateful but deterministic: the per-(client, tensor) sensitivity EMA
/// advances exactly once per EncodeContext::round, and re-planning the same
/// round recomputes from the previous round's value, so repeated encodes of
/// one update are idempotent (the thread-count byte-identity invariant).
/// The accumulator is in-memory only — it is not checkpoint-serialized, so
/// a resumed run re-warms it from its defaults.
class GradientAwareBoundPolicy final : public CompressionPolicy {
 public:
  explicit GradientAwareBoundPolicy(GradientAwareConfig config);
  std::string name() const override { return "gradaware"; }
  TensorPlan plan(const std::string& name, const Tensor& tensor,
                  const EncodeContext& ctx) const override;
  bool keyed_by_client() const override { return true; }
  /// The accumulated sensitivity for (client, tensor) after the most recent
  /// plan() — 0.0 when never planned (exposed for tests).
  double sensitivity(int client_id, const std::string& name) const;

 private:
  struct Accumulator {
    int round = 0;
    bool seeded = false;
    double before = 0.0;   // EMA entering `round`
    double current = 0.0;  // EMA including `round`
  };
  GradientAwareConfig config_;
  mutable std::mutex mutex_;
  mutable std::unordered_map<std::string, Accumulator> sensitivity_;
};

// ---- SparseOverlayPolicy ----

/// Decorates an inner policy: plans the inner policy would send through the
/// lossy path are rerouted to the sparse path at the same bound; lossless /
/// raw plans pass through. This is how `family:sparse` specs compose with
/// every existing policy (threshold, schedule, gradaware, ...).
class SparseOverlayPolicy final : public CompressionPolicy {
 public:
  SparseOverlayPolicy(CompressionPolicyPtr inner, double sparsity,
                      unsigned bits);
  std::string name() const override { return "sparse+" + inner_->name(); }
  TensorPlan plan(const std::string& name, const Tensor& tensor,
                  const EncodeContext& ctx) const override;
  bool keyed_by_client() const override { return inner_->keyed_by_client(); }

 private:
  CompressionPolicyPtr inner_;
  double sparsity_;
  unsigned bits_;
};

// ---- factories ----

CompressionPolicyPtr make_threshold_policy(ThresholdPolicyConfig config = {});
CompressionPolicyPtr make_layerwise_policy(LayerwiseBoundConfig config);
CompressionPolicyPtr make_bound_schedule_policy(
    BoundScheduleConfig config = {});
CompressionPolicyPtr make_magnitude_aware_policy(
    MagnitudeAwareConfig config = {});
CompressionPolicyPtr make_gradient_aware_policy(GradientAwareConfig config = {});
CompressionPolicyPtr make_sparse_overlay_policy(CompressionPolicyPtr inner,
                                                double sparsity = 0.0,
                                                unsigned bits = 0);

/// Names accepted by the spec parser's `policy=` key.
std::vector<std::string> compression_policy_names();

}  // namespace fedsz::core
