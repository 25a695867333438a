// Policy-driven compression planning: the seam between the FL runtime and
// the FedSZ pipeline. A CompressionPolicy maps (tensor name, tensor,
// EncodeContext) -> TensorPlan: which path the tensor takes and, on the
// lossy path, which codec and bound.
//
// SpecPolicy is the one built-in policy, built from a codec spec's keys.
// Every kind applies Algorithm 1's gate first ("weight" in the name and
// numel > threshold, else lossless), then resolves the lossy bound from the
// spec's `eb=` value b:
//
//   threshold   b (Algorithm 1 verbatim; the default, byte-stable: it emits
//               the pre-policy v2 container).
//   layerwise   b / 10 for names containing "classifier" or "features.0."
//               (the head and the stem), b elsewhere.
//   schedule    b * factor^round, clamped to [b * 1e-2, b * 1e2].
//   magnitude   b * clamp(rms / 1e-2, 0.1, 10) from the tensor's update RMS,
//               after Ye et al.'s gradient-aware compressor; an all-zero
//               tensor goes lossless.
//   gradaware   b * clamp(1e-2 / s, 0.1, 10), where s is a per-(client,
//               tensor) EMA of the update RMS across rounds
//               (s <- beta * s + (1 - beta) * rms); an all-zero tensor goes
//               lossless.
//
// The sparse family (FedSparQ-style) reroutes every lossy plan onto the
// sparse path at the same bound with the spec's sparsity and bits; its name
// is "sparse+<kind>".
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

namespace fedsz {
class StateDict;
}  // namespace fedsz

namespace fedsz::core {

struct CodecSpec;

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
/// (round 0, no client, no reconstruction) is what standalone compression
/// uses.
struct EncodeContext {
  int round = 0;        // server round the update was dispatched at
  int client_id = -1;   // -1 outside a federation run
  std::size_t steps = 0;  // local optimizer steps behind this update
  /// Where a FedSZ encode writes the exact values decoding its payload
  /// returns (null: nowhere). Error feedback passes its residual's storage
  /// here instead of decoding its own payload. The dict ends up with the
  /// input's entries, order and shapes; tensors whose name and shape
  /// already match are reused, so a buffer kept across rounds allocates
  /// nothing. It must not be the encoded dict. Only FedSzCodec fills it,
  /// and says so with UpdateCodec::Encoded::reconstructed; other codecs
  /// ignore it.
  StateDict* reconstruction = nullptr;
};

/// Maps each tensor of an update to its TensorPlan. plan() is called
/// concurrently from codec pipelines, so implementations must be
/// thread-safe through const; a stateful one (gradaware) must keep plan()
/// idempotent per (client, round) so re-encoding an update is
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

/// The policy a codec spec names (see the header comment). Built from the
/// spec's codec keys only: policy kind, lossy codec, bound, threshold,
/// schedule factor, gradaware beta, and the sparse family's sparsity and
/// bits. Throws InvalidArgument on an unknown kind, a non-relative bound
/// under any kind but threshold, or out-of-range knobs.
///
/// The gradaware EMA advances exactly once per EncodeContext::round, and
/// re-planning the same round recomputes from the previous round's value,
/// so repeated encodes of one update are idempotent. It lives in memory
/// only: it is not checkpointed, so a resumed run re-warms it.
class SpecPolicy final : public CompressionPolicy {
 public:
  /// Values no spec key reaches. Layerwise divides the bound by
  /// kTightLayerDivisor on names containing a kTightLayerPatterns entry;
  /// schedule clamps to [b * kScheduleFloor, b * kScheduleCeiling];
  /// magnitude and gradaware pivot on kReferenceRms and clamp their scale
  /// to [kMinScale, kMaxScale].
  static constexpr const char* kTightLayerPatterns[] = {"classifier",
                                                        "features.0."};
  static constexpr double kTightLayerDivisor = 10.0;
  static constexpr double kScheduleFloor = 1e-2;
  static constexpr double kScheduleCeiling = 1e2;
  static constexpr double kReferenceRms = 1e-2;
  static constexpr double kMinScale = 0.1;
  static constexpr double kMaxScale = 10.0;

  explicit SpecPolicy(const CodecSpec& spec);
  std::string name() const override;
  TensorPlan plan(const std::string& name, const Tensor& tensor,
                  const EncodeContext& ctx) const override;
  bool keyed_by_client() const override { return kind_ == Kind::kGradAware; }
  /// The gradaware sensitivity for (client, tensor) after the most recent
  /// plan(); 0.0 when never planned.
  double sensitivity(int client_id, const std::string& name) const;

 private:
  enum class Kind : std::uint8_t {
    kThreshold,
    kLayerwise,
    kSchedule,
    kMagnitude,
    kGradAware,
  };
  struct Accumulator {
    int round = 0;
    bool seeded = false;
    double before = 0.0;   // EMA entering `round`
    double current = 0.0;  // EMA including `round`
  };
  /// Folds `rms` into the (ctx.client_id, name) EMA for ctx.round and
  /// returns the EMA.
  double advance_sensitivity(const std::string& name, double rms,
                             const EncodeContext& ctx) const;

  Kind kind_;
  lossy::LossyId lossy_id_;
  lossy::ErrorBound bound_;
  std::size_t lossy_threshold_;
  double schedule_factor_;
  double beta_;
  bool sparse_;
  double sparsity_;
  unsigned sparse_bits_;
  mutable std::mutex mutex_;
  mutable std::unordered_map<std::string, Accumulator> sensitivity_;
};

/// Names accepted by the spec parser's `policy=` key.
std::vector<std::string> compression_policy_names();

}  // namespace fedsz::core
