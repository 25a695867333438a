// Per-client error feedback for repeated lossy uplink transmission. A lossy
// codec biases every round's decoded update by its reconstruction error;
// over many rounds those errors compound instead of averaging out (the
// failure mode behind FedSparQ's and Convert-Compress-Correct's error
// feedback). The fix is the standard accumulator: before encoding, fold the
// residual carried over from the previous round into the update; after
// encoding, store what the server will NOT see — compensated update minus
// the encoder's reconstruction — as the next round's residual. The
// invariant (exact up to float rounding):
//
//   sum_t true_update_t  ==  sum_t decoded_update_t  +  final residual
//
// so nothing is ever silently dropped — error the codec introduces in round
// t is re-sent in round t+1. With a lossless codec the reconstruction is
// exact and the residual stays zero.
//
// encode() is the whole round, and it works in place: the update is
// compensated in its own storage, and a FedSZ encode writes its
// reconstruction straight into the residual's storage
// (EncodeContext::reconstruction), which one pass then turns into the new
// residual while it sums the norm. Error feedback therefore costs no decode
// of its own payload; only a codec that does not reconstruct (the
// C++-only baselines, test wrappers) is decoded.
//
// One accumulator per client; the coordinator guarantees a client has at
// most one update in flight, so no locking is needed. Interior tree nodes
// reuse the same accumulator for edge-side feedback on lossy backhauls
// (TopologyConfig::edge_error_feedback): a node folds its carried residual
// into each round's partial mean before the tier re-encode and absorbs
// what that encode dropped, serially on the event pump.
#pragma once

#include "core/update_codec.hpp"
#include "tensor/state_dict.hpp"

namespace fedsz::core {

class ErrorFeedbackAccumulator {
 public:
  /// One round's encode and what it leaves behind.
  struct Step {
    UpdateCodec::Encoded encoded;
    /// L2 norm over every element of the new residual.
    double residual_norm = 0.0;
    /// Seconds spent decoding the payload for the residual: 0 when the
    /// codec reconstructed while encoding (FedSZ).
    double decode_seconds = 0.0;
  };

  /// Encode `update` plus the carried residual with `codec`, and carry
  /// what the encode dropped into the next round:
  ///  1. the residual is added into `update` in place (before the first
  ///     round it is empty and `update` is encoded as it is);
  ///  2. the compensated update is encoded with the residual's storage as
  ///     ctx.reconstruction;
  ///  3. one pass sets residual = compensated - reconstruction, elementwise
  ///     in the update's layout, and sums its squared norm.
  /// When the codec did not reconstruct, step 3 subtracts decode(payload)
  /// instead, matched by name (decoders may order entries differently).
  /// A residual whose structure the update does not share (matched by
  /// name), or a reconstruction that is not the update's, throws
  /// InvalidArgument. If the encode or decode throws, the residual is
  /// dropped (as reset()), never left half overwritten.
  Step encode(StateDict update, const UpdateCodec& codec, EncodeContext ctx);

  /// Drop the carried residual (back to the pre-first-round state). Used
  /// when the carrier is reset wholesale — e.g. an interior node whose
  /// round was aborted by churn should not replay a stale residual.
  void reset() { residual_ = StateDict(); }

  const StateDict& residual() const { return residual_; }
  bool empty() const { return residual_.empty(); }

  /// Install a residual restored from a checkpoint (empty = pre-first-round
  /// state). Structure is validated lazily by the next encode.
  void restore_residual(StateDict residual) { residual_ = std::move(residual); }

 private:
  StateDict residual_;
};

}  // namespace fedsz::core
