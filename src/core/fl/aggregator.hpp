// Server-side aggregation strategies. The paper evaluates FedAvg (McMahan
// et al. 2017) through APPFL, whose server supports a family of aggregation
// rules; this module provides the same pluggability so compression studies
// can be repeated under momentum/adaptive servers:
//
//   FedAvg   weighted mean of client states (the paper's configuration)
//   FedAvgM  server momentum over the aggregate pseudo-gradient
//   FedAdam  Adam-style adaptive server step (Reddi et al. 2021)
//
// Every strategy is built on a *streaming* weighted mean: the event-driven
// coordinator folds each decoded update into the accumulator the moment it
// arrives (begin_round / accumulate / finalize), so peak decoded-update
// memory is O(1) in the client count. The classic batch aggregate() — and
// the weighted_mean() helper — are thin wrappers over the same path.
#pragma once

#include <memory>
#include <vector>

#include "tensor/state_dict.hpp"
#include "util/bytebuffer.hpp"

namespace fedsz::core {

/// A weight-carrying partial mean: what an edge aggregator in a
/// hierarchical topology ships to its parent. Merging partials — each
/// folded with its carried `weight` through the same streaming path —
/// reproduces the weighted mean over every underlying update, and a
/// single partial merged into a fresh accumulator reproduces it
/// bit-exactly (the flat-equivalence regression pin relies on this).
struct PartialAggregate {
  StateDict mean;         // weighted mean over the folded updates
  double weight = 0.0;    // total aggregation weight the mean carries
  std::size_t count = 0;  // updates folded into it
};

/// Numerically-stable online weighted mean over state dicts (West 1979):
/// mean += (w_k / W_k) * (update_k - mean), with W_k the running weight
/// total. Entries are matched by name; folding an update identical to the
/// current mean leaves the mean bit-exact.
class StreamingMean {
 public:
  /// Start a round; the accumulator takes `reference`'s structure.
  void begin(const StateDict& reference);

  /// Fold one update with non-negative `weight` (sample count, optionally
  /// scaled by a staleness factor). Zero-weight updates are counted but
  /// contribute nothing.
  void add(const StateDict& update, double weight);

  /// Return the weighted mean and reset. Throws InvalidArgument when no
  /// update carried positive weight.
  StateDict finalize();

  /// Close as an intermediate node: return the mean WITH the weight it
  /// carries instead of dropping it. Unlike finalize(), an all-zero-weight
  /// partial is legal (weight 0; it merges as a no-op upstream) — only a
  /// round with no updates at all throws InvalidArgument.
  PartialAggregate finalize_partial();

  /// Abandon the round without producing a mean: frees the accumulator and
  /// returns to the pre-begin state. Legal at any time (including with no
  /// round open). The churn path needs this — an edge whose whole cohort
  /// dropped, or a round every straggler missed, closes empty instead of
  /// tripping finalize()'s no-updates guard.
  void abort();

  bool active() const { return active_; }
  double total_weight() const { return total_; }

 private:
  StateDict mean_;
  double total_ = 0.0;
  std::size_t count_ = 0;
  bool active_ = false;
};

class Aggregator {
 public:
  virtual ~Aggregator() = default;
  virtual std::string name() const = 0;

  // ---- streaming path (fold updates as they arrive) ----
  /// Open a round; the accumulator mirrors `global`'s structure.
  void begin_round(const StateDict& global);
  /// Fold one client update with aggregation weight `weight`.
  void accumulate(const StateDict& update, double weight);
  /// Apply the accumulated mean to `global` via the strategy's rule and
  /// close the round. Throws InvalidArgument when nothing was accumulated.
  void finalize(StateDict& global);

  // ---- hierarchical (multi-tier) path ----
  /// Close the round as an EDGE node: return the weight-carrying partial
  /// mean instead of applying the strategy rule. The strategy rule only
  /// ever runs at the root, where the global model lives.
  PartialAggregate finalize_partial();
  /// Root side: fold one edge's decoded partial `mean` carrying total
  /// aggregation weight `weight`. Exact: merging every edge's partial
  /// reproduces the weighted mean over all underlying client updates.
  void merge_partial(const StateDict& mean, double weight);
  /// Abandon the open round (no-op when none is open) — the empty-round
  /// path under failure injection.
  void abort_round();

  bool round_open() const { return mean_.active(); }

  // ---- checkpoint path ----
  /// Serialize the strategy's mutable cross-round state (server momentum,
  /// Adam moments). FedAvg carries none and writes an empty section; the
  /// construction-time config (betas, learning rate) is NOT saved — the
  /// resuming run rebuilds the aggregator from its own config and restores
  /// only what training mutated. Must not be called mid-round.
  virtual void save_state(ByteWriter& out) const;
  /// Inverse of save_state. Throws CorruptStream on a malformed section.
  virtual void load_state(ByteReader& in);

  // ---- batch path: a thin wrapper over the streaming path ----
  /// Fold one round of client updates (state, sample count) into `global`.
  void aggregate(StateDict& global,
                 const std::vector<std::pair<StateDict, std::size_t>>& updates);

 protected:
  /// Strategy-specific rule folding the round's weighted mean into `global`.
  virtual void apply_mean(StateDict& global, const StateDict& mean) = 0;

 private:
  StreamingMean mean_;
};

using AggregatorPtr = std::shared_ptr<Aggregator>;

/// Sample-count-weighted mean over full client states.
AggregatorPtr make_fedavg();

/// FedAvg with server momentum: v <- beta v + (avg - global); global += v.
AggregatorPtr make_fedavgm(float beta = 0.9f);

struct FedAdamConfig {
  float learning_rate = 0.3f;  // server step size on the pseudo-gradient
  float beta1 = 0.9f;
  float beta2 = 0.99f;
  float epsilon = 1e-3f;       // adaptivity floor (tau in Reddi et al.)
};

/// Adaptive server optimizer over the round's pseudo-gradient.
AggregatorPtr make_fedadam(FedAdamConfig config = {});

/// Helper shared by all strategies: the weighted mean of updates, with the
/// structure of `reference`. Thin wrapper over StreamingMean.
StateDict weighted_mean(
    const StateDict& reference,
    const std::vector<std::pair<StateDict, std::size_t>>& updates);

}  // namespace fedsz::core
