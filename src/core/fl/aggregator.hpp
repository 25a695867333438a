// Server-side aggregation. The paper evaluates FedAvg (McMahan et al. 2017)
// through APPFL, and FedAvg is the one rule here: the new global model is
// the sample-weighted mean of the round's client states.
//
// That mean is computed *streaming*: the event-driven coordinator folds
// each decoded update into a StreamingMean the moment it arrives
// (begin / add / finalize), so peak decoded-update memory is O(1) in the
// client count. The root (FlServer) and every interior node of a tree
// (EdgeAggregator) each hold one; an interior node closes it as a
// weight-carrying PartialAggregate that its parent folds like any update.
#pragma once

#include "tensor/state_dict.hpp"

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

}  // namespace fedsz::core
