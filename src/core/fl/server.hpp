// FL server: holds the global model, aggregates with FedAvg (McMahan et
// al. 2017) through its StreamingMean and evaluates global accuracy on
// held-out data. The event-driven coordinator uses the streaming
// begin_round / fold / finalize_round path so each decoded update is
// folded on arrival and freed immediately; the batch aggregate() runs the
// same path over a vector of updates.
#pragma once

#include <utility>
#include <vector>

#include "core/fl/aggregator.hpp"
#include "data/dataset.hpp"
#include "nn/models.hpp"

namespace fedsz::core {

class FlServer {
 public:
  explicit FlServer(const nn::ModelConfig& model_config);

  const StateDict& global_state() const { return global_state_; }

  /// Overwrite the global model from a checkpoint. The restored state must
  /// match the configured model's structure (load_state_dict validates);
  /// only legal between rounds.
  void restore_global_state(StateDict state);

  // ---- streaming round (updates folded as they arrive) ----
  void begin_round() { mean_.begin(global_state_); }
  /// Fold one decoded payload with aggregation weight `weight`: a client
  /// update (sample count, optionally staleness-scaled), or on a tree an
  /// edge's partial mean carrying its total weight. It is not retained.
  void fold(const StateDict& update, double weight) {
    mean_.add(update, weight);
  }
  /// Make the folded mean the global model and close the round.
  void finalize_round();
  /// Abandon the open round, leaving the global model untouched — how the
  /// coordinator closes a round that lost every participant to churn.
  void abort_round() { mean_.abort(); }

  /// Fold a round of (state, sample count) updates into the global state
  /// through the streaming path. Updates must share the global state's
  /// structure. A round that throws is abandoned, so the next can begin.
  void aggregate(const std::vector<std::pair<StateDict, std::size_t>>& updates);

  /// Top-1 accuracy of the global model on (up to `limit` samples of) a
  /// dataset; limit 0 = all.
  double evaluate(const data::Dataset& test_set, std::size_t limit = 0,
                  std::size_t batch_size = 64);

 private:
  nn::Model model_;
  StateDict global_state_;
  StreamingMean mean_;
};

}  // namespace fedsz::core
