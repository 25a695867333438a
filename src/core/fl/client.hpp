// FL client: owns a local model replica and a data shard; each round it
// loads the global state, runs local SGD epochs (FedAvg's client step), and
// returns its updated state dict — the object FedSZ compresses.
#pragma once

#include "data/dataloader.hpp"
#include "nn/loss.hpp"
#include "nn/models.hpp"
#include "nn/optimizer.hpp"

namespace fedsz::core {

struct ClientConfig {
  nn::SgdConfig sgd{0.02f, 0.9f, 0.0f};
  std::size_t batch_size = 32;
  int local_epochs = 1;
  std::uint64_t seed = 1;
};

struct ClientRoundResult {
  StateDict update;
  std::size_t samples = 0;
  /// Local optimizer steps behind this update (feeds EncodeContext::steps).
  std::size_t steps = 0;
  double train_seconds = 0.0;
  double mean_loss = 0.0;
};

class FlClient {
 public:
  FlClient(int id, const nn::ModelConfig& model_config,
           data::DatasetPtr shard, ClientConfig config);

  /// One FedAvg round: load global weights, train local epochs, snapshot.
  ClientRoundResult run_round(const StateDict& global_state);

  int id() const { return id_; }

  /// The model's random streams (Dropout masks) carry from round to round,
  /// outside the state dict; a checkpoint saves and restores them.
  std::vector<Rng::State> stream_states();
  /// Throws CorruptStream when `states` does not have one entry per stream.
  void restore_streams(const std::vector<Rng::State>& states);

 private:
  int id_;
  nn::Model model_;
  data::DatasetPtr shard_;
  ClientConfig config_;
};

}  // namespace fedsz::core
