#include "core/fl/client.hpp"

#include "util/timer.hpp"

namespace fedsz::core {

FlClient::FlClient(int id, const nn::ModelConfig& model_config,
                   data::DatasetPtr shard, ClientConfig config)
    : id_(id),
      model_(nn::build_model(model_config).model),
      shard_(std::move(shard)),
      config_(config) {
  if (shard_->size() == 0)
    throw InvalidArgument("FlClient: empty data shard for client " +
                          std::to_string(id));
}

std::vector<Rng::State> FlClient::stream_states() {
  std::vector<Rng::State> states;
  for (const Rng* stream : model_.streams()) states.push_back(stream->state());
  return states;
}

void FlClient::restore_streams(const std::vector<Rng::State>& states) {
  const std::vector<Rng*> streams = model_.streams();
  if (states.size() != streams.size())
    throw CorruptStream("client " + std::to_string(id_) + ": " +
                        std::to_string(states.size()) +
                        " random streams for a model with " +
                        std::to_string(streams.size()));
  for (std::size_t i = 0; i < streams.size(); ++i)
    streams[i]->restore(states[i]);
}

ClientRoundResult FlClient::run_round(const StateDict& global_state) {
  Timer timer;
  model_.load_state_dict(global_state);
  nn::Sgd optimizer(model_.parameters(), config_.sgd);
  data::DataLoader loader(shard_, config_.batch_size, /*shuffle=*/true,
                          config_.seed ^ (0x10adull * (id_ + 1)));
  double loss_sum = 0.0;
  std::size_t batches = 0;
  for (int epoch = 0; epoch < config_.local_epochs; ++epoch) {
    loader.reset();
    data::Batch batch;
    while (loader.next(batch)) {
      model_.zero_grad();
      const Tensor logits = model_.forward(batch.images, /*training=*/true);
      const nn::LossResult loss = nn::softmax_cross_entropy(
          logits, {batch.labels.data(), batch.labels.size()});
      model_.backward(loss.grad_logits);
      optimizer.step();
      loss_sum += loss.loss;
      ++batches;
    }
  }
  ClientRoundResult result;
  result.update = model_.state_dict();
  result.samples = shard_->size();
  result.steps = batches;
  result.train_seconds = timer.seconds();
  result.mean_loss = batches > 0 ? loss_sum / static_cast<double>(batches)
                                 : 0.0;
  return result;
}

}  // namespace fedsz::core
