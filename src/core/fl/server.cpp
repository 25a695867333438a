#include "core/fl/server.hpp"

#include <cstring>

#include "data/dataloader.hpp"
#include "nn/metrics.hpp"

namespace fedsz::core {

FlServer::FlServer(const nn::ModelConfig& model_config)
    : model_(nn::build_model(model_config).model),
      global_state_(model_.state_dict()) {}

void FlServer::restore_global_state(StateDict state) {
  if (mean_.active())
    throw InvalidArgument("FlServer: restore_global_state mid-round");
  model_.load_state_dict(state);  // validates structure before we commit
  global_state_ = std::move(state);
}

void FlServer::finalize_round() {
  global_state_ = mean_.finalize();
  model_.load_state_dict(global_state_);
}

void FlServer::aggregate(
    const std::vector<std::pair<StateDict, std::size_t>>& updates) {
  begin_round();
  try {
    for (const auto& [update, samples] : updates)
      fold(update, static_cast<double>(samples));
    finalize_round();
  } catch (...) {
    abort_round();
    throw;
  }
}

double FlServer::evaluate(const data::Dataset& test_set, std::size_t limit,
                          std::size_t batch_size) {
  const std::size_t count =
      limit == 0 ? test_set.size() : std::min(limit, test_set.size());
  if (count == 0) return 0.0;
  model_.load_state_dict(global_state_);
  std::size_t done = 0;
  double correct_weighted = 0.0;
  while (done < count) {
    const std::size_t take = std::min(batch_size, count - done);
    const Shape img = test_set.image_shape();
    Tensor images({static_cast<std::int64_t>(take), img[0], img[1], img[2]});
    std::vector<int> labels(take);
    const std::size_t sample_numel = shape_numel(img);
    for (std::size_t i = 0; i < take; ++i) {
      const data::Sample sample = test_set.get(done + i);
      std::memcpy(images.data() + i * sample_numel, sample.image.data(),
                  sample_numel * sizeof(float));
      labels[i] = sample.label;
    }
    const Tensor logits = model_.forward(images, /*training=*/false);
    correct_weighted +=
        nn::top1_accuracy(logits, {labels.data(), labels.size()}) *
        static_cast<double>(take);
    done += take;
  }
  return correct_weighted / static_cast<double>(count);
}

}  // namespace fedsz::core
