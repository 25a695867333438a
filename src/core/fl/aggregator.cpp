#include "core/fl/aggregator.hpp"

#include <cmath>

namespace fedsz::core {

void StreamingMean::begin(const StateDict& reference) {
  if (active_)
    throw InvalidArgument("StreamingMean: previous round not finalized");
  mean_ = reference.zeros_like();
  total_ = 0.0;
  count_ = 0;
  active_ = true;
}

void StreamingMean::add(const StateDict& update, double weight) {
  if (!active_) throw InvalidArgument("StreamingMean: add before begin");
  if (!(weight >= 0.0) || !std::isfinite(weight))
    throw InvalidArgument("StreamingMean: weight must be finite and >= 0");
  ++count_;
  if (weight == 0.0) return;
  total_ += weight;
  const float c = static_cast<float>(weight / total_);
  // Entries pair positionally when the update shares the accumulator's
  // layout (one string compare each; the common case), falling back to a
  // name lookup — then fold through the contiguous Tensor kernel.
  mean_.fold_scaled(update, c);
}

StateDict StreamingMean::finalize() {
  if (!active_) throw InvalidArgument("StreamingMean: finalize before begin");
  active_ = false;
  if (count_ == 0) throw InvalidArgument("StreamingMean: no updates");
  if (total_ <= 0.0)
    throw InvalidArgument("StreamingMean: zero total weight");
  return std::move(mean_);
}

PartialAggregate StreamingMean::finalize_partial() {
  if (!active_)
    throw InvalidArgument("StreamingMean: finalize_partial before begin");
  active_ = false;
  if (count_ == 0) throw InvalidArgument("StreamingMean: no updates");
  PartialAggregate partial;
  partial.weight = total_;
  partial.count = count_;
  partial.mean = std::move(mean_);
  return partial;
}

void StreamingMean::abort() {
  mean_ = StateDict();
  total_ = 0.0;
  count_ = 0;
  active_ = false;
}

}  // namespace fedsz::core
