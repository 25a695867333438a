// BatchNorm2d with running statistics. Besides its training role, BatchNorm
// matters to FedSZ specifically: its running_mean / running_var buffers and
// small per-channel weight/bias are exactly the "metadata and non-weight
// parameters" (~1% of an update) that Algorithm 1 routes to the lossless
// path — lossy-compressing them destroys accuracy (Section V-C).
#pragma once

#include "nn/module.hpp"

namespace fedsz::nn {

class BatchNorm2d final : public Module {
 public:
  explicit BatchNorm2d(std::int64_t channels, float momentum = 0.1f,
                       float eps = 1e-5f);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect(const std::string& prefix, std::vector<ParamRef>& params,
               std::vector<BufferRef>& buffers) override;
  std::string type_name() const override { return "BatchNorm2d"; }

 private:
  std::int64_t channels_;
  float momentum_, eps_;
  Tensor weight_, bias_;                  // gamma, beta
  Tensor weight_grad_, bias_grad_;
  Tensor running_mean_, running_var_;
  Tensor num_batches_tracked_;            // scalar counter buffer

  // Backward caches (training-mode statistics).
  Tensor cached_input_;
  std::vector<float> batch_mean_, batch_inv_std_;
};

}  // namespace fedsz::nn
