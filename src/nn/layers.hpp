// Elementary layers: Linear, activations, pooling, flatten, dropout.
// Convolution and BatchNorm live in their own translation units (conv.hpp,
// batchnorm.hpp); containers in sequential.hpp.
#pragma once

#include "nn/module.hpp"
#include "util/rng.hpp"

namespace fedsz::nn {

/// Fully connected layer: y = x W^T + b, weight shape {out, in}. Each
/// output is its bias plus the inputs in ascending index order; the
/// forward computes a block of outputs side by side, never reordering a
/// sum.
class Linear final : public Module {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect(const std::string& prefix, std::vector<ParamRef>& params,
               std::vector<BufferRef>& buffers) override;
  std::string type_name() const override { return "Linear"; }

  std::int64_t in_features() const { return in_; }
  std::int64_t out_features() const { return out_; }

 private:
  std::int64_t in_, out_;
  Tensor weight_, bias_;
  Tensor weight_grad_, bias_grad_;
  Tensor cached_input_;
};

/// ReLU with an optional upper clamp (clamp = 6 gives ReLU6, used by
/// MobileNetV2; clamp <= 0 means unclamped).
class ReLU final : public Module {
 public:
  explicit ReLU(float clamp = 0.0f) : clamp_(clamp) {}

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string type_name() const override {
    return clamp_ > 0.0f ? "ReLU6" : "ReLU";
  }

 private:
  float clamp_;
  std::vector<std::uint8_t> pass_mask_;
};

/// 2D max pooling over NCHW input.
class MaxPool2d final : public Module {
 public:
  MaxPool2d(int kernel, int stride);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string type_name() const override { return "MaxPool2d"; }

 private:
  int kernel_, stride_;
  Shape input_shape_;
  std::vector<std::uint32_t> argmax_;  // flat input index per output element
};

/// Global average pooling: NCHW -> NC11 (AdaptiveAvgPool2d(1)).
class GlobalAvgPool final : public Module {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string type_name() const override { return "GlobalAvgPool"; }

 private:
  Shape input_shape_;
};

/// Collapse all non-batch dimensions: {N, ...} -> {N, prod(...)}.
class Flatten final : public Module {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string type_name() const override { return "Flatten"; }

 private:
  Shape input_shape_;
};

/// Inverted dropout: active only in training mode.
class Dropout final : public Module {
 public:
  Dropout(float probability, std::uint64_t seed);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_streams(std::vector<Rng*>& streams) override {
    streams.push_back(&rng_);
  }
  std::string type_name() const override { return "Dropout"; }

 private:
  float probability_;
  Rng rng_;
  std::vector<float> scale_mask_;
  bool was_training_ = false;
};

/// g[i] = 0 wherever pass[i] is 0: the backward of a ReLU mask, shared by
/// ReLU and Residual's post-activation.
void zero_where_blocked(std::size_t n, const std::uint8_t* pass, float* g);

/// Uniform Kaiming-style initialization used by Linear/Conv2d:
/// U(-1/sqrt(fan_in), 1/sqrt(fan_in)).
void kaiming_uniform(Tensor& tensor, std::int64_t fan_in, Rng& rng);

}  // namespace fedsz::nn
