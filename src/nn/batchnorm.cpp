#include "nn/batchnorm.hpp"

#include <cmath>

namespace fedsz::nn {

BatchNorm2d::BatchNorm2d(std::int64_t channels, float momentum, float eps)
    : channels_(channels),
      momentum_(momentum),
      eps_(eps),
      weight_({channels}),
      bias_({channels}),
      weight_grad_({channels}),
      bias_grad_({channels}),
      running_mean_({channels}),
      running_var_({channels}),
      num_batches_tracked_() {
  weight_.fill(1.0f);
  running_var_.fill(1.0f);
}

Tensor BatchNorm2d::forward(const Tensor& input, bool training) {
  if (input.rank() != 4 || input.dim(1) != channels_)
    throw InvalidArgument("BatchNorm2d: expected NCHW with C=" +
                          std::to_string(channels_));
  const std::int64_t N = input.dim(0), C = channels_, H = input.dim(2),
                     W = input.dim(3);
  const std::int64_t per_channel = N * H * W;
  Tensor out(input.shape());
  const float* x = input.data();
  float* y = out.data();

  batch_mean_.assign(static_cast<std::size_t>(C), 0.0f);
  batch_inv_std_.assign(static_cast<std::size_t>(C), 0.0f);

  for (std::int64_t c = 0; c < C; ++c) {
    double mean, var;
    if (training) {
      double sum = 0.0, sum_sq = 0.0;
      for (std::int64_t n = 0; n < N; ++n) {
        const float* plane = x + (n * C + c) * H * W;
        for (std::int64_t i = 0; i < H * W; ++i) {
          sum += plane[i];
          sum_sq += static_cast<double>(plane[i]) * plane[i];
        }
      }
      mean = sum / static_cast<double>(per_channel);
      var = std::max(0.0, sum_sq / static_cast<double>(per_channel) -
                              mean * mean);
      // PyTorch tracks the unbiased variance in running_var.
      const double unbiased =
          per_channel > 1
              ? var * static_cast<double>(per_channel) /
                    static_cast<double>(per_channel - 1)
              : var;
      running_mean_[static_cast<std::size_t>(c)] = static_cast<float>(
          (1.0 - momentum_) * running_mean_[static_cast<std::size_t>(c)] +
          momentum_ * mean);
      running_var_[static_cast<std::size_t>(c)] = static_cast<float>(
          (1.0 - momentum_) * running_var_[static_cast<std::size_t>(c)] +
          momentum_ * unbiased);
    } else {
      mean = running_mean_[static_cast<std::size_t>(c)];
      var = running_var_[static_cast<std::size_t>(c)];
    }
    const float inv_std = static_cast<float>(1.0 / std::sqrt(var + eps_));
    batch_mean_[static_cast<std::size_t>(c)] = static_cast<float>(mean);
    batch_inv_std_[static_cast<std::size_t>(c)] = inv_std;
    const float gamma = weight_[static_cast<std::size_t>(c)];
    const float beta = bias_[static_cast<std::size_t>(c)];
    for (std::int64_t n = 0; n < N; ++n) {
      const float* xp = x + (n * C + c) * H * W;
      float* yp = y + (n * C + c) * H * W;
      for (std::int64_t i = 0; i < H * W; ++i)
        yp[i] = (xp[i] - static_cast<float>(mean)) * inv_std * gamma + beta;
    }
  }
  if (training) {
    num_batches_tracked_[0] += 1.0f;
    cached_input_ = input;
  } else {
    cached_input_ = Tensor();
  }
  return out;
}

Tensor BatchNorm2d::backward(const Tensor& grad_output) {
  const Tensor& input = cached_input_;
  if (input.rank() != 4)
    throw InvalidArgument("BatchNorm2d::backward: no training-mode forward");
  if (!grad_output.same_shape(input))
    throw InvalidArgument("BatchNorm2d::backward: shape mismatch");
  const std::int64_t N = input.dim(0), C = channels_, H = input.dim(2),
                     W = input.dim(3);
  const std::int64_t per_channel = N * H * W;
  Tensor grad_input(input.shape());
  const float* x = input.data();
  const float* g = grad_output.data();
  float* gx = grad_input.data();

  for (std::int64_t c = 0; c < C; ++c) {
    const float mean = batch_mean_[static_cast<std::size_t>(c)];
    const float inv_std = batch_inv_std_[static_cast<std::size_t>(c)];
    const float gamma = weight_[static_cast<std::size_t>(c)];

    double sum_g = 0.0, sum_gx = 0.0;  // sums of grad and grad*xhat
    for (std::int64_t n = 0; n < N; ++n) {
      const float* xp = x + (n * C + c) * H * W;
      const float* gp = g + (n * C + c) * H * W;
      for (std::int64_t i = 0; i < H * W; ++i) {
        const float xhat = (xp[i] - mean) * inv_std;
        sum_g += gp[i];
        sum_gx += static_cast<double>(gp[i]) * xhat;
      }
    }
    bias_grad_[static_cast<std::size_t>(c)] += static_cast<float>(sum_g);
    weight_grad_[static_cast<std::size_t>(c)] += static_cast<float>(sum_gx);

    const float m = static_cast<float>(per_channel);
    for (std::int64_t n = 0; n < N; ++n) {
      const float* xp = x + (n * C + c) * H * W;
      const float* gp = g + (n * C + c) * H * W;
      float* gxp = gx + (n * C + c) * H * W;
      for (std::int64_t i = 0; i < H * W; ++i) {
        const float xhat = (xp[i] - mean) * inv_std;
        gxp[i] = gamma * inv_std / m *
                 (m * gp[i] - static_cast<float>(sum_g) -
                  xhat * static_cast<float>(sum_gx));
      }
    }
  }
  return grad_input;
}

void BatchNorm2d::collect(const std::string& prefix,
                          std::vector<ParamRef>& params,
                          std::vector<BufferRef>& buffers) {
  params.push_back({prefix + "weight", &weight_, &weight_grad_});
  params.push_back({prefix + "bias", &bias_, &bias_grad_});
  buffers.push_back({prefix + "running_mean", &running_mean_});
  buffers.push_back({prefix + "running_var", &running_var_});
  buffers.push_back({prefix + "num_batches_tracked", &num_batches_tracked_});
}

}  // namespace fedsz::nn
