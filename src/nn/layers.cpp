#include "nn/layers.hpp"

#include <algorithm>
#include <cmath>

namespace fedsz::nn {

void kaiming_uniform(Tensor& tensor, std::int64_t fan_in, Rng& rng) {
  // ReLU-gain Kaiming: variance 2/fan_in, i.e. U(-sqrt(6/fan_in), +...).
  // Networks without BatchNorm (the AlexNet analogue) depend on this being
  // variance-preserving; smaller gains collapse deep activations.
  const double bound =
      fan_in > 0 ? std::sqrt(6.0 / static_cast<double>(fan_in)) : 1.0;
  for (std::size_t i = 0; i < tensor.numel(); ++i)
    tensor[i] = static_cast<float>(rng.uniform(-bound, bound));
}

// ---- Model ----

std::vector<ParamRef> Model::parameters() {
  std::vector<ParamRef> params;
  std::vector<BufferRef> buffers;
  root_->collect("", params, buffers);
  return params;
}

std::vector<BufferRef> Model::buffers() {
  std::vector<ParamRef> params;
  std::vector<BufferRef> buffers;
  root_->collect("", params, buffers);
  return buffers;
}

std::vector<Rng*> Model::streams() {
  std::vector<Rng*> streams;
  root_->collect_streams(streams);
  return streams;
}

std::size_t Model::parameter_count() {
  std::size_t n = 0;
  for (const ParamRef& p : parameters()) n += p.value->numel();
  return n;
}

void Model::zero_grad() {
  for (const ParamRef& p : parameters()) p.grad->fill(0.0f);
}

StateDict Model::state_dict() {
  std::vector<ParamRef> params;
  std::vector<BufferRef> buffers;
  root_->collect("", params, buffers);
  StateDict dict;
  for (const ParamRef& p : params) dict.set(p.name, *p.value);
  for (const BufferRef& b : buffers) dict.set(b.name, *b.value);
  return dict;
}

void Model::load_state_dict(const StateDict& dict) {
  std::vector<ParamRef> params;
  std::vector<BufferRef> buffers;
  root_->collect("", params, buffers);
  std::size_t loaded = 0;
  for (const ParamRef& p : params) {
    const Tensor& src = dict.get(p.name);
    if (!src.same_shape(*p.value))
      throw InvalidArgument("load_state_dict: shape mismatch for " + p.name);
    *p.value = src;
    ++loaded;
  }
  for (const BufferRef& b : buffers) {
    const Tensor& src = dict.get(b.name);
    if (!src.same_shape(*b.value))
      throw InvalidArgument("load_state_dict: shape mismatch for " + b.name);
    *b.value = src;
    ++loaded;
  }
  if (loaded != dict.size())
    throw InvalidArgument("load_state_dict: dict has extra entries");
}

// ---- Linear ----

Linear::Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng)
    : in_(in_features),
      out_(out_features),
      weight_({out_features, in_features}),
      bias_({out_features}),
      weight_grad_({out_features, in_features}),
      bias_grad_({out_features}) {
  kaiming_uniform(weight_, in_, rng);
  kaiming_uniform(bias_, in_, rng);
}

Tensor Linear::forward(const Tensor& input, bool training) {
  if (input.rank() != 2 || input.dim(1) != in_)
    throw InvalidArgument("Linear: expected input {N, " + std::to_string(in_) +
                          "}, got " + input.shape_string());
  if (training)
    cached_input_ = input;
  else
    cached_input_ = Tensor();
  const std::int64_t batch = input.dim(0);
  Tensor out({batch, out_});
  const float* x = input.data();
  const float* w = weight_.data();
  float* y = out.data();
  // The lanes are a block of kOut outputs: each is its bias plus the
  // inputs in ascending order, so every sum keeps the direct loop's order.
  // A kIn x kOut tile holds the block's weights transposed, zero in the
  // lanes past the last output; acc holds every batch row's running sums.
  constexpr std::int64_t kOut = 32, kIn = 64;
  float tile[kIn][kOut];
  std::vector<float> acc(static_cast<std::size_t>(batch * kOut));
  for (std::int64_t o0 = 0; o0 < out_; o0 += kOut) {
    const std::int64_t outs = std::min(kOut, out_ - o0);
    for (std::int64_t n = 0; n < batch; ++n)
      for (std::int64_t j = 0; j < kOut; ++j)
        acc[n * kOut + j] = j < outs ? bias_[o0 + j] : 0.0f;
    for (std::int64_t i0 = 0; i0 < in_; i0 += kIn) {
      const std::int64_t ins = std::min(kIn, in_ - i0);
      for (std::int64_t j = 0; j < kOut; ++j)
        for (std::int64_t i = 0; i < ins; ++i)
          tile[i][j] = j < outs ? w[(o0 + j) * in_ + i0 + i] : 0.0f;
      for (std::int64_t n = 0; n < batch; ++n) {
        float* an = acc.data() + n * kOut;
        const float* xn = x + n * in_ + i0;
        for (std::int64_t i = 0; i < ins; ++i)
          for (std::int64_t j = 0; j < kOut; ++j) an[j] += xn[i] * tile[i][j];
      }
    }
    for (std::int64_t n = 0; n < batch; ++n)
      for (std::int64_t j = 0; j < outs; ++j)
        y[n * out_ + o0 + j] = acc[n * kOut + j];
  }
  return out;
}

Tensor Linear::backward(const Tensor& grad_output) {
  if (cached_input_.rank() != 2)
    throw InvalidArgument("Linear::backward: no training-mode forward");
  const std::int64_t batch = cached_input_.dim(0);
  if (grad_output.rank() != 2 || grad_output.dim(0) != batch ||
      grad_output.dim(1) != out_)
    throw InvalidArgument("Linear::backward: bad grad shape");
  Tensor grad_input({batch, in_});
  const float* x = cached_input_.data();
  const float* g = grad_output.data();
  const float* w = weight_.data();
  float* gx = grad_input.data();
  float* gw = weight_grad_.data();
  float* gb = bias_grad_.data();
  for (std::int64_t n = 0; n < batch; ++n) {
    const float* xn = x + n * in_;
    const float* gn = g + n * out_;
    float* gxn = gx + n * in_;
    for (std::int64_t o = 0; o < out_; ++o) {
      const float go = gn[o];
      gb[o] += go;
      const float* wo = w + o * in_;
      float* gwo = gw + o * in_;
      for (std::int64_t i = 0; i < in_; ++i) {
        gwo[i] += go * xn[i];
        gxn[i] += go * wo[i];
      }
    }
  }
  return grad_input;
}

void Linear::collect(const std::string& prefix, std::vector<ParamRef>& params,
                     std::vector<BufferRef>& /*buffers*/) {
  params.push_back({prefix + "weight", &weight_, &weight_grad_});
  params.push_back({prefix + "bias", &bias_, &bias_grad_});
}

// ---- ReLU / ReLU6 ----

namespace {

// Branch-free selects over restrict pointers, so each loop runs as vector
// compares and blends (a plain uint8_t pointer could alias the floats).

void relu_pass(std::size_t n, float clamp, float* __restrict y,
               std::uint8_t* __restrict pass) {
  if (clamp > 0.0f) {
    for (std::size_t i = 0; i < n; ++i) {
      const float v = y[i];
      const bool low = v < 0.0f, high = v > clamp;
      y[i] = low ? 0.0f : high ? clamp : v;
      pass[i] = !(low || high);
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const bool low = y[i] < 0.0f;
      y[i] = low ? 0.0f : y[i];
      pass[i] = !low;
    }
  }
}

}  // namespace

void zero_where_blocked(std::size_t n, const std::uint8_t* __restrict pass,
                        float* __restrict g) {
  for (std::size_t i = 0; i < n; ++i) g[i] = pass[i] ? g[i] : 0.0f;
}

Tensor ReLU::forward(const Tensor& input, bool /*training*/) {
  Tensor out = input;
  pass_mask_.resize(input.numel());
  relu_pass(out.numel(), clamp_, out.data(), pass_mask_.data());
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  if (grad_output.numel() != pass_mask_.size())
    throw InvalidArgument("ReLU::backward: size mismatch");
  Tensor grad = grad_output;
  zero_where_blocked(grad.numel(), pass_mask_.data(), grad.data());
  return grad;
}

// ---- MaxPool2d ----

MaxPool2d::MaxPool2d(int kernel, int stride) : kernel_(kernel), stride_(stride) {
  if (kernel <= 0 || stride <= 0)
    throw InvalidArgument("MaxPool2d: kernel and stride must be positive");
}

Tensor MaxPool2d::forward(const Tensor& input, bool /*training*/) {
  if (input.rank() != 4) throw InvalidArgument("MaxPool2d: expected NCHW");
  input_shape_ = input.shape();
  const std::int64_t N = input.dim(0), C = input.dim(1), H = input.dim(2),
                     W = input.dim(3);
  if (H < kernel_ || W < kernel_)
    throw InvalidArgument("MaxPool2d: input smaller than the window");
  const std::int64_t Ho = (H - kernel_) / stride_ + 1;
  const std::int64_t Wo = (W - kernel_) / stride_ + 1;
  Tensor out({N, C, Ho, Wo});
  argmax_.assign(out.numel(), 0);
  const float* x = input.data();
  float* y = out.data();
  std::size_t oi = 0;
  for (std::int64_t n = 0; n < N; ++n) {
    for (std::int64_t c = 0; c < C; ++c) {
      const float* plane = x + (n * C + c) * H * W;
      for (std::int64_t ho = 0; ho < Ho; ++ho) {
        for (std::int64_t wo = 0; wo < Wo; ++wo, ++oi) {
          const std::int64_t h0 = ho * stride_, w0 = wo * stride_;
          float best = plane[h0 * W + w0];
          std::int64_t best_idx = h0 * W + w0;
          for (int kh = 0; kh < kernel_; ++kh) {
            for (int kw = 0; kw < kernel_; ++kw) {
              const std::int64_t idx = (h0 + kh) * W + (w0 + kw);
              if (plane[idx] > best) {
                best = plane[idx];
                best_idx = idx;
              }
            }
          }
          y[oi] = best;
          argmax_[oi] = static_cast<std::uint32_t>((n * C + c) * H * W +
                                                   best_idx);
        }
      }
    }
  }
  return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  if (grad_output.numel() != argmax_.size())
    throw InvalidArgument("MaxPool2d::backward: size mismatch");
  Tensor grad_input(input_shape_);
  for (std::size_t i = 0; i < argmax_.size(); ++i)
    grad_input[argmax_[i]] += grad_output[i];
  return grad_input;
}

// ---- GlobalAvgPool ----

Tensor GlobalAvgPool::forward(const Tensor& input, bool /*training*/) {
  if (input.rank() != 4) throw InvalidArgument("GlobalAvgPool: expected NCHW");
  input_shape_ = input.shape();
  const std::int64_t N = input.dim(0), C = input.dim(1), H = input.dim(2),
                     W = input.dim(3);
  Tensor out({N, C, 1, 1});
  const float inv = 1.0f / static_cast<float>(H * W);
  const float* x = input.data();
  for (std::int64_t n = 0; n < N; ++n) {
    for (std::int64_t c = 0; c < C; ++c) {
      const float* plane = x + (n * C + c) * H * W;
      float acc = 0.0f;
      for (std::int64_t i = 0; i < H * W; ++i) acc += plane[i];
      out[static_cast<std::size_t>(n * C + c)] = acc * inv;
    }
  }
  return out;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_output) {
  const std::int64_t N = input_shape_[0], C = input_shape_[1],
                     H = input_shape_[2], W = input_shape_[3];
  if (grad_output.numel() != static_cast<std::size_t>(N * C))
    throw InvalidArgument("GlobalAvgPool::backward: size mismatch");
  Tensor grad_input(input_shape_);
  const float inv = 1.0f / static_cast<float>(H * W);
  float* gx = grad_input.data();
  for (std::int64_t n = 0; n < N; ++n) {
    for (std::int64_t c = 0; c < C; ++c) {
      const float g = grad_output[static_cast<std::size_t>(n * C + c)] * inv;
      float* plane = gx + (n * C + c) * H * W;
      for (std::int64_t i = 0; i < H * W; ++i) plane[i] = g;
    }
  }
  return grad_input;
}

// ---- Flatten ----

Tensor Flatten::forward(const Tensor& input, bool /*training*/) {
  if (input.rank() < 2) throw InvalidArgument("Flatten: rank must be >= 2");
  input_shape_ = input.shape();
  const std::int64_t batch = input.dim(0);
  const auto rest = static_cast<std::int64_t>(input.numel()) / batch;
  return input.reshaped({batch, rest});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  return grad_output.reshaped(input_shape_);
}

// ---- Dropout ----

Dropout::Dropout(float probability, std::uint64_t seed)
    : probability_(probability), rng_(seed) {
  if (probability < 0.0f || probability >= 1.0f)
    throw InvalidArgument("Dropout: probability must be in [0, 1)");
}

Tensor Dropout::forward(const Tensor& input, bool training) {
  was_training_ = training;
  if (!training || probability_ == 0.0f) return input;
  Tensor out = input;
  scale_mask_.assign(input.numel(), 0.0f);
  const float keep_scale = 1.0f / (1.0f - probability_);
  for (std::size_t i = 0; i < out.numel(); ++i) {
    if (rng_.uniform() < probability_) {
      out[i] = 0.0f;
    } else {
      out[i] *= keep_scale;
      scale_mask_[i] = keep_scale;
    }
  }
  return out;
}

Tensor Dropout::backward(const Tensor& grad_output) {
  if (!was_training_ || probability_ == 0.0f) return grad_output;
  Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.numel(); ++i) grad[i] *= scale_mask_[i];
  return grad;
}

}  // namespace fedsz::nn
