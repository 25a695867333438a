#include "nn/sequential.hpp"

#include "nn/layers.hpp"

namespace fedsz::nn {

namespace {

/// y[i] = max(y[i], +0) with y[i] > 0 recorded in pass, as a branch-free
/// select over restrict pointers so it runs as vector compares and blends.
void keep_positive(std::size_t n, float* __restrict y,
                   std::uint8_t* __restrict pass) {
  for (std::size_t i = 0; i < n; ++i) {
    const bool positive = y[i] > 0.0f;
    y[i] = positive ? y[i] : 0.0f;
    pass[i] = positive;
  }
}

}  // namespace

Tensor Sequential::forward(const Tensor& input, bool training) {
  Tensor x = input;
  for (const ModulePtr& child : children_) x = child->forward(x, training);
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = children_.rbegin(); it != children_.rend(); ++it)
    g = (*it)->backward(g);
  return g;
}

void Sequential::collect(const std::string& prefix,
                         std::vector<ParamRef>& params,
                         std::vector<BufferRef>& buffers) {
  for (std::size_t i = 0; i < children_.size(); ++i)
    children_[i]->collect(prefix + std::to_string(i) + ".", params, buffers);
}

void Sequential::collect_streams(std::vector<Rng*>& streams) {
  for (const ModulePtr& child : children_) child->collect_streams(streams);
}

Tensor Residual::forward(const Tensor& input, bool training) {
  Tensor main_out = main_->forward(input, training);
  Tensor shortcut_out =
      shortcut_ ? shortcut_->forward(input, training) : input;
  if (!main_out.same_shape(shortcut_out))
    throw InvalidArgument("Residual: branch shape mismatch " +
                          main_out.shape_string() + " vs " +
                          shortcut_out.shape_string());
  main_out += shortcut_out;
  if (post_relu_) {
    relu_mask_.resize(main_out.numel());
    keep_positive(main_out.numel(), main_out.data(), relu_mask_.data());
  }
  return main_out;
}

Tensor Residual::backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  if (post_relu_) zero_where_blocked(g.numel(), relu_mask_.data(), g.data());
  Tensor grad_input = main_->backward(g);
  if (shortcut_) {
    grad_input += shortcut_->backward(g);
  } else {
    grad_input += g;
  }
  return grad_input;
}

void Residual::collect(const std::string& prefix,
                       std::vector<ParamRef>& params,
                       std::vector<BufferRef>& buffers) {
  main_->collect(prefix + "main.", params, buffers);
  if (shortcut_) shortcut_->collect(prefix + "shortcut.", params, buffers);
}

void Residual::collect_streams(std::vector<Rng*>& streams) {
  main_->collect_streams(streams);
  if (shortcut_) shortcut_->collect_streams(streams);
}

}  // namespace fedsz::nn
