// Containers: Sequential (children named "0", "1", ... PyTorch-style) and
// Residual (two-branch add, the building block of the ResNet and MobileNetV2
// analogues).
#pragma once

#include "nn/module.hpp"

namespace fedsz::nn {

class Sequential final : public Module {
 public:
  Sequential() = default;
  explicit Sequential(std::vector<ModulePtr> children)
      : children_(std::move(children)) {}

  void add(ModulePtr child) { children_.push_back(std::move(child)); }
  std::size_t size() const { return children_.size(); }

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect(const std::string& prefix, std::vector<ParamRef>& params,
               std::vector<BufferRef>& buffers) override;
  void collect_streams(std::vector<Rng*>& streams) override;
  std::string type_name() const override { return "Sequential"; }

 private:
  std::vector<ModulePtr> children_;
};

/// y = main(x) + shortcut(x); a null shortcut is the identity. The optional
/// post-activation (ReLU after the add, as in ResNet) is applied when
/// `post_relu` is set.
class Residual final : public Module {
 public:
  Residual(ModulePtr main, ModulePtr shortcut, bool post_relu)
      : main_(std::move(main)),
        shortcut_(std::move(shortcut)),
        post_relu_(post_relu) {}

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect(const std::string& prefix, std::vector<ParamRef>& params,
               std::vector<BufferRef>& buffers) override;
  void collect_streams(std::vector<Rng*>& streams) override;
  std::string type_name() const override { return "Residual"; }

 private:
  ModulePtr main_;
  ModulePtr shortcut_;  // nullptr -> identity
  bool post_relu_;
  std::vector<std::uint8_t> relu_mask_;
};

}  // namespace fedsz::nn
