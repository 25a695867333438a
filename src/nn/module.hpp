// Minimal neural-network module system — the PyTorch analogue the FL stack
// trains and whose state_dict() FedSZ compresses. Modules own their
// parameters (trainable, with gradients) and buffers (non-trainable state
// such as BatchNorm running statistics). Naming follows PyTorch conventions
// ("<prefix>.weight", ".bias", ".running_mean", ...) because FedSZ's
// Algorithm 1 partitions tensors by exactly those names.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/state_dict.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace fedsz::nn {

/// Named view of a trainable parameter and its gradient accumulator.
struct ParamRef {
  std::string name;
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
};

/// Named view of a non-trainable state tensor (running stats, counters).
struct BufferRef {
  std::string name;
  Tensor* value = nullptr;
};

class Module {
 public:
  virtual ~Module() = default;

  /// Forward pass. In training mode, modules cache whatever they need for
  /// backward(); a backward() must therefore follow the matching training
  /// forward(). An evaluation forward (training false) caches nothing, and
  /// Conv2d, Linear and BatchNorm2d drop what they held, so their
  /// backward() after it throws InvalidArgument.
  virtual Tensor forward(const Tensor& input, bool training) = 0;

  /// Backward pass: gradient w.r.t. this module's input. Parameter gradients
  /// are *accumulated* into the ParamRef grads.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Append parameter/buffer references, names prefixed by `prefix`.
  virtual void collect(const std::string& prefix, std::vector<ParamRef>& params,
                       std::vector<BufferRef>& buffers) {
    (void)prefix;
    (void)params;
    (void)buffers;
  }

  /// Append the random streams this module draws from in training (a
  /// Dropout's mask stream), in module order. They carry across rounds
  /// and are not in the state dict, so a checkpoint saves them.
  virtual void collect_streams(std::vector<Rng*>& streams) { (void)streams; }

  virtual std::string type_name() const = 0;
};

using ModulePtr = std::shared_ptr<Module>;

/// A trained network: a root module plus the bookkeeping the FL stack needs
/// (state-dict export/import, gradient reset, parameter census).
class Model {
 public:
  Model() = default;
  explicit Model(ModulePtr root) : root_(std::move(root)) {}

  bool valid() const { return root_ != nullptr; }
  Module& root() { return *root_; }

  Tensor forward(const Tensor& input, bool training = false) {
    return root_->forward(input, training);
  }
  Tensor backward(const Tensor& grad_output) {
    return root_->backward(grad_output);
  }

  std::vector<ParamRef> parameters();
  std::vector<BufferRef> buffers();
  std::size_t parameter_count();
  /// Every random stream in the model, in module order.
  std::vector<Rng*> streams();

  void zero_grad();

  /// Snapshot of parameters and buffers, in module order — the analogue of
  /// torch.nn.Module.state_dict().
  StateDict state_dict();
  /// Load a snapshot; names and shapes must match exactly.
  void load_state_dict(const StateDict& dict);

 private:
  ModulePtr root_;
};

}  // namespace fedsz::nn
