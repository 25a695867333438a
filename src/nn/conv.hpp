// 2D convolution over NCHW tensors with stride, zero padding and grouped
// channels (groups == in_channels gives the depthwise convolutions of
// MobileNetV2).
//
// The kernels are vectorized across outputs only, and every output's
// floating-point sum keeps the order of the direct seven-deep loop, so the
// trained bytes do not depend on the kernel:
//   - Forward: each output starts at its bias, then adds one partial sum
//     per input channel, in channel order. Each partial sum starts at 0.0f
//     and adds the valid (kh, kw) taps in order. The 0.0f stays: 0.0f + v
//     differs from v when v is -0.0.
//   - Weight gradient: each tap is one sequential sum over (n, ho, wo)
//     that skips positions whose output gradient is exactly 0.
//   - Input gradient: each element sums over (oc, ho, wo) in order, with
//     the same skip.
// The lanes are output columns or channels. A windowed (not pointwise)
// forward holds a block of 4 output channels times 8 columns of one output
// row in vector registers: one input channel's partial sums stay there
// across every (kh, kw) tap, then join the block's outputs. It reads a
// zero-padded copy of each input row, split by stride phase so that every
// tap's loads are contiguous and in bounds. A tap in the padding reads a
// zero; with finite weights the product is +-0, which leaves a partial sum
// bit for bit (a partial starts at +0.0, so it is never -0.0). A layer with
// a non-finite weight, whose Inf * 0 would be NaN, takes a bitwise select
// of +0.0 for those lanes instead.
//
// A pointwise layer (1x1, stride 1, unpadded) has register blocks of its
// own. The forward and the input gradient hold 4 channels of one group
// times 8 plane positions, the weight gradient 4 output times 8 input
// channels; each block walks every channel or position its sums run over.
// Two zero identities keep them exact:
//   - Adding +0.0 or -0.0 leaves any sum but -0.0 as it is, and a sum that
//     starts at +0.0, or has taken a first partial that is not -0.0, is
//     never -0.0. So the forward adds the contract's 0.0f only to its first
//     input channel's product, and the input gradient ANDs each product
//     with a per-lane mask of nonzero output gradients, adding +0.0 for a
//     skipped one (and never the NaN of Inf * 0).
//   - The weight gradient starts at the accumulated gradient, which may be
//     -0.0, so a zero output gradient skips its channel with a branch.
// In the windowed backward, each tap's valid range is computed once, not
// per element; the weight gradient reads input channels from a
// channels-last copy; a masked add keeps the zero-gradient skip where lanes
// differ. tests/nn_kernel_test.cpp holds the direct loops and checks the
// kernels against them byte for byte. The kernels stay single-threaded (the
// pool already runs one client per thread) and on the baseline ISA: plain
// loops, and GCC/Clang vector types (SSE on x86-64) in the register blocks.
// tools/check_conv_kernels.sh fails when a kernel is inlined or loses its
// packed multiplies.
#pragma once

#include "nn/module.hpp"
#include "util/rng.hpp"

namespace fedsz::nn {

class Conv2d final : public Module {
 public:
  Conv2d(std::int64_t in_channels, std::int64_t out_channels, int kernel,
         int stride, int padding, std::int64_t groups, bool bias, Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect(const std::string& prefix, std::vector<ParamRef>& params,
               std::vector<BufferRef>& buffers) override;
  std::string type_name() const override { return "Conv2d"; }

  std::int64_t in_channels() const { return in_channels_; }
  std::int64_t out_channels() const { return out_channels_; }

 private:
  std::int64_t in_channels_, out_channels_, groups_;
  int kernel_, stride_, padding_;
  bool has_bias_;
  Tensor weight_;  // {out_c, in_c/groups, k, k}
  Tensor bias_;    // {out_c}
  Tensor weight_grad_, bias_grad_;
  Tensor cached_input_;
};

}  // namespace fedsz::nn
