// Kernel tests: the trained bytes of every model pinned across three SGD
// steps, so a rewrite of the convolution, Linear or activation kernels
// cannot move a single weight or logit without failing here; and the
// vectorized kernels checked byte for byte against the direct loops they
// replaced, over random geometries with zeros and non-finite values.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/conv.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/models.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace fedsz::nn {
namespace {

std::uint32_t crc_of(const Bytes& bytes) {
  return util::crc32({bytes.data(), bytes.size()});
}

std::uint32_t crc_of(const Tensor& tensor) {
  return util::crc32({reinterpret_cast<const std::uint8_t*>(tensor.data()),
                      tensor.numel() * sizeof(float)});
}

struct TrainPin {
  const char* arch;
  ModelScale scale;
  std::uint32_t state_crc;   // serialized state_dict after 3 SGD steps
  std::uint32_t logits_crc;  // eval-mode logits of the batch after them
};

// Generated from the pre-vectorization direct loops; the row to paste
// after a deliberate numerical change is printed on mismatch.
constexpr TrainPin kTrainPins[] = {
    {"alexnet", ModelScale::kTiny, 0x75cd4659, 0xadbc0cc3},
    {"mobilenet_v2", ModelScale::kTiny, 0x3570c3a5, 0xec9bcecc},
    {"resnet", ModelScale::kTiny, 0xf1422419, 0x80e8fe74},
    {"alexnet", ModelScale::kBench, 0x8b9ed5a5, 0x107254e3},
    {"mobilenet_v2", ModelScale::kBench, 0x64d67168, 0x31df21fe},
};

TEST(TrainPinTest, ThreeSgdStepsReproduceThePinnedBytes) {
  constexpr std::int64_t kBatch = 4;
  for (const TrainPin& pin : kTrainPins) {
    ModelConfig config;
    config.arch = pin.arch;
    config.scale = pin.scale;
    config.seed = 7;
    Model model = build_model(config).model;

    Rng rng(11);
    Tensor input({kBatch, 3, 32, 32});
    for (std::size_t i = 0; i < input.numel(); ++i)
      input[i] = static_cast<float>(rng.normal(0.0, 1.0));
    std::vector<int> labels;
    for (std::int64_t n = 0; n < kBatch; ++n)
      labels.push_back(static_cast<int>(rng.uniform_index(10)));

    Sgd sgd(model.parameters(), {.learning_rate = 0.05f, .momentum = 0.9f});
    for (int step = 0; step < 3; ++step) {
      model.zero_grad();
      const Tensor logits = model.forward(input, true);
      model.backward(softmax_cross_entropy(logits, labels).grad_logits);
      sgd.step();
    }
    const std::uint32_t state_crc = crc_of(model.state_dict().serialize());
    const Tensor logits = model.forward(input, false);
    for (std::size_t i = 0; i < logits.numel(); ++i)
      ASSERT_TRUE(std::isfinite(logits[i])) << pin.arch << " diverged";
    const std::uint32_t logits_crc = crc_of(logits);
    const std::string name =
        std::string(pin.arch) +
        (pin.scale == ModelScale::kTiny ? " kTiny" : " kBench");
    EXPECT_EQ(state_crc, pin.state_crc) << name << " state_dict";
    EXPECT_EQ(logits_crc, pin.logits_crc) << name << " logits";
    if (state_crc != pin.state_crc || logits_crc != pin.logits_crc) {
      char row[96];
      std::snprintf(row, sizeof(row), "0x%08x, 0x%08x", state_crc, logits_crc);
      ADD_FAILURE() << name << " pins: " << row;
    }
  }
}

// ---- the direct loops, kept as the oracle ----
//
// The bodies below are the convolution, Linear and ReLU loops the library
// ran before its kernels were vectorized, copied verbatim. Each defines
// the order of every floating-point sum, which the library must keep.

struct DirectConv2d {
  std::int64_t in_channels_, out_channels_, groups_;
  int kernel_, stride_, padding_;
  bool has_bias_;
  Tensor weight_, bias_, weight_grad_, bias_grad_, cached_input_;

  Tensor forward(const Tensor& input) {
    cached_input_ = input;
    const std::int64_t N = input.dim(0), H = input.dim(2), W = input.dim(3);
    const std::int64_t Ho = (H + 2 * padding_ - kernel_) / stride_ + 1;
    const std::int64_t Wo = (W + 2 * padding_ - kernel_) / stride_ + 1;
    Tensor out({N, out_channels_, Ho, Wo});

    const std::int64_t cin_per_group = in_channels_ / groups_;
    const std::int64_t cout_per_group = out_channels_ / groups_;
    const float* x = input.data();
    const float* w = weight_.data();
    float* y = out.data();

    for (std::int64_t n = 0; n < N; ++n) {
      for (std::int64_t oc = 0; oc < out_channels_; ++oc) {
        const std::int64_t g = oc / cout_per_group;
        float* yp = y + (n * out_channels_ + oc) * Ho * Wo;
        const float b = has_bias_ ? bias_[static_cast<std::size_t>(oc)] : 0.0f;
        for (std::int64_t i = 0; i < Ho * Wo; ++i) yp[i] = b;
        for (std::int64_t ic = 0; ic < cin_per_group; ++ic) {
          const float* xp =
              x + (n * in_channels_ + g * cin_per_group + ic) * H * W;
          const float* wp = w + ((oc * cin_per_group) + ic) * kernel_ * kernel_;
          for (std::int64_t ho = 0; ho < Ho; ++ho) {
            const std::int64_t h0 = ho * stride_ - padding_;
            for (std::int64_t wo = 0; wo < Wo; ++wo) {
              const std::int64_t w0 = wo * stride_ - padding_;
              float acc = 0.0f;
              for (int kh = 0; kh < kernel_; ++kh) {
                const std::int64_t h = h0 + kh;
                if (h < 0 || h >= H) continue;
                const float* xrow = xp + h * W;
                const float* wrow = wp + kh * kernel_;
                for (int kw = 0; kw < kernel_; ++kw) {
                  const std::int64_t ww = w0 + kw;
                  if (ww < 0 || ww >= W) continue;
                  acc += xrow[ww] * wrow[kw];
                }
              }
              yp[ho * Wo + wo] += acc;
            }
          }
        }
      }
    }
    return out;
  }

  Tensor backward(const Tensor& grad_output) {
    const Tensor& input = cached_input_;
    const std::int64_t N = input.dim(0), H = input.dim(2), W = input.dim(3);
    const std::int64_t Ho = grad_output.dim(2), Wo = grad_output.dim(3);
    Tensor grad_input(input.shape());

    const std::int64_t cin_per_group = in_channels_ / groups_;
    const std::int64_t cout_per_group = out_channels_ / groups_;
    const float* x = input.data();
    const float* w = weight_.data();
    const float* g = grad_output.data();
    float* gx = grad_input.data();
    float* gw = weight_grad_.data();
    float* gb = bias_grad_.data();

    for (std::int64_t n = 0; n < N; ++n) {
      for (std::int64_t oc = 0; oc < out_channels_; ++oc) {
        const std::int64_t grp = oc / cout_per_group;
        const float* gp = g + (n * out_channels_ + oc) * Ho * Wo;
        if (has_bias_) {
          float acc = 0.0f;
          for (std::int64_t i = 0; i < Ho * Wo; ++i) acc += gp[i];
          gb[oc] += acc;
        }
        for (std::int64_t ic = 0; ic < cin_per_group; ++ic) {
          const std::int64_t in_c = grp * cin_per_group + ic;
          const float* xp = x + (n * in_channels_ + in_c) * H * W;
          float* gxp = gx + (n * in_channels_ + in_c) * H * W;
          const float* wp = w + ((oc * cin_per_group) + ic) * kernel_ * kernel_;
          float* gwp = gw + ((oc * cin_per_group) + ic) * kernel_ * kernel_;
          for (std::int64_t ho = 0; ho < Ho; ++ho) {
            const std::int64_t h0 = ho * stride_ - padding_;
            for (std::int64_t wo = 0; wo < Wo; ++wo) {
              const std::int64_t w0 = wo * stride_ - padding_;
              const float go = gp[ho * Wo + wo];
              if (go == 0.0f) continue;
              for (int kh = 0; kh < kernel_; ++kh) {
                const std::int64_t h = h0 + kh;
                if (h < 0 || h >= H) continue;
                for (int kw = 0; kw < kernel_; ++kw) {
                  const std::int64_t ww = w0 + kw;
                  if (ww < 0 || ww >= W) continue;
                  gwp[kh * kernel_ + kw] += go * xp[h * W + ww];
                  gxp[h * W + ww] += go * wp[kh * kernel_ + kw];
                }
              }
            }
          }
        }
      }
    }
    return grad_input;
  }
};

struct DirectLinear {
  std::int64_t in_, out_;
  Tensor weight_, bias_, weight_grad_, bias_grad_, cached_input_;

  Tensor forward(const Tensor& input) {
    cached_input_ = input;
    const std::int64_t batch = input.dim(0);
    Tensor out({batch, out_});
    const float* x = input.data();
    const float* w = weight_.data();
    float* y = out.data();
    for (std::int64_t n = 0; n < batch; ++n) {
      const float* xn = x + n * in_;
      float* yn = y + n * out_;
      for (std::int64_t o = 0; o < out_; ++o) {
        const float* wo = w + o * in_;
        float acc = bias_[static_cast<std::size_t>(o)];
        for (std::int64_t i = 0; i < in_; ++i) acc += xn[i] * wo[i];
        yn[o] = acc;
      }
    }
    return out;
  }

  Tensor backward(const Tensor& grad_output) {
    const std::int64_t batch = cached_input_.dim(0);
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
};

struct DirectReLU {
  float clamp_;
  std::vector<std::uint8_t> pass_mask_;

  Tensor forward(const Tensor& input) {
    Tensor out = input;
    pass_mask_.assign(input.numel(), 0);
    for (std::size_t i = 0; i < out.numel(); ++i) {
      float v = out[i];
      if (v < 0.0f) {
        out[i] = 0.0f;
      } else if (clamp_ > 0.0f && v > clamp_) {
        out[i] = clamp_;
      } else {
        pass_mask_[i] = 1;
      }
    }
    return out;
  }

  Tensor backward(const Tensor& grad_output) {
    Tensor grad = grad_output;
    for (std::size_t i = 0; i < grad.numel(); ++i)
      if (!pass_mask_[i]) grad[i] = 0.0f;
    return grad;
  }
};

// ---- random operands ----

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

/// A draw from [0, n).
std::int64_t draw(Rng& rng, std::uint64_t n) {
  return static_cast<std::int64_t>(rng.uniform_index(n));
}

/// Normal values with about `zero_share` exact zeros.
Tensor random_tensor(Shape shape, Rng& rng, double zero_share) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i)
    if (rng.uniform() >= zero_share)
      t[i] = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

/// One +Inf, -Inf or NaN at a random position.
void plant_non_finite(Tensor& t, Rng& rng) {
  const float specials[3] = {std::numeric_limits<float>::infinity(),
                             -std::numeric_limits<float>::infinity(),
                             std::numeric_limits<float>::quiet_NaN()};
  t[rng.uniform_index(t.numel())] = specials[rng.uniform_index(3)];
}

/// Copies `from`'s parameters (weight, then bias when present) into the
/// oracle's tensors of the same shapes.
void copy_params(Module& from, Tensor& weight, Tensor& bias) {
  std::vector<ParamRef> params;
  std::vector<BufferRef> buffers;
  from.collect("", params, buffers);
  weight = *params[0].value;
  if (params.size() > 1) bias = *params[1].value;
}

/// The module's first parameter: a convolution's weight.
Tensor& weight_of(Module& module) {
  std::vector<ParamRef> params;
  std::vector<BufferRef> buffers;
  module.collect("", params, buffers);
  return *params[0].value;
}

/// The module's second parameter: a convolution's bias, when it has one.
Tensor& bias_of(Module& module) {
  std::vector<ParamRef> params;
  std::vector<BufferRef> buffers;
  module.collect("", params, buffers);
  return *params.at(1).value;
}

/// About a fifth of the module's bias values (when it has any) become -0.
void set_some_biases_to_negative_zero(Module& module, Rng& rng) {
  std::vector<ParamRef> params;
  std::vector<BufferRef> buffers;
  module.collect("", params, buffers);
  if (params.size() < 2) return;
  Tensor& bias = *params[1].value;
  for (std::size_t i = 0; i < bias.numel(); ++i)
    if (rng.uniform() < 0.2) bias[i] = -0.0f;
}

/// The module's parameter gradients in collect() order.
std::vector<Tensor> param_grads(Module& module) {
  std::vector<ParamRef> params;
  std::vector<BufferRef> buffers;
  module.collect("", params, buffers);
  std::vector<Tensor> grads;
  for (const ParamRef& p : params) grads.push_back(*p.grad);
  return grads;
}

struct ConvCase {
  int kernel, stride, padding;
  std::int64_t groups, in_c, out_c, batch, h, w;
  bool bias;
  bool non_finite_weight = false;  // at a random position
  bool non_finite_input = false;   // at a random position
  bool inf_edge_weight = false;    // +Inf on tap (kh = 0, kw = 0)
  bool backward = true;
  bool negative_zero_bias = false;  // every bias -0
};

/// Runs one convolution through the library and through the direct loops,
/// drawing its parameters, input and output gradients from `rng`, and
/// asserts that the forward pass, and unless `c.backward` is false two
/// backward calls, match byte for byte.
void check_conv(const ConvCase& c, Rng& rng, const std::string& label) {
  Rng init(rng.next_u64());
  Conv2d conv(c.in_c, c.out_c, c.kernel, c.stride, c.padding, c.groups,
              c.bias, init);
  DirectConv2d direct{c.in_c, c.out_c, c.groups, c.kernel, c.stride, c.padding,
                      c.bias, Tensor(), Tensor({c.out_c}), Tensor(),
                      Tensor({c.out_c}), Tensor()};
  // A -0 bias keeps a -0 output only while every partial sum is -0, which
  // tells `b + (0.0f + v)` from `b + v`.
  set_some_biases_to_negative_zero(conv, rng);
  // A non-finite input reaches the weight gradient, a non-finite weight
  // the input gradient: there 0 * Inf = NaN tells an added zero output
  // gradient from a skipped one. On an edge tap, a non-finite weight also
  // meets the forward's padding, where Inf * 0 = NaN would leak into a sum.
  if (c.non_finite_weight) plant_non_finite(weight_of(conv), rng);
  if (c.inf_edge_weight)
    weight_of(conv)[0] = std::numeric_limits<float>::infinity();
  if (c.negative_zero_bias) bias_of(conv).fill(-0.0f);
  copy_params(conv, direct.weight_, direct.bias_);
  direct.weight_grad_ = Tensor(direct.weight_.shape());

  Tensor x = random_tensor({c.batch, c.in_c, c.h, c.w}, rng, 0.2);
  if (c.non_finite_input) plant_non_finite(x, rng);
  std::string what = label + ": k" + std::to_string(c.kernel);
  what += " s" + std::to_string(c.stride) + " p" + std::to_string(c.padding);
  what += " g" + std::to_string(c.groups) + " " + std::to_string(c.in_c);
  what += "->" + std::to_string(c.out_c) + " " + x.shape_string();
  const Tensor y = conv.forward(x, true);
  const Tensor y_direct = direct.forward(x);
  ASSERT_TRUE(same_bytes(y, y_direct)) << what << " forward";
  if (!c.backward) return;
  // Two backward calls: the parameter gradients accumulate. The first
  // gradient is mostly nonzero and the second mostly zeros, so on wide
  // rows both the library's dense-gradient and sparse-gradient schedules
  // run.
  for (int call = 0; call < 2; ++call) {
    const Tensor g = random_tensor(y.shape(), rng, call == 0 ? 0.3 : 0.7);
    ASSERT_TRUE(same_bytes(conv.backward(g), direct.backward(g)))
        << what << " input gradient, call " << call;
  }
  const std::vector<Tensor> grads = param_grads(conv);
  ASSERT_TRUE(same_bytes(grads[0], direct.weight_grad_)) << what << " weight";
  if (c.bias) {
    ASSERT_TRUE(same_bytes(grads[1], direct.bias_grad_)) << what << " bias";
  }
}

TEST(KernelOracleTest, ConvMatchesTheDirectLoopsBitForBit) {
  Rng rng(2024);
  constexpr int kCases = 320;
  int non_finite_cases = 0;
  for (int c = 0; c < kCases; ++c) {
    ConvCase cc{};
    cc.kernel = std::array<int, 3>{1, 3, 5}[rng.uniform_index(3)];
    cc.stride = 1 + static_cast<int>(draw(rng, 2));
    cc.padding = static_cast<int>(draw(rng, cc.kernel / 2 + 2));
    cc.groups = 1;
    switch (rng.uniform_index(3)) {
      case 0:  // dense
        cc.in_c = 1 + draw(rng, 12);
        cc.out_c = 1 + draw(rng, 12);
        break;
      case 1:  // 2 or 3 groups
        cc.groups = 2 + draw(rng, 2);
        cc.in_c = cc.groups * (1 + draw(rng, 5));
        cc.out_c = cc.groups * (1 + draw(rng, 5));
        break;
      default:  // depthwise, channel multiplier 1 or 2
        cc.groups = cc.in_c = 1 + draw(rng, 20);
        cc.out_c = cc.in_c * (1 + draw(rng, 2));
        break;
    }
    cc.bias = rng.uniform() < 0.5;
    cc.batch = 1 + draw(rng, 3);
    const std::int64_t min_hw =
        std::max<std::int64_t>(1, cc.kernel - 2 * cc.padding);
    // Every fourth case has output rows at least 32 wide, where the
    // library's dense-gradient schedule can run for any kernel size.
    const std::int64_t wide = c % 4 == 1 ? 32 * cc.stride : 0;
    cc.h = min_hw + draw(rng, 12);
    cc.w = min_hw + draw(rng, 12) + wide;
    cc.non_finite_weight = c % 7 == 3;
    cc.non_finite_input = c % 7 == 0;
    non_finite_cases += cc.non_finite_weight + cc.non_finite_input;
    ASSERT_NO_FATAL_FAILURE(check_conv(cc, rng, "case " + std::to_string(c)));
  }
  EXPECT_GE(non_finite_cases, 2 * (kCases / 7));

  // The edges of the forward's register block (4 output channels times 8
  // output columns), stride 2 with padding past K / 2, and the bench
  // AlexNet's layers at its training and evaluation batch sizes, drawn
  // from their own generator so the cases above keep their values.
  Rng edge_rng(2025);
  std::vector<std::pair<std::string, ConvCase>> edges;
  for (const std::int64_t tail : {1, 2, 3}) {
    edges.push_back({"dense channel tail " + std::to_string(tail),
                     {3, 1, 1, 1, 5, 4 + tail, 2, 9, 9, true}});
    edges.push_back({"grouped channel tail " + std::to_string(tail),
                     {3, 1, 1, 3, 6, 3 * (4 + tail), 2, 9, 9, true}});
  }
  for (const std::int64_t wo : {7, 8, 9, 15, 16, 17, 23, 24, 25}) {
    edges.push_back({"width " + std::to_string(wo) + " stride 1",
                     {3, 1, 1, 1, 3, 6, 2, 5, wo, true}});
    edges.push_back({"width " + std::to_string(wo) + " stride 2",
                     {5, 2, 2, 1, 2, 5, 1, 5, 2 * wo - 1, true}});
    edges.push_back({"width " + std::to_string(wo) + " depthwise stride 2",
                     {3, 2, 1, 7, 7, 7, 2, 4, 2 * wo, true}});
  }
  for (const int kernel : {1, 3, 5}) {
    for (int padding = kernel / 2 + 1; padding <= kernel / 2 + 2; ++padding)
      edges.push_back({"stride 2 padding past K/2",
                       {kernel, 2, padding, 1, 3, 5, 2, 7, 11, true}});
  }
  ConvCase inf_edge{3, 1, 1, 1, 5, 6, 2, 9, 9, true};
  inf_edge.inf_edge_weight = true;
  edges.push_back({"Inf weight on an edge tap", inf_edge});
  // The bench AlexNet's convolutions: layer l maps channels[l] to
  // channels[l + 1] on sides[l] x sides[l] inputs.
  const std::int64_t channels[] = {3, 24, 48, 64, 64, 48};
  const std::int64_t sides[] = {32, 16, 8, 8, 8};
  for (const std::int64_t batch : {2, 64}) {
    for (int l = 0; l < 5; ++l) {
      const std::int64_t in = channels[l], out = channels[l + 1], hw = sides[l];
      ConvCase cc{3, 1, 1, 1, in, out, batch, hw, hw, true};
      // The evaluation batch runs the forward pass only.
      cc.backward = batch == 2;
      edges.push_back({"bench alexnet batch " + std::to_string(batch), cc});
    }
  }
  for (const auto& [label, cc] : edges)
    ASSERT_NO_FATAL_FAILURE(check_conv(cc, edge_rng, label));

  // The pointwise kernels' blocks (4 channels of one group times 8 plane
  // positions; 4 output times 8 input channels in the weight gradient):
  // channel counts 1, 2 and 3 past a multiple of 4, planes past a multiple
  // of 8, non-finite weights and inputs, -0 biases on one input channel
  // (where b + (0.0f + v) and b + v differ), and tiny MobileNetV2's and
  // ResNet's 1x1 layers at the training batch, from a generator of their
  // own.
  Rng pointwise_rng(2026);
  std::vector<std::pair<std::string, ConvCase>> pointwise;
  for (const std::int64_t tail : {1, 2, 3}) {
    for (const std::int64_t groups : {1, 3}) {
      const std::string in_groups = " tail " + std::to_string(tail) +
                                    ", groups " + std::to_string(groups);
      pointwise.push_back(
          {"pointwise input" + in_groups,
           {1, 1, 0, groups, groups * (8 + tail), groups * (4 + tail), 2, 5,
            7, true}});
      pointwise.push_back(
          {"pointwise output" + in_groups,
           {1, 1, 0, groups, groups * (4 + tail), groups * (8 + tail), 2, 5,
            7, true}});
    }
  }
  const std::int64_t planes[][2] = {{1, 1}, {3, 3}, {5, 7}, {2, 4}, {4, 4}};
  for (const auto& [h, w] : planes) {
    pointwise.push_back({"pointwise plane " + std::to_string(h * w),
                         {1, 1, 0, 1, 6, 7, 2, h, w, true}});
    pointwise.push_back({"pointwise grouped plane " + std::to_string(h * w),
                         {1, 1, 0, 3, 9, 6, 2, h, w, true}});
  }
  for (int i = 0; i < 3; ++i) {
    ConvCase cc{1, 1, 0, 1, 6, 9, 2, 3, 5, true};
    cc.non_finite_weight = true;
    pointwise.push_back({"pointwise non-finite weight", cc});
    cc.non_finite_weight = false;
    cc.non_finite_input = true;
    pointwise.push_back({"pointwise non-finite input", cc});
  }
  for (const std::int64_t groups : {1, 5}) {
    ConvCase cc{1, 1, 0, groups, groups, 10, 2, 3, 5, true};
    cc.negative_zero_bias = true;
    pointwise.push_back({"pointwise -0 bias, groups " + std::to_string(groups),
                         cc});
  }
  // in -> out on hw x hw planes, batch 16, no bias, as the models build
  // them.
  const std::int64_t layers[][3] = {{8, 8, 32},  {8, 32, 32}, {32, 16, 16},
                                    {16, 64, 16}, {64, 16, 16}, {64, 24, 8},
                                    {24, 64, 8}};
  for (const auto& [in, out, hw] : layers)
    pointwise.push_back({"tiny mobilenet_v2 pointwise",
                         {1, 1, 0, 1, in, out, 16, hw, hw, false}});
  pointwise.push_back({"tiny resnet bottleneck 1x1",
                       {1, 1, 0, 1, 32, 16, 16, 32, 32, false}});
  for (const auto& [label, cc] : pointwise)
    ASSERT_NO_FATAL_FAILURE(check_conv(cc, pointwise_rng, label));
}

TEST(KernelOracleTest, LinearMatchesTheDirectLoopsBitForBit) {
  Rng rng(77);
  for (int c = 0; c < 120; ++c) {
    // Up to 100 inputs and 80 outputs crosses the kernel's block edges.
    const std::int64_t in = 1 + draw(rng, 100);
    const std::int64_t out = 1 + draw(rng, 80);
    const std::int64_t batch = 1 + draw(rng, 3);
    Rng init(rng.next_u64());
    Linear linear(in, out, init);
    DirectLinear direct{in, out, Tensor(), Tensor(), Tensor({out, in}),
                        Tensor({out}), Tensor()};
    copy_params(linear, direct.weight_, direct.bias_);

    Tensor x = random_tensor({batch, in}, rng, 0.2);
    if (c % 7 == 0) plant_non_finite(x, rng);
    const std::string what = "case " + std::to_string(c) + ": " +
                             std::to_string(in) + "->" + std::to_string(out) +
                             " batch " + std::to_string(batch);
    const Tensor y = linear.forward(x, true);
    ASSERT_TRUE(same_bytes(y, direct.forward(x))) << what << " forward";
    for (int call = 0; call < 2; ++call) {
      const Tensor g = random_tensor(y.shape(), rng, 0.3);
      ASSERT_TRUE(same_bytes(linear.backward(g), direct.backward(g)))
          << what << " input gradient, call " << call;
    }
    const std::vector<Tensor> grads = param_grads(linear);
    ASSERT_TRUE(same_bytes(grads[0], direct.weight_grad_)) << what << " weight";
    ASSERT_TRUE(same_bytes(grads[1], direct.bias_grad_)) << what << " bias";
  }
}

TEST(KernelOracleTest, ReluMasksMatchTheDirectLoopsBitForBit) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(5);
  Tensor x = random_tensor({3, 5, 7, 9}, rng, 0.1);
  x *= 4.0f;  // many values past ReLU6's clamp
  const float specials[] = {-0.0f, 0.0f, 6.0f, 6.5f, -inf, inf, nan, -nan};
  for (std::size_t i = 0; i < std::size(specials); ++i) x[i * 31] = specials[i];
  const Tensor g = random_tensor(x.shape(), rng, 0.2);
  for (const float clamp : {0.0f, 6.0f}) {
    ReLU relu(clamp);
    DirectReLU direct{clamp, {}};
    EXPECT_TRUE(same_bytes(relu.forward(x, true), direct.forward(x)))
        << "clamp " << clamp;
    EXPECT_TRUE(same_bytes(relu.backward(g), direct.backward(g)))
        << "clamp " << clamp;
  }
  // Residual's post-ReLU: y = max(x + x, 0), zeroing NaN and -0 too.
  Residual residual(std::make_shared<Sequential>(), nullptr, true);
  const Tensor y = residual.forward(x, true);
  Tensor y_direct = x;
  y_direct += x;
  std::vector<std::uint8_t> mask(x.numel(), 0);
  for (std::size_t i = 0; i < y_direct.numel(); ++i) {
    if (y_direct[i] > 0.0f)
      mask[i] = 1;
    else
      y_direct[i] = 0.0f;
  }
  EXPECT_TRUE(same_bytes(y, y_direct));
  Tensor g_direct = g;
  for (std::size_t i = 0; i < g_direct.numel(); ++i)
    if (!mask[i]) g_direct[i] = 0.0f;
  // The identity main branch and the shortcut each pass the masked
  // gradient through: grad = masked + masked.
  Tensor expected = g_direct;
  expected += g_direct;
  EXPECT_TRUE(same_bytes(residual.backward(g), expected));
}

}  // namespace
}  // namespace fedsz::nn
