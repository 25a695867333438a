// Layer-level tests: numerical gradient checks for every layer type (the
// backbone correctness property of the training substrate), shape handling,
// and BatchNorm running-statistics semantics.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/sequential.hpp"
#include "util/rng.hpp"

namespace fedsz::nn {
namespace {

Tensor random_input(Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

/// Compare analytic parameter gradients against central differences through
/// a cross-entropy head. Checks up to `per_param` entries per parameter.
void expect_gradients_match(Model& model, const Tensor& input,
                            const std::vector<int>& labels,
                            double tolerance = 0.05,
                            std::size_t per_param = 4) {
  model.zero_grad();
  const Tensor logits = model.forward(input, true);
  const LossResult loss =
      softmax_cross_entropy(logits, {labels.data(), labels.size()});
  model.backward(loss.grad_logits);
  for (const ParamRef& p : model.parameters()) {
    const std::size_t stride =
        std::max<std::size_t>(1, p.value->numel() / per_param);
    for (std::size_t i = 0; i < p.value->numel(); i += stride) {
      const float original = (*p.value)[i];
      const float h = 1e-3f;
      (*p.value)[i] = original + h;
      const double loss_plus =
          softmax_cross_entropy(model.forward(input, true),
                                {labels.data(), labels.size()})
              .loss;
      (*p.value)[i] = original - h;
      const double loss_minus =
          softmax_cross_entropy(model.forward(input, true),
                                {labels.data(), labels.size()})
              .loss;
      (*p.value)[i] = original;
      const double numeric = (loss_plus - loss_minus) / (2.0 * h);
      const double analytic = (*p.grad)[i];
      const double denom =
          std::max(1e-3, std::fabs(numeric) + std::fabs(analytic));
      EXPECT_LT(std::fabs(numeric - analytic) / denom, tolerance)
          << p.name << "[" << i << "]: numeric=" << numeric
          << " analytic=" << analytic;
    }
  }
}

// ---- gradient checks ----

TEST(GradCheck, Linear) {
  Rng rng(1);
  auto root = std::make_shared<Sequential>();
  root->add(std::make_shared<Flatten>());
  root->add(std::make_shared<Linear>(12, 4, rng));
  Model model(root);
  expect_gradients_match(model, random_input({3, 12, 1, 1}, 2), {0, 1, 2});
}

TEST(GradCheck, ConvStride1) {
  Rng rng(3);
  auto root = std::make_shared<Sequential>();
  root->add(std::make_shared<Conv2d>(2, 4, 3, 1, 1, 1, true, rng));
  root->add(std::make_shared<Flatten>());
  root->add(std::make_shared<Linear>(4 * 6 * 6, 3, rng));
  Model model(root);
  expect_gradients_match(model, random_input({2, 2, 6, 6}, 4), {0, 2});
}

TEST(GradCheck, ConvStride2NoPadding) {
  Rng rng(5);
  auto root = std::make_shared<Sequential>();
  root->add(std::make_shared<Conv2d>(3, 5, 3, 2, 0, 1, true, rng));
  root->add(std::make_shared<Flatten>());
  root->add(std::make_shared<Linear>(5 * 3 * 3, 3, rng));
  Model model(root);
  expect_gradients_match(model, random_input({2, 3, 7, 7}, 6), {1, 2});
}

TEST(GradCheck, DepthwiseConv) {
  Rng rng(7);
  auto root = std::make_shared<Sequential>();
  root->add(std::make_shared<Conv2d>(4, 4, 3, 1, 1, /*groups=*/4, false, rng));
  root->add(std::make_shared<Flatten>());
  root->add(std::make_shared<Linear>(4 * 5 * 5, 3, rng));
  Model model(root);
  expect_gradients_match(model, random_input({2, 4, 5, 5}, 8), {0, 1});
}

TEST(GradCheck, GroupedConv) {
  Rng rng(9);
  auto root = std::make_shared<Sequential>();
  root->add(std::make_shared<Conv2d>(4, 6, 3, 1, 1, /*groups=*/2, true, rng));
  root->add(std::make_shared<Flatten>());
  root->add(std::make_shared<Linear>(6 * 4 * 4, 2, rng));
  Model model(root);
  expect_gradients_match(model, random_input({2, 4, 4, 4}, 10), {0, 1});
}

TEST(GradCheck, BatchNormTraining) {
  Rng rng(11);
  auto root = std::make_shared<Sequential>();
  root->add(std::make_shared<Conv2d>(2, 4, 3, 1, 1, 1, false, rng));
  root->add(std::make_shared<BatchNorm2d>(4));
  root->add(std::make_shared<GlobalAvgPool>());
  root->add(std::make_shared<Flatten>());
  root->add(std::make_shared<Linear>(4, 3, rng));
  Model model(root);
  // BN updates running stats every forward; gradcheck's extra forwards only
  // shift them, not the batch statistics used in training mode.
  expect_gradients_match(model, random_input({4, 2, 5, 5}, 12), {0, 1, 2, 0});
}

TEST(GradCheck, MaxPool) {
  Rng rng(13);
  auto root = std::make_shared<Sequential>();
  root->add(std::make_shared<Conv2d>(2, 3, 3, 1, 1, 1, true, rng));
  root->add(std::make_shared<MaxPool2d>(2, 2));
  root->add(std::make_shared<Flatten>());
  root->add(std::make_shared<Linear>(3 * 3 * 3, 2, rng));
  Model model(root);
  expect_gradients_match(model, random_input({2, 2, 6, 6}, 14), {0, 1});
}

TEST(GradCheck, ResidualWithShortcut) {
  Rng rng(15);
  auto main = std::make_shared<Sequential>();
  main->add(std::make_shared<Conv2d>(3, 6, 3, 1, 1, 1, false, rng));
  main->add(std::make_shared<BatchNorm2d>(6));
  auto shortcut = std::make_shared<Sequential>();
  shortcut->add(std::make_shared<Conv2d>(3, 6, 1, 1, 0, 1, false, rng));
  shortcut->add(std::make_shared<BatchNorm2d>(6));
  auto root = std::make_shared<Sequential>();
  root->add(std::make_shared<Residual>(main, shortcut, true));
  root->add(std::make_shared<GlobalAvgPool>());
  root->add(std::make_shared<Flatten>());
  root->add(std::make_shared<Linear>(6, 3, rng));
  Model model(root);
  expect_gradients_match(model, random_input({3, 3, 5, 5}, 16), {0, 1, 2});
}

TEST(GradCheck, IdentityResidual) {
  Rng rng(17);
  auto main = std::make_shared<Sequential>();
  main->add(std::make_shared<Conv2d>(4, 4, 3, 1, 1, 1, true, rng));
  auto root = std::make_shared<Sequential>();
  root->add(std::make_shared<Residual>(main, nullptr, false));
  root->add(std::make_shared<Flatten>());
  root->add(std::make_shared<Linear>(4 * 4 * 4, 2, rng));
  Model model(root);
  expect_gradients_match(model, random_input({2, 4, 4, 4}, 18), {0, 1});
}

// ---- layer behaviours ----

TEST(ReLUTest, ClampsNegativeAndAboveSix) {
  ReLU relu6(6.0f);
  Tensor in = Tensor::from_data({4}, {-1.0f, 0.5f, 6.0f, 9.0f});
  const Tensor out = relu6.forward(in, true);
  EXPECT_EQ(out[0], 0.0f);
  EXPECT_EQ(out[1], 0.5f);
  EXPECT_EQ(out[2], 6.0f);
  EXPECT_EQ(out[3], 6.0f);
  const Tensor grad =
      relu6.backward(Tensor::from_data({4}, {1.0f, 1.0f, 1.0f, 1.0f}));
  EXPECT_EQ(grad[0], 0.0f);
  EXPECT_EQ(grad[1], 1.0f);
  EXPECT_EQ(grad[3], 0.0f);  // clamped region has zero gradient
}

TEST(MaxPoolTest, SelectsMaximumAndRoutesGradient) {
  MaxPool2d pool(2, 2);
  Tensor in = Tensor::from_data({1, 1, 2, 2}, {1.0f, 5.0f, 3.0f, 2.0f});
  const Tensor out = pool.forward(in, true);
  ASSERT_EQ(out.numel(), 1u);
  EXPECT_EQ(out[0], 5.0f);
  const Tensor grad = pool.backward(Tensor::from_data({1, 1, 1, 1}, {2.0f}));
  EXPECT_EQ(grad[1], 2.0f);
  EXPECT_EQ(grad[0], 0.0f);
}

TEST(GlobalAvgPoolTest, AveragesAndDistributes) {
  GlobalAvgPool pool;
  Tensor in = Tensor::from_data({1, 1, 2, 2}, {1.0f, 2.0f, 3.0f, 6.0f});
  const Tensor out = pool.forward(in, true);
  EXPECT_FLOAT_EQ(out[0], 3.0f);
  const Tensor grad = pool.backward(Tensor::from_data({1, 1, 1, 1}, {4.0f}));
  for (std::size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(grad[i], 1.0f);
}

TEST(BatchNormTest, NormalizesBatchInTraining) {
  BatchNorm2d bn(2);
  Tensor in = random_input({8, 2, 4, 4}, 19);
  const Tensor out = bn.forward(in, true);
  // Per-channel mean ~0, var ~1 after normalization with default gamma/beta.
  for (int c = 0; c < 2; ++c) {
    double sum = 0.0, sum_sq = 0.0;
    int count = 0;
    for (int n = 0; n < 8; ++n)
      for (int i = 0; i < 16; ++i) {
        const float v = out[(n * 2 + c) * 16 + i];
        sum += v;
        sum_sq += v * v;
        ++count;
      }
    EXPECT_NEAR(sum / count, 0.0, 1e-4);
    EXPECT_NEAR(sum_sq / count, 1.0, 1e-2);
  }
}

TEST(BatchNormTest, RunningStatsConvergeToDataStats) {
  BatchNorm2d bn(1);
  Rng rng(21);
  for (int step = 0; step < 200; ++step) {
    Tensor in({16, 1, 2, 2});
    for (std::size_t i = 0; i < in.numel(); ++i)
      in[i] = static_cast<float>(rng.normal(3.0, 2.0));
    bn.forward(in, true);
  }
  std::vector<ParamRef> params;
  std::vector<BufferRef> buffers;
  bn.collect("bn.", params, buffers);
  ASSERT_EQ(buffers.size(), 3u);
  EXPECT_EQ(buffers[0].name, "bn.running_mean");
  EXPECT_NEAR((*buffers[0].value)[0], 3.0f, 0.3f);
  EXPECT_EQ(buffers[1].name, "bn.running_var");
  EXPECT_NEAR((*buffers[1].value)[0], 4.0f, 0.8f);
  EXPECT_EQ(buffers[2].name, "bn.num_batches_tracked");
  EXPECT_EQ((*buffers[2].value)[0], 200.0f);
}

TEST(BatchNormTest, EvalModeUsesRunningStats) {
  BatchNorm2d bn(1);
  Tensor in = Tensor::from_data({1, 1, 1, 2}, {10.0f, 20.0f});
  // Untouched running stats: mean 0, var 1 -> eval output == input (approx).
  const Tensor out = bn.forward(in, false);
  EXPECT_NEAR(out[0], 10.0f, 1e-3);
  EXPECT_NEAR(out[1], 20.0f, 1e-3);
}

TEST(DropoutTest, InactiveInEvalMode) {
  Dropout dropout(0.5f, 23);
  Tensor in = Tensor::full({100}, 1.0f);
  const Tensor out = dropout.forward(in, false);
  for (std::size_t i = 0; i < out.numel(); ++i) EXPECT_EQ(out[i], 1.0f);
}

TEST(DropoutTest, DropsAndRescalesInTraining) {
  Dropout dropout(0.5f, 25);
  Tensor in = Tensor::full({10000}, 1.0f);
  const Tensor out = dropout.forward(in, true);
  std::size_t zeros = 0;
  double sum = 0.0;
  for (std::size_t i = 0; i < out.numel(); ++i) {
    if (out[i] == 0.0f)
      ++zeros;
    else
      EXPECT_FLOAT_EQ(out[i], 2.0f);  // inverted-dropout scaling
    sum += out[i];
  }
  EXPECT_NEAR(static_cast<double>(zeros) / out.numel(), 0.5, 0.05);
  EXPECT_NEAR(sum / out.numel(), 1.0, 0.1);  // expectation preserved
}

TEST(DropoutTest, InvalidProbabilityThrows) {
  EXPECT_THROW(Dropout(-0.1f, 1), InvalidArgument);
  EXPECT_THROW(Dropout(1.0f, 1), InvalidArgument);
}

TEST(LayerShapes, ConvOutputGeometry) {
  Rng rng(27);
  Conv2d conv(3, 8, 3, 2, 1, 1, true, rng);
  const Tensor out = conv.forward(random_input({2, 3, 32, 32}, 28), true);
  EXPECT_EQ(out.shape(), (Shape{2, 8, 16, 16}));
}

TEST(LayerShapes, ShapeMismatchesThrow) {
  Rng rng(29);
  Conv2d conv(3, 8, 3, 1, 1, 1, true, rng);
  EXPECT_THROW(conv.forward(random_input({2, 4, 8, 8}, 30), true),
               InvalidArgument);
  Linear linear(10, 5, rng);
  EXPECT_THROW(linear.forward(random_input({2, 11}, 31), true),
               InvalidArgument);
  EXPECT_THROW(Conv2d(3, 8, 3, 1, 1, 2, true, rng), InvalidArgument);
  // Inputs smaller than the window: (H - kernel) / stride + 1 truncates a
  // small negative numerator to 1, so these must be rejected before it.
  MaxPool2d pool(2, 2);
  EXPECT_THROW(pool.forward(random_input({1, 1, 1, 1}, 32), true),
               InvalidArgument);
  EXPECT_THROW(pool.forward(random_input({1, 1, 4, 1}, 32), true),
               InvalidArgument);
  Conv2d strided(1, 1, 3, 2, 0, 1, true, rng);
  EXPECT_THROW(strided.forward(random_input({1, 1, 2, 2}, 32), true),
               InvalidArgument);
  EXPECT_THROW(strided.forward(random_input({1, 1, 3, 2}, 32), true),
               InvalidArgument);
  EXPECT_EQ(strided.forward(random_input({1, 1, 3, 3}, 32), true).shape(),
            (Shape{1, 1, 1, 1}));
  Conv2d padded(1, 1, 5, 2, 1, 1, true, rng);
  EXPECT_THROW(padded.forward(random_input({1, 1, 2, 2}, 32), true),
               InvalidArgument);
  EXPECT_EQ(padded.forward(random_input({1, 1, 3, 3}, 32), true).shape(),
            (Shape{1, 1, 1, 1}));
  // The backward indexes the output gradient by the forward's geometry, so
  // a gradient of any other shape must be rejected before it is read.
  Conv2d pointwise(3, 8, 1, 1, 0, 1, true, rng);
  pointwise.forward(random_input({2, 3, 4, 4}, 33), true);
  for (const Shape& bad : {Shape{2, 8, 2, 2}, Shape{2, 8, 4, 3},
                           Shape{2, 8, 16}, Shape{1, 8, 4, 4},
                           Shape{2, 4, 4, 4}}) {
    EXPECT_THROW(pointwise.backward(random_input(bad, 34)), InvalidArgument)
        << Tensor(bad).shape_string();
  }
  EXPECT_EQ(pointwise.backward(random_input({2, 8, 4, 4}, 34)).shape(),
            (Shape{2, 3, 4, 4}));
  Conv2d windowed(2, 4, 3, 1, 1, 1, true, rng);
  windowed.forward(random_input({1, 2, 4, 4}, 35), true);
  for (const Shape& bad : {Shape{1, 4, 3, 3}, Shape{1, 4, 5, 4}}) {
    EXPECT_THROW(windowed.backward(random_input(bad, 36)), InvalidArgument)
        << Tensor(bad).shape_string();
  }
  EXPECT_EQ(windowed.backward(random_input({1, 4, 4, 4}, 36)).shape(),
            (Shape{1, 2, 4, 4}));
}

// An evaluation forward caches no input, so a backward after it has
// nothing to differentiate, not even the input of an earlier training
// forward.

TEST(EvalForward, Conv2dBackwardAfterItThrows) {
  Rng rng(39);
  const Tensor image = random_input({2, 3, 5, 5}, 40);
  const Tensor grad = random_input({2, 4, 5, 5}, 41);
  Conv2d conv(3, 4, 3, 1, 1, 1, true, rng);
  EXPECT_THROW(conv.backward(grad), InvalidArgument);
  conv.forward(image, true);
  conv.forward(image, false);
  EXPECT_THROW(conv.backward(grad), InvalidArgument);
  conv.forward(image, true);
  EXPECT_EQ(conv.backward(grad).shape(), image.shape());
}

TEST(EvalForward, LinearBackwardAfterItThrows) {
  Rng rng(42);
  const Tensor row = random_input({2, 6}, 43);
  const Tensor grad = random_input({2, 3}, 44);
  Linear linear(6, 3, rng);
  EXPECT_THROW(linear.backward(grad), InvalidArgument);
  linear.forward(row, true);
  linear.forward(row, false);
  EXPECT_THROW(linear.backward(grad), InvalidArgument);
  linear.forward(row, true);
  EXPECT_EQ(linear.backward(grad).shape(), row.shape());
}

TEST(EvalForward, BatchNormBackwardAfterItThrows) {
  const Tensor image = random_input({2, 3, 5, 5}, 45);
  const Tensor grad = random_input({2, 3, 5, 5}, 46);
  BatchNorm2d bn(3);
  EXPECT_THROW(bn.backward(grad), InvalidArgument);
  bn.forward(image, true);
  bn.forward(image, false);
  EXPECT_THROW(bn.backward(grad), InvalidArgument);
  bn.forward(image, true);
  EXPECT_EQ(bn.backward(grad).shape(), image.shape());
}

TEST(LossTest, SoftmaxRowsSumToOne) {
  const Tensor logits = random_input({5, 7}, 33);
  const Tensor probs = softmax(logits);
  for (int n = 0; n < 5; ++n) {
    double sum = 0.0;
    for (int c = 0; c < 7; ++c) sum += probs[n * 7 + c];
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(LossTest, CrossEntropyOfUniformLogitsIsLogC) {
  Tensor logits({4, 10});
  const LossResult result =
      softmax_cross_entropy(logits, std::vector<int>{0, 3, 5, 9});
  EXPECT_NEAR(result.loss, std::log(10.0), 1e-5);
}

TEST(LossTest, GradientSumsToZeroPerRow) {
  const Tensor logits = random_input({3, 5}, 35);
  const LossResult result =
      softmax_cross_entropy(logits, std::vector<int>{1, 2, 4});
  for (int n = 0; n < 3; ++n) {
    double sum = 0.0;
    for (int c = 0; c < 5; ++c) sum += result.grad_logits[n * 5 + c];
    EXPECT_NEAR(sum, 0.0, 1e-6);
  }
}

TEST(LossTest, InvalidLabelsThrow) {
  Tensor logits({2, 3});
  EXPECT_THROW(softmax_cross_entropy(logits, std::vector<int>{0, 3}),
               InvalidArgument);
  EXPECT_THROW(softmax_cross_entropy(logits, std::vector<int>{0}),
               InvalidArgument);
}

}  // namespace
}  // namespace fedsz::nn
