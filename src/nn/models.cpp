#include "nn/models.hpp"

#include <memory>

#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/layers.hpp"
#include "nn/sequential.hpp"
#include "util/rng.hpp"

namespace fedsz::nn {

namespace {

/// Tracks activation dimensions and accumulated FLOPs while stacking layers.
struct Builder {
  Rng rng;
  std::int64_t channels;
  std::int64_t height;
  std::int64_t width;
  double flops = 0.0;

  Builder(std::uint64_t seed, std::int64_t c, std::int64_t hw)
      : rng(seed), channels(c), height(hw), width(hw) {}

  ModulePtr conv(std::int64_t out_c, int kernel, int stride, int padding,
                 std::int64_t groups = 1, bool bias = true) {
    if (height + 2 * padding < kernel || width + 2 * padding < kernel)
      throw InvalidArgument("model builder: image too small for convolution");
    auto layer = std::make_shared<Conv2d>(channels, out_c, kernel, stride,
                                          padding, groups, bias, rng);
    const std::int64_t ho = (height + 2 * padding - kernel) / stride + 1;
    const std::int64_t wo = (width + 2 * padding - kernel) / stride + 1;
    flops += 2.0 * static_cast<double>(kernel) * kernel *
             static_cast<double>(channels / groups) *
             static_cast<double>(out_c) * static_cast<double>(ho * wo);
    channels = out_c;
    height = ho;
    width = wo;
    return layer;
  }

  ModulePtr bn() { return std::make_shared<BatchNorm2d>(channels); }

  ModulePtr maxpool(int kernel, int stride) {
    if (height < kernel || width < kernel)
      throw InvalidArgument("model builder: image too small for pooling");
    auto layer = std::make_shared<MaxPool2d>(kernel, stride);
    height = (height - kernel) / stride + 1;
    width = (width - kernel) / stride + 1;
    return layer;
  }

  ModulePtr global_pool() {
    auto layer = std::make_shared<GlobalAvgPool>();
    height = 1;
    width = 1;
    return layer;
  }

  ModulePtr linear(std::int64_t in, std::int64_t out) {
    flops += 2.0 * static_cast<double>(in) * static_cast<double>(out);
    return std::make_shared<Linear>(in, out, rng);
  }

  std::int64_t flat_features() const { return channels * height * width; }
};

// ---- AlexNet analogue ----

BuiltModel build_alexnet(const ModelConfig& cfg) {
  struct Widths {
    std::int64_t c1, c2, c3, fc;
  };
  Widths w{};
  switch (cfg.scale) {
    case ModelScale::kTiny:
      w = {8, 12, 16, 64};
      break;
    case ModelScale::kBench:
      w = {24, 48, 64, 512};
      break;
    case ModelScale::kPaper:
      w = {64, 192, 384, 4096};
      break;
  }
  Builder b(cfg.seed, cfg.in_channels, cfg.image_size);
  auto features = std::make_shared<Sequential>();
  features->add(b.conv(w.c1, 3, 1, 1));
  features->add(std::make_shared<ReLU>());
  features->add(b.maxpool(2, 2));
  features->add(b.conv(w.c2, 3, 1, 1));
  features->add(std::make_shared<ReLU>());
  features->add(b.maxpool(2, 2));
  features->add(b.conv(w.c3, 3, 1, 1));
  features->add(std::make_shared<ReLU>());
  features->add(b.conv(w.c3, 3, 1, 1));
  features->add(std::make_shared<ReLU>());
  features->add(b.conv(w.c2, 3, 1, 1));
  features->add(std::make_shared<ReLU>());
  features->add(b.maxpool(2, 2));

  auto classifier = std::make_shared<Sequential>();
  classifier->add(std::make_shared<Dropout>(0.5f, cfg.seed ^ 0xD06));
  classifier->add(b.linear(b.flat_features(), w.fc));
  classifier->add(std::make_shared<ReLU>());
  classifier->add(std::make_shared<Dropout>(0.5f, cfg.seed ^ 0xD07));
  classifier->add(b.linear(w.fc, w.fc));
  classifier->add(std::make_shared<ReLU>());
  classifier->add(b.linear(w.fc, cfg.num_classes));

  auto root = std::make_shared<Sequential>();
  root->add(features);
  root->add(std::make_shared<Flatten>());
  root->add(classifier);
  return {Model(root), b.flops};
}

// ---- MobileNetV2 analogue ----

ModulePtr inverted_residual(Builder& b, std::int64_t out_c, int stride,
                            std::int64_t expand) {
  const std::int64_t in_c = b.channels;
  const std::int64_t hidden = in_c * expand;
  auto main = std::make_shared<Sequential>();
  if (expand != 1) {
    main->add(b.conv(hidden, 1, 1, 0, 1, /*bias=*/false));
    main->add(b.bn());
    main->add(std::make_shared<ReLU>(6.0f));
  }
  main->add(b.conv(hidden, 3, stride, 1, /*groups=*/hidden, /*bias=*/false));
  main->add(b.bn());
  main->add(std::make_shared<ReLU>(6.0f));
  main->add(b.conv(out_c, 1, 1, 0, 1, /*bias=*/false));
  main->add(b.bn());
  if (stride == 1 && in_c == out_c)
    return std::make_shared<Residual>(main, nullptr, /*post_relu=*/false);
  return main;
}

BuiltModel build_mobilenet_v2(const ModelConfig& cfg) {
  struct BlockSpec {
    std::int64_t expand, out_c;
    int repeats, stride;
  };
  std::int64_t stem = 0, head = 0;
  std::vector<BlockSpec> blocks;
  switch (cfg.scale) {
    case ModelScale::kTiny:
      // Sized so a few expand/project convolutions exceed FedSZ's default
      // 1000-element lossy threshold (as every real MobileNet does).
      stem = 8;
      head = 64;
      blocks = {{1, 8, 1, 1}, {4, 16, 2, 2}, {4, 24, 1, 2}};
      break;
    case ModelScale::kBench:
      stem = 16;
      head = 128;
      blocks = {{1, 16, 1, 1}, {6, 24, 2, 2}, {6, 32, 2, 2}, {6, 64, 2, 1}};
      break;
    case ModelScale::kPaper:
      stem = 32;
      head = 1280;
      blocks = {{1, 16, 1, 1},  {6, 24, 2, 2}, {6, 32, 3, 2}, {6, 64, 4, 2},
                {6, 96, 3, 1},  {6, 160, 3, 2}, {6, 320, 1, 1}};
      break;
  }
  Builder b(cfg.seed, cfg.in_channels, cfg.image_size);
  auto features = std::make_shared<Sequential>();
  features->add(b.conv(stem, 3, 1, 1, 1, /*bias=*/false));
  features->add(b.bn());
  features->add(std::make_shared<ReLU>(6.0f));
  for (const BlockSpec& spec : blocks) {
    for (int i = 0; i < spec.repeats; ++i) {
      const int stride = i == 0 ? spec.stride : 1;
      features->add(inverted_residual(b, spec.out_c, stride, spec.expand));
    }
  }
  features->add(b.conv(head, 1, 1, 0, 1, /*bias=*/false));
  features->add(b.bn());
  features->add(std::make_shared<ReLU>(6.0f));
  features->add(b.global_pool());

  auto root = std::make_shared<Sequential>();
  root->add(features);
  root->add(std::make_shared<Flatten>());
  root->add(b.linear(head, cfg.num_classes));
  return {Model(root), b.flops};
}

// ---- ResNet analogue (bottleneck blocks) ----

ModulePtr bottleneck(Builder& b, std::int64_t mid_c, int stride) {
  constexpr std::int64_t kExpansion = 4;
  const std::int64_t in_c = b.channels;
  const std::int64_t out_c = mid_c * kExpansion;
  // The shortcut sees the block's input geometry; snapshot it.
  const std::int64_t in_h = b.height, in_w = b.width;

  auto main = std::make_shared<Sequential>();
  main->add(b.conv(mid_c, 1, 1, 0, 1, /*bias=*/false));
  main->add(b.bn());
  main->add(std::make_shared<ReLU>());
  main->add(b.conv(mid_c, 3, stride, 1, 1, /*bias=*/false));
  main->add(b.bn());
  main->add(std::make_shared<ReLU>());
  main->add(b.conv(out_c, 1, 1, 0, 1, /*bias=*/false));
  main->add(b.bn());

  ModulePtr shortcut;
  if (stride != 1 || in_c != out_c) {
    Builder side(b.rng.next_u64(), in_c, 1);
    side.height = in_h;
    side.width = in_w;
    auto sc = std::make_shared<Sequential>();
    sc->add(side.conv(out_c, 1, stride, 0, 1, /*bias=*/false));
    sc->add(side.bn());
    b.flops += side.flops;
    shortcut = sc;
  }
  return std::make_shared<Residual>(main, shortcut, /*post_relu=*/true);
}

BuiltModel build_resnet(const ModelConfig& cfg) {
  std::int64_t base = 0;
  std::vector<int> block_counts;
  switch (cfg.scale) {
    case ModelScale::kTiny:
      base = 8;
      block_counts = {1, 1};
      break;
    case ModelScale::kBench:
      base = 16;
      block_counts = {2, 2, 2};
      break;
    case ModelScale::kPaper:
      base = 64;
      block_counts = {3, 4, 6, 3};  // ResNet50
      break;
  }
  Builder b(cfg.seed, cfg.in_channels, cfg.image_size);
  auto features = std::make_shared<Sequential>();
  features->add(b.conv(base, 3, 1, 1, 1, /*bias=*/false));
  features->add(b.bn());
  features->add(std::make_shared<ReLU>());
  std::int64_t mid = base;
  for (std::size_t stage = 0; stage < block_counts.size(); ++stage) {
    for (int i = 0; i < block_counts[stage]; ++i) {
      const int stride = (stage > 0 && i == 0) ? 2 : 1;
      features->add(bottleneck(b, mid, stride));
    }
    mid *= 2;
  }
  features->add(b.global_pool());

  auto root = std::make_shared<Sequential>();
  root->add(features);
  root->add(std::make_shared<Flatten>());
  root->add(b.linear(b.flat_features(), cfg.num_classes));
  return {Model(root), b.flops};
}

}  // namespace

BuiltModel build_model(const ModelConfig& config) {
  if (config.image_size < 8)
    throw InvalidArgument("build_model: image_size must be >= 8");
  if (config.arch == "alexnet") return build_alexnet(config);
  if (config.arch == "mobilenet_v2") return build_mobilenet_v2(config);
  if (config.arch == "resnet") return build_resnet(config);
  throw InvalidArgument("build_model: unknown architecture '" + config.arch +
                        "'");
}

std::vector<std::string> model_architectures() {
  return {"mobilenet_v2", "resnet", "alexnet"};
}

std::string model_display_name(const std::string& arch) {
  if (arch == "alexnet") return "AlexNet";
  if (arch == "mobilenet_v2") return "MobileNet-V2";
  if (arch == "resnet") return "ResNet50";
  throw InvalidArgument("model_display_name: unknown architecture");
}

}  // namespace fedsz::nn
