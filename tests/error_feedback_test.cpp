// Property tests for ErrorFeedbackAccumulator: over any sequence of lossy
// round trips, accumulated residual + the decoded stream reconstructs the
// true update sum (nothing is silently dropped), independent of the codec's
// thread count. ErrorFeedbackPin pins whole error-feedback campaigns to
// their bytes.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <vector>

#include "core/codec_spec.hpp"
#include "core/error_feedback.hpp"
#include "core/fl/checkpoint.hpp"
#include "core/fl/coordinator.hpp"
#include "data/synthetic.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace fedsz::core {
namespace {

StateDict random_update(Rng& rng, float scale) {
  StateDict dict;
  {
    std::vector<float> values(2100);
    for (float& v : values)
      v = scale * static_cast<float>(rng.uniform(-1.0, 1.0));
    dict.set("features.0.weight", Tensor::from_data({21, 100}, values));
  }
  {
    std::vector<float> values(350);
    for (float& v : values)
      v = scale * static_cast<float>(rng.uniform(-0.1, 0.1));
    dict.set("classifier.weight", Tensor::from_data({350}, values));
  }
  {
    std::vector<float> values(24);
    for (float& v : values)
      v = scale * static_cast<float>(rng.uniform(-0.01, 0.01));
    dict.set("features.0.bias", Tensor::from_data({24}, values));
  }
  return dict;
}

// Forwards to a real codec but never asks it for a reconstruction, so
// error feedback takes its fallback: decode the payload.
class NoReconstructionCodec final : public UpdateCodec {
 public:
  using UpdateCodec::encode;
  explicit NoReconstructionCodec(UpdateCodecPtr inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  Encoded encode(const StateDict& dict,
                 const EncodeContext& ctx) const override {
    EncodeContext plain = ctx;
    plain.reconstruction = nullptr;
    return inner_->encode(dict, plain);
  }
  StateDict decode(ByteSpan payload, CompressionStats* stats) const override {
    return inner_->decode(payload, stats);
  }

 private:
  UpdateCodecPtr inner_;
};

double l2_norm(const StateDict& dict) {
  double sum = 0.0;
  for (const auto& [name, tensor] : dict)
    for (const float v : tensor.span())
      sum += static_cast<double>(v) * static_cast<double>(v);
  return std::sqrt(sum);
}

// `compensated` minus `decoded`, matched by name, as a copy and an
// add_scaled: the residual error feedback must keep, bit for bit.
StateDict residual_of(const StateDict& compensated, const StateDict& decoded) {
  StateDict residual = compensated;
  residual.add_scaled_matched(decoded, -1.0f);
  return residual;
}

void run_stream_property(const UpdateCodec& codec, std::uint64_t seed) {
  Rng rng(seed);
  ErrorFeedbackAccumulator feedback;
  EXPECT_TRUE(feedback.empty());

  StateDict true_sum;      // sum of raw updates, as the client produced them
  StateDict decoded_sum;   // sum of what the server decoded
  const int kRounds = 7;
  for (int round = 0; round < kRounds; ++round) {
    const StateDict update = random_update(rng, 1.0f / (1.0f + round));
    if (true_sum.empty())
      true_sum = update;
    else
      true_sum.add_scaled(update.reordered_like(true_sum), 1.0f);

    StateDict compensated = update;
    if (!feedback.empty())
      compensated.add_scaled_matched(feedback.residual(), 1.0f);
    EncodeContext ctx;
    ctx.round = round;
    const ErrorFeedbackAccumulator::Step step =
        feedback.encode(update, codec, ctx);
    const StateDict decoded = codec.decode(
        {step.encoded.payload.data(), step.encoded.payload.size()});
    // The residual is exactly what the server misses, in the update's
    // layout, and its norm is the one reported.
    const StateDict residual = residual_of(compensated, decoded);
    EXPECT_TRUE(feedback.residual().equals(residual)) << "round " << round;
    EXPECT_NEAR(step.residual_norm, l2_norm(residual),
                1e-12 * (1.0 + l2_norm(residual)));

    if (decoded_sum.empty())
      decoded_sum = decoded.reordered_like(update);
    else
      decoded_sum.add_scaled(decoded.reordered_like(decoded_sum), 1.0f);
  }

  // The invariant: sum of true updates == sum of decoded updates + final
  // residual, elementwise, up to float accumulation noise — the codec's
  // per-round error never leaks out of the feedback loop.
  StateDict reconstructed = decoded_sum;
  reconstructed.add_scaled(
      feedback.residual().reordered_like(decoded_sum), 1.0f);
  ASSERT_EQ(reconstructed.size(), true_sum.size());
  for (const auto& [name, tensor] : true_sum) {
    const Tensor& other = reconstructed.get(name);
    for (std::size_t i = 0; i < tensor.numel(); ++i)
      EXPECT_NEAR(tensor[i], other[i], 2e-4f)
          << name << "[" << i << "]";
  }
}

const char* const kStreamSpecs[] = {
    "fedsz:eb=rel:1e-1,threshold=100",
    "fedsz:eb=rel:1e-1,threshold=100,threads=4",
    "fedsz:eb=rel:1e-2,threshold=100,chunk=512,threads=3",
    "fedsz:eb=abs:0.05,threshold=100",
    "fedsz:eb=rel:1e-2,threshold=100,policy=layerwise",
    "fedsz:lossy=sz3,eb=rel:1e-2,threshold=100",
    "fedsz:lossy=zfp,eb=rel:1e-2,threshold=100,threads=2",
    "sparse:eb=rel:1e-2,threshold=100,sparsity=0.9",
    "identity"};

TEST(ErrorFeedbackProperty, StreamReconstructsTrueSumAtAnyThreadCount) {
  for (const char* spec : kStreamSpecs) {
    SCOPED_TRACE(spec);
    const UpdateCodecPtr codec = make_codec(spec);
    for (const std::uint64_t seed : {1ull, 77ull, 20260731ull})
      run_stream_property(*codec, seed);
  }
}

// A codec that does not reconstruct is decoded instead, and gives the same
// payloads, the same residual bytes and the same norms; only the decode's
// seconds tell the two apart.
TEST(ErrorFeedbackProperty, DecodeFallbackMatchesTheReconstruction) {
  for (const char* spec : kStreamSpecs) {
    SCOPED_TRACE(spec);
    const UpdateCodecPtr codec = make_codec(spec);
    const NoReconstructionCodec fallback(codec);
    const bool fedsz = std::string(spec) != "identity";
    ErrorFeedbackAccumulator direct, decoded;
    Rng rng(31);
    for (int round = 0; round < 4; ++round) {
      const StateDict update = random_update(rng, 1.0f);
      EncodeContext ctx;
      ctx.round = round;
      const ErrorFeedbackAccumulator::Step a =
          direct.encode(update, *codec, ctx);
      const ErrorFeedbackAccumulator::Step b =
          decoded.encode(update, fallback, ctx);
      EXPECT_EQ(a.encoded.reconstructed, fedsz);
      EXPECT_FALSE(b.encoded.reconstructed);
      EXPECT_EQ(a.encoded.payload, b.encoded.payload);
      EXPECT_TRUE(direct.residual().equals(decoded.residual()));
      EXPECT_EQ(a.residual_norm, b.residual_norm);
      if (fedsz) {
        EXPECT_EQ(a.decode_seconds, 0.0);
      }
      EXPECT_GT(b.decode_seconds, 0.0);
    }
  }
}

TEST(ErrorFeedbackProperty, LosslessCodecLeavesZeroResidual) {
  const UpdateCodecPtr codec = make_codec("identity");
  Rng rng(5);
  ErrorFeedbackAccumulator feedback;
  for (int round = 0; round < 3; ++round) {
    const ErrorFeedbackAccumulator::Step step =
        feedback.encode(random_update(rng, 1.0f), *codec, {});
    EXPECT_DOUBLE_EQ(step.residual_norm, 0.0) << "round " << round;
    EXPECT_DOUBLE_EQ(l2_norm(feedback.residual()), 0.0);
  }
}

TEST(ErrorFeedbackProperty, EncodeCompensatesThePreviousRoundsLoss) {
  const UpdateCodecPtr codec =
      make_codec("fedsz:eb=rel:1e-1,threshold=100");
  Rng rng(9);
  ErrorFeedbackAccumulator feedback;
  const StateDict update = random_update(rng, 1.0f);
  // The first encode sends the update as it is: no residual carried yet.
  const ErrorFeedbackAccumulator::Step first =
      feedback.encode(update, *codec, {});
  EXPECT_EQ(first.encoded.payload, codec->encode(update).payload);
  EXPECT_GT(first.residual_norm, 0.0);
  // The second sends the next update plus exactly that residual.
  const StateDict carried = feedback.residual();
  const StateDict next = random_update(rng, 1.0f);
  StateDict compensated = next;
  compensated.add_scaled_matched(carried, 1.0f);
  const ErrorFeedbackAccumulator::Step second =
      feedback.encode(next, *codec, {});
  EXPECT_EQ(second.encoded.payload, codec->encode(compensated).payload);
}

TEST(ErrorFeedbackProperty, EncodeRejectsAnUpdateOfAnotherStructure) {
  const UpdateCodecPtr codec = make_codec("fedsz:eb=rel:1e-1,threshold=100");
  ErrorFeedbackAccumulator feedback;
  Rng rng(2);
  feedback.encode(random_update(rng, 1.0f), *codec, {});
  StateDict wrong;
  wrong.set("other", Tensor::zeros({4}));
  EXPECT_THROW(feedback.encode(wrong, *codec, {}), InvalidArgument);
  EXPECT_FALSE(feedback.empty());  // the carried residual is untouched
  // An encode that throws drops the residual rather than leave it half
  // overwritten by a reconstruction.
  StateDict bad = random_update(rng, 1.0f);
  bad.get_mutable("features.0.weight")[3] = std::nanf("");
  EXPECT_THROW(feedback.encode(bad, *codec, {}), InvalidArgument);
  EXPECT_TRUE(feedback.empty());
}

// ---- pinned error-feedback campaigns ----

std::uint32_t crc_of(const StateDict& dict) {
  const Bytes bytes = dict.serialize();
  return util::crc32({bytes.data(), bytes.size()});
}

struct EfPin {
  const char* spec;
  std::vector<std::size_t> bytes_sent;      // per round
  std::vector<std::size_t> backhaul_bytes;  // per round
  std::uint32_t global_crc;    // final global state
  std::uint32_t residual_crc;  // every client and edge residual, in order
};

// Four tiny-MobileNetV2 clients for three rounds. Each update's residual
// feeds the next round's payload, so a residual that moves by one bit
// moves the bytes and the final model. The last round's checkpoint holds
// the final global and every residual.
void expect_pinned_campaign(const EfPin& pin) {
  SCOPED_TRACE(pin.spec);
  const std::filesystem::path checkpoint =
      std::filesystem::temp_directory_path() /
      ("fedsz_ef_pin_" + std::to_string(::getpid()) + ".ck");
  auto [train, test] = data::make_dataset("cifar10");
  const CodecSpec spec = parse_codec_spec(pin.spec);
  FlRunConfig config;
  config.apply_comm_spec(spec);
  config.clients = 4;
  config.rounds = 3;
  config.eval_limit = 32;
  config.threads = 2;
  config.seed = 17;
  config.client.batch_size = 8;
  config.evaluate_every_round = false;
  config.checkpoint_path = checkpoint.string();
  config.checkpoint_every = 1;
  ASSERT_TRUE(config.error_feedback);
  nn::ModelConfig model;
  model.arch = "mobilenet_v2";
  model.scale = nn::ModelScale::kTiny;
  FlCoordinator coordinator(model, data::take(train, 64),
                            data::take(test, 32), config, make_codec(spec));
  const FlRunResult result = coordinator.run();
  const std::optional<CheckpointState> state =
      read_checkpoint(checkpoint.string());
  std::filesystem::remove(checkpoint);
  ASSERT_TRUE(state.has_value());

  std::vector<std::size_t> bytes_sent, backhaul_bytes;
  for (const RoundRecord& record : result.rounds) {
    bytes_sent.push_back(record.bytes_sent);
    backhaul_bytes.push_back(record.backhaul_bytes);
  }
  std::uint32_t residual_crc = 0;
  for (const std::vector<StateDict>* residuals :
       {&state->client_residuals, &state->edge_residuals})
    for (const StateDict& residual : *residuals) {
      const Bytes bytes = residual.serialize();
      residual_crc =
          util::crc32_update(residual_crc, {bytes.data(), bytes.size()});
    }
  EXPECT_EQ(bytes_sent, pin.bytes_sent);
  EXPECT_EQ(backhaul_bytes, pin.backhaul_bytes);
  EXPECT_EQ(crc_of(state->global_state), pin.global_crc);
  EXPECT_EQ(residual_crc, pin.residual_crc);
}

// Client error feedback over the SZ2 container, edge error feedback over a
// lossy backhaul, the sparse path, SZ2 at a bound tight enough that some
// residuals leave the quantizer's range and ship verbatim, and ZFP inside
// the container. Pinned from the runs themselves: nothing else holds an
// error-feedback trajectory's bytes, since every other error-feedback test
// compares one run of a build with another run of the same build.
TEST(ErrorFeedbackPin, CampaignsReproduceThePinnedBytes) {
  const EfPin pins[] = {
      {"fedsz:eb=rel:1e-1,ef=on",
       {92221, 92586, 92654},
       {0, 0, 0},
       200050758u,
       3773518701u},
      {"fedsz:eb=rel:1e-1,ef=on,topology=hier:2,edgeef=on,"
       "backhaul=fedsz:eb=rel:1e-1",
       {92221, 92622, 92815},
       {46105, 46260, 46361},
       169214198u,
       3951173592u},
      {"sparse:eb=rel:1e-2,sparsity=0.9,ef=on",
       {87448, 87817, 88171},
       {0, 0, 0},
       1987979351u,
       102642544u},
      {"fedsz:eb=rel:1e-6,ef=on",
       {187362, 187774, 187936},
       {0, 0, 0},
       690979561u,
       210942985u},
      {"fedsz:lossy=zfp,eb=rel:1e-2,ef=on",
       {117127, 117545, 117743},
       {0, 0, 0},
       419619059u,
       299596702u},
  };
  for (const EfPin& pin : pins) expect_pinned_campaign(pin);
}

}  // namespace
}  // namespace fedsz::core
