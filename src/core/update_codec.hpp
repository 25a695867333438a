// Pluggable update-compression boundary for the FL stack: the coordinator
// encodes every client->server update through an UpdateCodec, so the same
// training loop runs uncompressed (IdentityCodec, the paper's baseline) or
// with FedSZ under any compression policy (FedSzCodec). encode() receives
// the EncodeContext the coordinator threads through (round, client, local
// steps), which is what lets round- and client-aware CompressionPolicies
// resolve per-update plans; decode() reports its timing and plan census via
// CompressionStats instead of a bare seconds out-param. The context can also
// ask for the reconstruction (EncodeContext::reconstruction): FedSzCodec
// writes what decode() would return while it encodes, which is what lets
// error feedback skip decoding its own payload.
#pragma once

#include <memory>

#include "core/fedsz.hpp"

namespace fedsz::core {

class UpdateCodec {
 public:
  virtual ~UpdateCodec() = default;
  virtual std::string name() const = 0;

  /// True when decode(encode(x)) is bit-exact for every update. Error
  /// feedback is provably a no-op then, so the runtime skips its
  /// bookkeeping (the reconstruction and residual passes).
  virtual bool lossless() const { return false; }

  /// True when encode() keeps state keyed by EncodeContext::client_id (a
  /// per-client policy history), so two clients' equal inputs can encode
  /// differently. A broadcast encode is shared between clients only when
  /// this is false.
  virtual bool keyed_by_client() const { return false; }

  struct Encoded {
    Bytes payload;
    CompressionStats stats;
    /// True when the encode wrote ctx.reconstruction: it then holds, in the
    /// update's layout, exactly what decode(payload) returns. Only
    /// FedSzCodec sets it (wrappers that forward the context and the inner
    /// Encoded pass it on); a caller that finds it false and needs the
    /// reconstruction decodes the payload.
    bool reconstructed = false;
  };
  /// Encode one client update. `ctx` carries the round/client the update
  /// belongs to; policy-driven codecs use it, others ignore it.
  virtual Encoded encode(const StateDict& dict,
                         const EncodeContext& ctx) const = 0;
  /// Context-free convenience for standalone compression.
  Encoded encode(const StateDict& dict) const {
    return encode(dict, EncodeContext{});
  }
  /// `stats` (optional) receives decompress_seconds plus the byte/plan
  /// census the payload reveals.
  virtual StateDict decode(ByteSpan payload,
                           CompressionStats* stats = nullptr) const = 0;
};

using UpdateCodecPtr = std::shared_ptr<const UpdateCodec>;

/// Baseline: plain serialization, no compression.
class IdentityCodec final : public UpdateCodec {
 public:
  using UpdateCodec::encode;
  std::string name() const override { return "uncompressed"; }
  bool lossless() const override { return true; }
  Encoded encode(const StateDict& dict,
                 const EncodeContext& ctx) const override;
  StateDict decode(ByteSpan payload, CompressionStats* stats) const override;
};

/// FedSZ compression with a given configuration. The chunked pipeline's
/// `parallelism` knob flows straight through FedSzConfig: a parallel codec
/// overlaps per-chunk lossy work and the lossless partition on a thread
/// pool, while emitting the same bytes as the serial setting. The config's
/// CompressionPolicy decides every tensor's path/codec/bound (null policy =
/// the paper's Algorithm 1, SpecPolicy's threshold kind).
class FedSzCodec final : public UpdateCodec {
 public:
  using UpdateCodec::encode;
  explicit FedSzCodec(FedSzConfig config) : fedsz_(std::move(config)) {}

  std::string name() const override;
  bool keyed_by_client() const override {
    return fedsz_.policy().keyed_by_client();
  }
  Encoded encode(const StateDict& dict,
                 const EncodeContext& ctx) const override;
  StateDict decode(ByteSpan payload, CompressionStats* stats) const override;
  const FedSz& fedsz() const { return fedsz_; }

 private:
  FedSz fedsz_;
};

UpdateCodecPtr make_identity_codec();
UpdateCodecPtr make_fedsz_codec(FedSzConfig config = {});

}  // namespace fedsz::core
