#include "core/update_codec.hpp"

#include "util/timer.hpp"

namespace fedsz::core {

UpdateCodec::Encoded IdentityCodec::encode(const StateDict& dict,
                                           const EncodeContext&) const {
  Timer timer;
  Encoded encoded;
  encoded.payload = dict.serialize();
  // "Original" is what an uncompressed transfer would ship: the serialized
  // update (tensor payloads plus name/shape headers). Ratio is exactly 1.
  encoded.stats.original_bytes = encoded.payload.size();
  encoded.stats.compressed_bytes = encoded.payload.size();
  encoded.stats.lossless_original_bytes = encoded.stats.original_bytes;
  encoded.stats.lossless_compressed_bytes = encoded.payload.size();
  encoded.stats.lossless_tensors = dict.size();
  encoded.stats.compress_seconds = timer.seconds();
  return encoded;
}

StateDict IdentityCodec::decode(ByteSpan payload,
                                CompressionStats* stats) const {
  Timer timer;
  StateDict dict = StateDict::deserialize(payload);
  if (stats) {
    *stats = CompressionStats{};
    stats->compressed_bytes = payload.size();
    stats->original_bytes = dict.total_bytes();
    stats->lossless_tensors = dict.size();
    stats->decompress_seconds = timer.seconds();
  }
  return dict;
}

std::string FedSzCodec::name() const {
  return "fedsz-" + lossy::lossy_codec(fedsz_.config().lossy_id).name();
}

UpdateCodec::Encoded FedSzCodec::encode(const StateDict& dict,
                                        const EncodeContext& ctx) const {
  Encoded encoded;
  encoded.payload = fedsz_.compress(dict, &encoded.stats, ctx);
  encoded.reconstructed = ctx.reconstruction != nullptr;
  return encoded;
}

StateDict FedSzCodec::decode(ByteSpan payload, CompressionStats* stats) const {
  return fedsz_.decompress(payload, stats);
}

UpdateCodecPtr make_identity_codec() {
  return std::make_shared<IdentityCodec>();
}

UpdateCodecPtr make_fedsz_codec(FedSzConfig config) {
  return std::make_shared<FedSzCodec>(std::move(config));
}

}  // namespace fedsz::core
