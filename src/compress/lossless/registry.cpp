#include "compress/lossless/lossless.hpp"

namespace fedsz::lossless {

// Singleton accessors defined in the codec translation units.
const LosslessCodec& blosclz_codec_instance();
const LosslessCodec& zlib_codec_instance();
const LosslessCodec& gzip_codec_instance();
const LosslessCodec& zstd_codec_instance();
const LosslessCodec& xz_codec_instance();

const LosslessCodec& lossless_codec(LosslessId id) {
  switch (id) {
    case LosslessId::kBloscLz:
      return blosclz_codec_instance();
    case LosslessId::kZlib:
      return zlib_codec_instance();
    case LosslessId::kZstd:
      return zstd_codec_instance();
    case LosslessId::kGzip:
      return gzip_codec_instance();
    case LosslessId::kXz:
      return xz_codec_instance();
  }
  throw InvalidArgument("lossless_codec: unknown codec id");
}

const LosslessCodec& lossless_codec(const std::string& name) {
  for (const LosslessCodec* codec : all_lossless_codecs())
    if (codec->name() == name) return *codec;
  throw InvalidArgument("lossless_codec: unknown codec '" + name + "'");
}

std::vector<const LosslessCodec*> all_lossless_codecs() {
  return {&blosclz_codec_instance(), &zlib_codec_instance(),
          &zstd_codec_instance(), &gzip_codec_instance(),
          &xz_codec_instance()};
}

bool is_lossless_id(std::uint8_t raw) {
  switch (static_cast<LosslessId>(raw)) {
    case LosslessId::kBloscLz:
    case LosslessId::kZlib:
    case LosslessId::kZstd:
    case LosslessId::kGzip:
    case LosslessId::kXz:
      return true;
  }
  return false;
}

}  // namespace fedsz::lossless
