#include <cmath>

#include "compress/lossy/lossy.hpp"

namespace fedsz::lossy {

const LossyCodec& sz2_codec_instance();
const LossyCodec& sz3_codec_instance();
const LossyCodec& szx_codec_instance();
const LossyCodec& zfp_codec_instance();

const LossyCodec& lossy_codec(LossyId id) {
  switch (id) {
    case LossyId::kSz2:
      return sz2_codec_instance();
    case LossyId::kSz3:
      return sz3_codec_instance();
    case LossyId::kSzx:
      return szx_codec_instance();
    case LossyId::kZfp:
      return zfp_codec_instance();
  }
  throw InvalidArgument("lossy_codec: unknown codec id");
}

const LossyCodec& lossy_codec(const std::string& name) {
  for (const LossyCodec* codec : all_lossy_codecs())
    if (codec->name() == name) return *codec;
  throw InvalidArgument("lossy_codec: unknown codec '" + name + "'");
}

std::vector<const LossyCodec*> all_lossy_codecs() {
  return {&sz2_codec_instance(), &sz3_codec_instance(), &szx_codec_instance(),
          &zfp_codec_instance()};
}

bool is_lossy_id(std::uint8_t raw) {
  switch (static_cast<LossyId>(raw)) {
    case LossyId::kSz2:
    case LossyId::kSz3:
    case LossyId::kSzx:
    case LossyId::kZfp:
      return true;
  }
  return false;
}

void require_finite(FloatSpan data, const std::string& codec_name) {
  for (const float v : data)
    if (!std::isfinite(v))
      throw InvalidArgument(codec_name + ": input contains non-finite values");
}

}  // namespace fedsz::lossy
