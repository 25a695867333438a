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

std::span<float> LossyCodec::DecodeTarget::claim(std::size_t n,
                                                  const char* codec) const {
  if (grow_ != nullptr) {
    grow_->resize(n);
    return {grow_->data(), n};
  }
  if (fixed_.size() != n)
    throw CorruptStream(std::string(codec) +
                        ": element count does not match the destination");
  return fixed_;
}

void require_finite(FloatSpan data, const std::string& codec_name) {
  // v - v is +0 for a finite v and NaN for an infinity or a NaN, and a NaN
  // stays in a sum: eight lane sums make the scan branch-free.
  constexpr std::size_t kLanes = 8;
  float acc[kLanes] = {};
  const std::size_t n = data.size();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes)
    for (std::size_t j = 0; j < kLanes; ++j)
      acc[j] += data[i + j] - data[i + j];
  for (; i < n; ++i) acc[0] += data[i] - data[i];
  for (std::size_t j = 1; j < kLanes; ++j) acc[0] += acc[j];
  if (acc[0] != 0.0f)
    throw InvalidArgument(codec_name + ": input contains non-finite values");
}

}  // namespace fedsz::lossy
