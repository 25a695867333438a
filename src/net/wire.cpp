#include "net/wire.hpp"

#include <cstring>

#include "util/crc32.hpp"

namespace fedsz::net {

namespace {

bool known_frame_type(std::uint8_t raw) {
  return raw >= static_cast<std::uint8_t>(FrameType::kHello) &&
         raw <= static_cast<std::uint8_t>(FrameType::kBye);
}

[[noreturn]] void corrupt(const std::string& what) { throw CorruptStream("wire: " + what); }

std::uint32_t read_u32_le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::string frame_type_name(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "HELLO";
    case FrameType::kRoundOpen: return "ROUND_OPEN";
    case FrameType::kUpdate: return "UPDATE";
    case FrameType::kPartial: return "PARTIAL";
    case FrameType::kBroadcast: return "BROADCAST";
    case FrameType::kAck: return "ACK";
    case FrameType::kHeartbeat: return "HEARTBEAT";
    case FrameType::kBye: return "BYE";
  }
  return "UNKNOWN";
}

void encode_frame_into(FrameType type, ByteSpan payload, ByteWriter& out) {
  if (payload.size() > kMaxFramePayload)
    throw InvalidArgument("wire: frame payload exceeds the protocol cap");
  // The CRC covers the header prefix (magic through length) AND the
  // payload: a bit flip anywhere in the frame — including a type byte
  // flipped to another *valid* type — fails the checksum instead of
  // decoding as a plausible frame.
  const std::uint32_t length = static_cast<std::uint32_t>(payload.size());
  const std::uint8_t head[12] = {
      static_cast<std::uint8_t>(kWireMagic & 0xFF),
      static_cast<std::uint8_t>((kWireMagic >> 8) & 0xFF),
      static_cast<std::uint8_t>((kWireMagic >> 16) & 0xFF),
      static_cast<std::uint8_t>((kWireMagic >> 24) & 0xFF),
      kWireVersion,
      static_cast<std::uint8_t>(type),
      0, 0,  // flags, reserved-zero (the decoder rejects anything else)
      static_cast<std::uint8_t>(length & 0xFF),
      static_cast<std::uint8_t>((length >> 8) & 0xFF),
      static_cast<std::uint8_t>((length >> 16) & 0xFF),
      static_cast<std::uint8_t>((length >> 24) & 0xFF),
  };
  const std::uint32_t crc =
      util::crc32_update(util::crc32({head, sizeof head}), payload);
  out.reserve(out.size() + kWireHeaderBytes + payload.size());
  out.put_bytes({head, sizeof head});
  out.put_u32(crc);
  out.put_bytes(payload);
}

Bytes encode_frame(FrameType type, ByteSpan payload) {
  ByteWriter out;
  encode_frame_into(type, payload, out);
  return out.finish();
}

FrameDecoder::FrameDecoder(std::size_t max_payload) : max_payload_(max_payload) {}

void FrameDecoder::feed(ByteSpan data) {
  // Drop the already-parsed prefix before growing, so a long session never
  // accumulates dead bytes.
  if (consumed_ > 0) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

bool FrameDecoder::mid_frame() const { return !poisoned_ && buffered() > 0; }

std::optional<Frame> FrameDecoder::next() {
  if (poisoned_) corrupt("decoder poisoned by an earlier framing error");
  if (buffered() < kWireHeaderBytes) return std::nullopt;

  const std::uint8_t* head = buffer_.data() + consumed_;
  const std::uint32_t magic = read_u32_le(head);
  const std::uint8_t version = head[4];
  const std::uint8_t raw_type = head[5];
  const std::uint16_t flags = static_cast<std::uint16_t>(
      head[6] | static_cast<std::uint16_t>(head[7]) << 8);
  const std::uint32_t length = read_u32_le(head + 8);
  const std::uint32_t crc = read_u32_le(head + 12);

  // Validate the header before waiting on payload bytes: a corrupt length
  // must fail here, not stall the stream (or reserve gigabytes).
  if (magic != kWireMagic) {
    poisoned_ = true;
    corrupt("bad frame magic");
  }
  if (version != kWireVersion) {
    poisoned_ = true;
    corrupt("unsupported frame version " + std::to_string(version));
  }
  if (!known_frame_type(raw_type)) {
    poisoned_ = true;
    corrupt("unknown frame type " + std::to_string(raw_type));
  }
  if (flags != 0) {
    // Reserved-zero in every version so far: a set bit means a future
    // (incompatible) writer or corruption, either way not a frame this
    // decoder can trust.
    poisoned_ = true;
    corrupt("nonzero reserved flags " + std::to_string(flags));
  }
  if (length > max_payload_) {
    poisoned_ = true;
    corrupt("declared payload length " + std::to_string(length) +
            " exceeds cap " + std::to_string(max_payload_));
  }

  if (buffered() < kWireHeaderBytes + length) return std::nullopt;

  const std::uint8_t* body = head + kWireHeaderBytes;
  const ByteSpan payload{body, length};
  if (util::crc32_update(util::crc32({head, 12}), payload) != crc) {
    poisoned_ = true;
    corrupt("frame CRC mismatch in " + frame_type_name(static_cast<FrameType>(raw_type)) +
            " frame");
  }

  Frame frame;
  frame.type = static_cast<FrameType>(raw_type);
  frame.payload.assign(payload.begin(), payload.end());
  consumed_ += kWireHeaderBytes + length;
  return frame;
}

}  // namespace fedsz::net
