#include "core/fl/checkpoint.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "core/fl/layout.hpp"
#include "util/bytebuffer.hpp"
#include "util/crc32.hpp"

namespace fedsz::core {

namespace {

/// `config` with every member that cannot change a trajectory reset: the
/// campaign length (a resume may extend it), the pool size, the transport,
/// the checkpoint settings, and the client seed, which FlCoordinator
/// replaces with a per-client one.
FlRunConfig trajectory_config(FlRunConfig config) {
  config.rounds = 0;
  config.threads = 0;
  config.transport.clear();
  config.checkpoint_path.clear();
  config.checkpoint_every = 0;
  config.resume = false;
  config.client.seed = 0;
  return config;
}

}  // namespace

Bytes serialize_checkpoint(const CheckpointState& state) {
  const Bytes body = layout::serialize(state);
  ByteWriter out;
  out.reserve(body.size() + 16);
  out.put_u32(kCheckpointMagic);
  out.put_u8(kCheckpointVersion);
  out.put_u32(util::crc32(body));
  out.put_varint(body.size());
  out.put_bytes(body);
  return out.finish();
}

CheckpointState parse_checkpoint(ByteSpan bytes) {
  ByteReader header(bytes);
  try {
    if (header.get_u32() != kCheckpointMagic)
      throw CorruptStream("checkpoint: bad magic");
    const std::uint8_t version = header.get_u8();
    if (version != kCheckpointVersion)
      throw CorruptStream("checkpoint: unsupported version " +
                          std::to_string(version));
    const std::uint32_t crc = header.get_u32();
    const std::uint64_t length = header.get_varint();
    if (length != header.remaining())
      throw CorruptStream("checkpoint: body length mismatch");
    const ByteSpan body = header.get_bytes(static_cast<std::size_t>(length));
    if (util::crc32(body) != crc)
      throw CorruptStream("checkpoint: body CRC mismatch");
    return layout::parse<CheckpointState>(body, "checkpoint");
  } catch (const CorruptStream&) {
    throw;
  } catch (const std::exception& error) {
    // Truncation inside ByteReader surfaces as one checkpoint-level failure.
    throw CorruptStream(std::string("checkpoint: ") + error.what());
  }
}

void write_checkpoint(const std::string& path, const CheckpointState& state) {
  const Bytes bytes = serialize_checkpoint(state);
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (!file)
    throw InvalidArgument("checkpoint: cannot open '" + tmp +
                          "': " + std::strerror(errno));
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), file);
  const bool flushed = std::fflush(file) == 0;
  std::fclose(file);
  if (written != bytes.size() || !flushed) {
    std::remove(tmp.c_str());
    throw InvalidArgument("checkpoint: short write to '" + tmp + "'");
  }
  // rename(2) is atomic within a filesystem: observers see the old file or
  // the new one, never a torn mix — the kill-anywhere guarantee.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw InvalidArgument("checkpoint: cannot rename '" + tmp + "' to '" +
                          path + "': " + std::strerror(errno));
  }
}

std::optional<CheckpointState> read_checkpoint(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (!file) return std::nullopt;
  Bytes bytes;
  std::uint8_t buffer[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0)
    bytes.insert(bytes.end(), buffer, buffer + got);
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error)
    throw InvalidArgument("checkpoint: read error on '" + path + "'");
  return parse_checkpoint({bytes.data(), bytes.size()});
}

std::uint32_t run_fingerprint(const FlRunConfig& config,
                              const nn::ModelConfig& model) {
  return util::crc32(layout::serialize(trajectory_config(config), model));
}

}  // namespace fedsz::core
