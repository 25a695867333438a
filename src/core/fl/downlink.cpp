#include "core/fl/downlink.hpp"

#include <algorithm>

namespace fedsz::core {

std::string downlink_mode_name(DownlinkMode mode) {
  return mode == DownlinkMode::kDelta ? "delta" : "full";
}

DownlinkChannel::DownlinkChannel(DownlinkConfig config, std::size_t clients)
    : config_(std::move(config)), sessions_(clients) {
  if (!config_.codec)
    throw InvalidArgument("DownlinkChannel: null broadcast codec");
  if (clients == 0)
    throw InvalidArgument("DownlinkChannel: need at least one client");
}

std::vector<DownlinkChannel::Group> DownlinkChannel::groups(
    const std::vector<std::size_t>& clients) const {
  if (config_.mode == DownlinkMode::kFull) return {Group{nullptr, clients}};
  const bool keyed = config_.codec->keyed_by_client();
  std::vector<Group> out;
  for (const std::size_t i : clients) {
    const Snapshot& base = sessions_.at(i);
    const auto same =
        keyed ? out.end()
              : std::find_if(out.begin(), out.end(),
                             [&](const Group& g) { return g.base == base; });
    if (same == out.end())
      out.push_back({base, {i}});
    else
      same->members.push_back(i);
  }
  return out;
}

Broadcast DownlinkChannel::encode(const Group& group, const StateDict& global,
                                  int round) const {
  if (group.members.empty())
    throw InvalidArgument("DownlinkChannel: a broadcast group needs a member");
  EncodeContext ctx;
  ctx.round = round;
  ctx.client_id =
      config_.mode == DownlinkMode::kFull
          ? -1
          : static_cast<int>(
                *std::min_element(group.members.begin(), group.members.end()));
  UpdateCodec::Encoded encoded;
  if (group.base) {
    StateDict delta = global;
    delta.add_scaled_matched(*group.base, -1.0f);
    encoded = config_.codec->encode(delta, ctx);
  } else {
    encoded = config_.codec->encode(global, ctx);
  }
  CompressionStats decode_stats;
  StateDict decoded = config_.codec->decode(
      {encoded.payload.data(), encoded.payload.size()}, &decode_stats);
  if (group.base) {
    // decoded is the delta; the model is base + delta, laid out in the
    // session's (stable) entry order.
    StateDict model = *group.base;
    model.add_scaled_matched(decoded, 1.0f);
    decoded = std::move(model);
  }
  return {std::move(encoded.payload), encoded.stats,
          std::make_shared<const StateDict>(std::move(decoded)),
          decode_stats.decompress_seconds};
}

void DownlinkChannel::acknowledge(std::size_t client, Snapshot model) {
  if (config_.mode == DownlinkMode::kDelta)
    sessions_.at(client) = std::move(model);
}

const Snapshot& DownlinkChannel::acknowledged(std::size_t client) const {
  return sessions_.at(client);
}

void DownlinkChannel::restore_sessions(std::vector<StateDict> sessions) {
  if (sessions.size() != sessions_.size())
    throw InvalidArgument(
        "DownlinkChannel: restored session count does not match the client "
        "count");
  std::vector<Snapshot> distinct;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    sessions_[i] = nullptr;
    if (sessions[i].empty()) continue;
    const auto same =
        std::find_if(distinct.begin(), distinct.end(), [&](const Snapshot& s) {
          return s->equals(sessions[i]);
        });
    if (same != distinct.end()) {
      sessions_[i] = *same;
      continue;
    }
    distinct.push_back(
        std::make_shared<const StateDict>(std::move(sessions[i])));
    sessions_[i] = distinct.back();
  }
}

}  // namespace fedsz::core
