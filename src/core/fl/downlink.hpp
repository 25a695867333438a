// Downlink (server -> client) broadcast compression. FedSZ's Algorithm 1
// compresses only the client->server uplink; the global-model broadcast —
// half of every round's traffic — was free and lossless in the runtime, so
// the Eqn (1) compress-or-not decision was blind to it. This module routes
// the broadcast through the same UpdateCodec / policy / v3-container path
// as the uplink:
//
//   DownlinkMode::kFull   the coordinator encodes the global model ONCE per
//                         round (on the thread pool) and charges the same
//                         payload against each client's own link — the hot
//                         path never serializes per client.
//   DownlinkMode::kDelta  per-client sessions: the server tracks the last
//                         model each client acknowledged (that is, the
//                         RECONSTRUCTION the client trains on, so both ends
//                         agree bit for bit) and encodes only the delta
//                         against it. First contact falls back to a full
//                         broadcast. A delta depends only on the global and
//                         on that acknowledged model, so clients that
//                         acknowledged the same reconstruction hold one
//                         shared session snapshot and share one encode, one
//                         decode and one reconstruction per send.
//
// Both modes run one product: a send splits its clients into groups
// (groups(): the whole cohort under kFull, one group per session snapshot
// under kDelta), and each group's encode() encodes its payload, decodes it
// once and rebuilds the model every member trains on.
//
// Thread-safety contract: encode() is const and reads only the codec and
// its arguments (the snapshots captured at send time), so groups may
// encode concurrently on the pool. Sessions are read (groups()) and
// written (acknowledge(), restore_sessions()) on the coordinator's pump
// thread only.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/update_codec.hpp"

namespace fedsz::core {

enum class DownlinkMode : std::uint8_t { kFull = 0, kDelta = 1 };

std::string downlink_mode_name(DownlinkMode mode);

struct DownlinkConfig {
  DownlinkMode mode = DownlinkMode::kFull;
  /// Codec the broadcast rides (identity models an *accounted* lossless
  /// broadcast: full bytes charged to every link).
  UpdateCodecPtr codec;
};

/// An immutable model shared by everyone who holds it.
using Snapshot = std::shared_ptr<const StateDict>;

/// One group's broadcast: the on-wire payload every member receives, its
/// encode-side stats, and the one decode's reconstruction and timing.
struct Broadcast {
  Bytes payload;
  CompressionStats stats;
  Snapshot model;  // what every member trains on
  double decode_seconds = 0.0;
};

class DownlinkChannel {
 public:
  /// Clients that share one encode: each member acknowledged `base` (null:
  /// no session yet, or kFull).
  struct Group {
    Snapshot base;
    std::vector<std::size_t> members;  // in send order
  };

  /// Throws InvalidArgument on a null codec or zero clients.
  DownlinkChannel(DownlinkConfig config, std::size_t clients);

  DownlinkMode mode() const { return config_.mode; }
  const UpdateCodec& codec() const { return *config_.codec; }

  /// Who shares an encode in a send to `clients`, groups in order of their
  /// first member. kFull: one group on the whole global. kDelta: clients
  /// that acknowledged the same snapshot; a codec that is keyed_by_client()
  /// could tell them apart, so there each client is its own group.
  std::vector<Group> groups(const std::vector<std::size_t>& clients) const;

  /// The group's broadcast: encode `global` minus the group's base (the
  /// whole global when the base is null), decode the payload once, and
  /// rebuild base + delta. Encodes under the lowest member's context
  /// (client -1 under kFull). Throws InvalidArgument on a group without
  /// members.
  Broadcast encode(const Group& group, const StateDict& global,
                   int round) const;

  /// kDelta: `client` was dispatched on `model`, so later deltas are
  /// encoded against it. A no-op under kFull, which keeps no sessions.
  void acknowledge(std::size_t client, Snapshot model);

  /// The model this client last acknowledged (null before first contact).
  const Snapshot& acknowledged(std::size_t client) const;

  /// All per-client sessions, in client order (checkpoint save).
  const std::vector<Snapshot>& sessions() const { return sessions_; }
  /// Install checkpointed sessions (an empty dict means none). Equal
  /// sessions share one snapshot, so a resumed run keeps its groups. Throws
  /// InvalidArgument unless there is one per client.
  void restore_sessions(std::vector<StateDict> sessions);

 private:
  DownlinkConfig config_;
  std::vector<Snapshot> sessions_;  // kDelta per-client acknowledged model
};

}  // namespace fedsz::core
