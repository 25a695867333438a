// Checkpoint/resume serialization for the federation coordinator. A
// checkpoint captures everything that evolves across rounds — the global
// model (FedAvg keeps no other server state), per-client error-feedback
// residuals, kDelta downlink sessions, edge-side EF residuals, the
// coordinator RNG streams mid-sequence, each client model's Dropout
// streams, and the virtual clock — so a run restored from it finishes
// BIT-IDENTICAL to one that never stopped (the resume property test pins
// this round for round). Otherwise clients are stateless across rounds
// (each round loads the global weights and rebuilds its loader from a
// fixed seed), which is what keeps this set sufficient.
//
// On-disk container: magic/version header, CRC-32-guarded body, written
// via a temp file + rename so a kill at any instant leaves either the
// previous checkpoint or the new one — never a torn file. Parsing has the
// same hardened posture as the wire/bitstream formats: any corruption
// throws CorruptStream before state is applied.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/fl/coordinator.hpp"
#include "tensor/state_dict.hpp"
#include "util/bytebuffer.hpp"
#include "util/rng.hpp"

namespace fedsz::core {

inline constexpr std::uint32_t kCheckpointMagic = 0x314B4346u;  // "FCK1" LE
/// v2 added the population-eligibility RNG stream after failure_rng; v3
/// changed the config fingerprint (dirichlet_alpha in, topology fanout out).
/// v4: the body is CheckpointState's layout (core/fl/layout.hpp), and the
/// fingerprint is the CRC of the run configuration's layout. v5 dropped the
/// aggregation-strategy name and state after global_state: FedAvg is the
/// only rule, and it carries nothing across rounds. v6 added every client
/// model's random streams (client_streams).
inline constexpr std::uint8_t kCheckpointVersion = 6;

struct CheckpointState {
  /// Rounds fully aggregated when the checkpoint was taken; the resumed
  /// run continues with round index `completed_rounds`.
  std::uint64_t completed_rounds = 0;
  /// Virtual clock at the checkpoint (and the tie-break sequence counter,
  /// so resumed event ordering matches the uninterrupted run exactly).
  double virtual_now = 0.0;
  std::uint64_t clock_next_seq = 0;
  /// CRC over the run's trajectory-determining configuration; a resume
  /// against a differently-configured run fails loudly instead of
  /// continuing a subtly different experiment.
  std::uint32_t config_fingerprint = 0;
  StateDict global_state;
  /// Coordinator RNG streams, mid-sequence.
  Rng::State cohort_rng;
  Rng::State failure_rng;
  /// Population eligibility draws (advanced every round open whenever a
  /// population is active; idle otherwise, but always serialized).
  Rng::State eligibility_rng;
  /// Per-client uplink EF residuals (empty dict = none carried yet).
  std::vector<StateDict> client_residuals;
  /// kDelta downlink sessions, client order (empty vector when the run has
  /// no delta downlink).
  std::vector<StateDict> downlink_sessions;
  /// Edge-side EF residuals in tree-wide flat interior-node order (empty
  /// vector on flat runs or with edge EF off).
  std::vector<StateDict> edge_residuals;
  /// Each client model's random streams (its Dropout masks), client order;
  /// an inner vector is empty for a model without dropout.
  std::vector<std::vector<Rng::State>> client_streams;
};

Bytes serialize_checkpoint(const CheckpointState& state);
/// Throws CorruptStream on bad magic/version/CRC or a truncated body.
CheckpointState parse_checkpoint(ByteSpan bytes);

/// Write `state` to `path` atomically: serialize to `path`.tmp, fsync,
/// rename over `path`. Throws InvalidArgument on I/O failure.
void write_checkpoint(const std::string& path, const CheckpointState& state);

/// Load the checkpoint at `path`; nullopt when the file does not exist
/// (a resume before the first checkpoint starts fresh). Any other failure
/// to open or read it throws InvalidArgument; corrupt contents throw
/// CorruptStream.
std::optional<CheckpointState> read_checkpoint(const std::string& path);

/// CRC over the layout (core/fl/layout.hpp) of `model` and of every
/// FlRunConfig member that can change a trajectory: seeds, client and
/// optimizer settings, links, comm model, topology, churn schedule,
/// population and data partition. Reset first, so deliberately EXCLUDED:
/// rounds (a resume may extend the campaign), threads (trajectories are
/// thread-count-invariant), transport, the checkpoint settings themselves,
/// and client.seed (FlCoordinator gives each client its own). An edge
/// worker ACKs this over the run it rebuilt from the HELLO manifest.
std::uint32_t run_fingerprint(const FlRunConfig& config,
                              const nn::ModelConfig& model);

}  // namespace fedsz::core
