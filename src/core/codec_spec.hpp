// Spec-string codec construction: one grammar that names every update-codec
// configuration, used by make_codec, the bench --codec flag and the
// examples, so there is a single construction path from text to codec.
//
//   spec     := family [ ":" kv ("," kv)* ]
//   family   := "fedsz" | "fedsz-parallel" | "sparse" | "identity"
//               | "uncompressed"
//   kv       := key "=" value
//   keys     := lossy=sz2|sz3|szx|zfp        (fedsz families only)
//               lossless=blosc-lz|zlib|zstd|gzip|xz
//               eb=[rel:|abs:]FLOAT          (bare FLOAT means rel)
//               policy=threshold|layerwise|schedule[:FACTOR]|magnitude
//                      |gradaware[:BETA]     (BETA = sensitivity-EMA
//                                             smoothing in (0,1))
//               sparsity=adaptive|FRACTION   (sparse family only: fraction
//                                             of elements dropped, (0,1);
//                                             adaptive = mean+stddev
//                                             magnitude threshold)
//               bits=adaptive|N              (sparse family only: survivor
//                                             quantization width cap 1..31;
//                                             never loosens the bound)
//               chunk=N[k|m]                 (elements per lossy chunk)
//               threads=N                    (0 = one per hardware thread)
//               threshold=N                  (Algorithm 1 lossy threshold)
//               downlink=SPEC                (server->client broadcast codec;
//                                             inner options separate with ';'
//                                             since ',' ends the outer pair)
//               downmode=full|delta          (broadcast whole model or the
//                                             per-client acknowledged delta)
//               ef=on|off                    (per-client uplink error
//                                             feedback)
//               topology=flat|hier:<N>[x<M>...]
//                                            (aggregation tree: flat star,
//                                             or fan-ins per tier bottom-up
//                                             — hier:32x16 = cohorts of 32
//                                             under tier-1 edges, 16 edges
//                                             per tier-2 node)
//               backhaul=SPEC                (partial re-encode codec shared
//                                             by every tier; inner options
//                                             ';'-separated like downlink)
//               backhaul<k>=SPEC             (per-tier override, 1-based:
//                                             backhaul2= recompresses only
//                                             tier 2's uplink)
//               edgemode=sync|buffered:<K>   (interior ship discipline:
//                                             barrier, or FedBuff-style
//                                             after K folds)
//               edgeef=on|off                (edge-side error feedback on
//                                             lossy backhauls)
//               shard=contiguous|shuffled    (client->edge assignment;
//                                             shuffled is a seeded
//                                             permutation)
//               transport=inproc|tcp:<port>  (how hier edges run: simulated
//                                             in-process, or each edge
//                                             cohort as its own process
//                                             over TCP; tcp:0 picks a free
//                                             port)
//               checkpoint=<path>:<K>        (atomically checkpoint the
//                                             coordinator to <path> every K
//                                             rounds; the path may not
//                                             contain ',' or ';')
//               data=PART[+PART...]          (client data sharding, '+'-
//                                             composable: iid (the default
//                                             deal), dirichlet:<alpha>
//                                             label skew, sizeskew:<s>
//                                             power-law per-client sample
//                                             counts — e.g.
//                                             data=dirichlet:0.5+sizeskew:1.2)
//               population=PRESET[:OPT;...]  (client population: device
//                                             classes + diurnal availability
//                                             driving per-round eligibility;
//                                             presets mixed|mobile|iot_fleet
//                                             |uniform|custom, options
//                                             ';'-separated — see
//                                             core/fl/population.hpp)
//
// The sparse family reroutes every would-be-lossy tensor through the
// sparse-quantization codec (threshold + adaptive-width quantization) at
// the spec's bound; it takes every key EXCEPT lossy= and composes with any
// policy= (the policy picks the bound, sparse picks the representation),
// e.g. "sparse:eb=rel:1e-2,sparsity=0.9,bits=8,policy=gradaware:0.5,ef=on".
//
// The identity family takes ONLY the comm keys (an uncompressed uplink
// can still configure the broadcast, error feedback and topology), e.g.
// "identity:downlink=fedsz:eb=rel:1e-3,ef=on".
//
// Examples:
//   "fedsz"
//   "fedsz:eb=rel:1e-3"
//   "fedsz:lossy=sz3,eb=rel:1e-3,lossless=zstd,policy=schedule,chunk=64k"
//   "fedsz:eb=rel:1e-2,downlink=fedsz:eb=rel:1e-3;lossless=zstd,ef=on"
//   "identity"
//
// parse_codec_spec() -> CodecSpec (throws InvalidArgument listing the valid
// options on any unknown family/key/value); format_codec_spec() renders the
// canonical normalized form ("fedsz-parallel" normalizes to threads=0,
// "uncompressed" to "identity", chunk suffixes to element counts), so
// format(parse(s)) is a normal form and format∘parse is idempotent.
#pragma once

#include <string>

#include "core/update_codec.hpp"

namespace fedsz::core {

struct CodecSpec {
  /// True for the uncompressed baseline; every other field is ignored.
  bool identity = false;
  /// True for the sparse family: would-be-lossy tensors ride the sparse
  /// path (lossy_id is ignored; sparsity/sparse_bits apply).
  bool sparse = false;
  /// Sparse keep-mask knob (sparsity= key): fraction of elements dropped in
  /// (0, 1), or 0 for the adaptive mean+stddev magnitude threshold.
  double sparsity = 0.0;
  /// Survivor quantization width cap (bits= key), 1..31; 0 = adaptive.
  unsigned sparse_bits = 0;
  lossy::LossyId lossy_id = lossy::LossyId::kSz2;
  lossless::LosslessId lossless_id = lossless::LosslessId::kBloscLz;
  lossy::ErrorBound bound = lossy::ErrorBound::relative(1e-2);
  /// One of compression_policy_names().
  std::string policy = "threshold";
  /// Per-round multiplier for policy=schedule (the optional :FACTOR arg).
  double schedule_factor = 0.7;
  /// Sensitivity-EMA smoothing for policy=gradaware (the optional :BETA
  /// arg), in (0, 1).
  double gradaware_beta = 0.5;
  std::size_t chunk_elements = 64 * 1024;
  /// Chunk-pipeline workers; 0 = one per hardware thread.
  std::size_t threads = 1;
  std::size_t lossy_threshold = 1000;
  /// Downlink broadcast codec spec in canonical (comma-separated) form —
  /// directly parseable by parse_codec_spec/make_codec. Empty means the
  /// broadcast is free and lossless (the uplink-only comm model). In the
  /// composite string the inner options are ';'-separated; parse/format
  /// translate.
  std::string downlink;
  /// Broadcast mode when `downlink` is set (downmode=delta).
  bool downlink_delta = false;
  /// Per-client uplink error feedback (ef=on).
  bool error_feedback = false;
  /// Aggregation topology (topology= comm key): empty = flat star (the
  /// default); otherwise the per-tier fan-ins bottom-up
  /// (topology=hier:<N>[x<M>...] — hier:8 is the one-tier sugar).
  std::vector<std::size_t> hier_tiers;
  /// Default partial re-encode codec spec for every tier, in canonical
  /// form (backhaul= comm key; inner options ';'-separated like downlink).
  /// Empty means partials ship through the identity codec.
  std::string backhaul;
  /// Per-tier overrides (backhaul<k>= comm keys): entry k-1 non-empty
  /// overrides `backhaul` for tier k. Never longer than the last override
  /// (no trailing empties), so format∘parse stays idempotent.
  std::vector<std::string> tier_backhauls;
  /// Interior ship discipline (edgemode=buffered:<K>): ship a node's
  /// partial after min(K, expected) folds instead of the full barrier.
  bool edge_buffered = false;
  std::size_t edge_buffer = 0;
  /// Edge-side error feedback on lossy backhauls (edgeef=on).
  bool edge_error_feedback = false;
  /// Seeded-shuffle client->edge sharding (shard=shuffled).
  bool shard_shuffled = false;
  /// Wire transport for hierarchical edges (transport= comm key), stored
  /// canonically: empty = in-process simulation (the default; an explicit
  /// transport=inproc normalizes to empty), or "tcp:<port>" — each edge
  /// cohort runs as its own process speaking the versioned frame protocol
  /// to the root (port 0 = pick a free port).
  std::string transport;
  /// Checkpoint/resume (checkpoint=<path>:<K> comm key): empty path = no
  /// checkpointing; otherwise the coordinator atomically rewrites `path`
  /// every `checkpoint_every` completed rounds.
  std::string checkpoint_path;
  std::size_t checkpoint_every = 0;
  /// Client data sharding (data= comm key): 0 = IID deal (the default),
  /// > 0 = Dirichlet label skew with this concentration alpha.
  double dirichlet_alpha = 0.0;
  /// Power-law per-client sample-count skew exponent (data=sizeskew:<s>):
  /// 0 = off, > 0 = shard at skew rank r keeps fraction (r+1)^-s of its
  /// samples (minimum one). Composes with dirichlet_alpha.
  double sizeskew_s = 0.0;
  /// Client population spec (population= comm key) in canonical form —
  /// directly parseable by parse_population_spec. Empty = the flat,
  /// always-available pool.
  std::string population;

  /// True when any comm-level key (downlink/downmode/ef/topology/backhaul/
  /// backhaul<k>/edgemode/edgeef/shard/transport/checkpoint/data/
  /// population) is set — the keys that configure an
  /// FL run rather than a codec. The single predicate behind every "this
  /// spec cannot carry comm keys" rejection (nested downlink/backhaul
  /// specs, make_codec), so a future comm key only needs adding
  /// here.
  bool has_comm_keys() const {
    return !downlink.empty() || downlink_delta || error_feedback ||
           !hier_tiers.empty() || !backhaul.empty() ||
           !tier_backhauls.empty() || edge_buffered ||
           edge_error_feedback || shard_shuffled || !transport.empty() ||
           !checkpoint_path.empty() || dirichlet_alpha > 0.0 ||
           sizeskew_s > 0.0 || !population.empty();
  }
};

/// Parse `spec` against library defaults. Throws InvalidArgument on
/// malformed input, naming the valid families/keys/values.
CodecSpec parse_codec_spec(const std::string& spec);

/// Canonical normalized rendering: "identity", or "fedsz:" followed by
/// every key in fixed order with canonical value spelling.
std::string format_codec_spec(const CodecSpec& spec);

/// Lower a (non-identity) spec to the FedSzConfig it describes, including
/// the SpecPolicy its codec keys build (core/policy.hpp). Throws
/// InvalidArgument on a combination the policy cannot honor.
FedSzConfig codec_spec_config(const CodecSpec& spec);

/// Build the update codec a spec describes.
UpdateCodecPtr make_codec(const CodecSpec& spec);

/// Parse `spec` and build the codec it describes in one step — the
/// preferred construction path for call sites that hold a spec STRING
/// (benches, tests, tools). Throws InvalidArgument when the spec carries
/// comm keys: a bare codec cannot honor downlink/topology/... settings,
/// and dropping them silently would hide a misconfigured run.
UpdateCodecPtr make_codec(const std::string& spec);

}  // namespace fedsz::core
