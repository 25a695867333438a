// FedSZ — the paper's contribution (Section V, Algorithm 1): compress an FL
// client's model update (a StateDict) by
//   (i)   planning a path for every entry through a CompressionPolicy
//         (core/policy.hpp). The default, SpecPolicy's threshold kind, is
//         Algorithm 1 verbatim: tensors whose name contains "weight" and
//         whose flattened size exceeds a threshold go lossy, everything else
//         (biases, BatchNorm running statistics, small tensors) goes
//         lossless. Policies may also route entries raw (untouched float
//         bytes) and may pick a different lossy codec/bound per tensor and
//         per round.
//   (ii)  compressing each lossy tensor with its planned error-bounded lossy
//         codec and the serialized lossless partition with a fast lossless
//         codec (blosc-lz by default),
//   (iii) emitting a single self-describing bitstream for the server, which
//         decompresses and reshapes entries back into a StateDict.
//
// Compression time dominates the codec trade-off (Table I), so the hot path
// is a parallel chunked pipeline: each lossy tensor is split into fixed-size
// chunks that are compressed independently — concurrently on a
// util::ThreadPool when `parallelism` > 1 — and the lossless partition is
// compressed in parallel with the lossy work. The container records chunk
// counts, per-chunk sizes and the resolved error bound, so decompression is
// parallel too. Chunk boundaries and output bytes are independent of the
// thread count: any `parallelism` produces the identical bitstream.
//
// Wire formats: when every plan matches the uniform Algorithm-1 default
// (one codec, one bound, threshold partition, nothing raw) the writer emits
// the v2 chunked container byte-for-byte as before the policy redesign; any
// per-tensor divergence upgrades the stream to v3, whose header carries the
// lossy codec id and resolved bound *per tensor*. The decoder accepts v1,
// v2 and v3.
#pragma once

#include <memory>
#include <mutex>

#include "compress/lossless/lossless.hpp"
#include "compress/lossy/lossy.hpp"
#include "core/policy.hpp"
#include "tensor/state_dict.hpp"
#include "util/common.hpp"
#include "util/thread_pool.hpp"

namespace fedsz::core {

struct FedSzConfig {
  lossy::LossyId lossy_id = lossy::LossyId::kSz2;
  lossless::LosslessId lossless_id = lossless::LosslessId::kBloscLz;
  lossy::ErrorBound bound = lossy::ErrorBound::relative(1e-2);
  /// Algorithm 1's `threshold`: minimum flattened element count for the
  /// lossy path.
  std::size_t lossy_threshold = 1000;
  /// Per-tensor planner. Null means SpecPolicy's threshold kind built from
  /// the three fields above — the paper's Algorithm 1 and the byte-stable
  /// default.
  CompressionPolicyPtr policy;
  /// Hard ceiling on chunk_elements (1 GiB of float32 per chunk). Values
  /// above it are clamped at construction, and streams declaring more are
  /// rejected as corrupt — it bounds what a malicious header can make the
  /// decoder allocate.
  static constexpr std::size_t kMaxChunkElements = std::size_t{1} << 28;
  /// Elements per lossy chunk. Tensors larger than this are split into
  /// independent chunks ((de)compressed concurrently). A relative bound is
  /// always resolved over the WHOLE tensor before chunking, so chunking
  /// never changes error-bound semantics. Must be >= 1; clamped to
  /// kMaxChunkElements.
  std::size_t chunk_elements = 64 * 1024;
  /// Worker threads for the chunk pipeline: 1 = serial in the caller's
  /// thread (default), 0 = one per hardware thread, N = pool of N workers.
  /// The emitted bitstream is byte-identical for every setting.
  std::size_t parallelism = 1;
};

/// Algorithm 1, line 4: the partition predicate.
bool is_lossy_entry(const std::string& name, std::size_t numel,
                    std::size_t threshold);

/// Overflow-safe ceiling division (`n + d - 1` can wrap); shared by the
/// chunk writer and the container decoder so the two can never disagree.
inline std::size_t ceil_div(std::size_t n, std::size_t d) {
  return n / d + (n % d != 0 ? 1 : 0);
}

/// Partition census (drives Table III's "% lossy data" column and the
/// partition-rule tests).
struct Partition {
  std::vector<std::string> lossy_names;
  std::vector<std::string> lossless_names;
  std::size_t lossy_bytes = 0;
  std::size_t lossless_bytes = 0;
  double lossy_fraction() const {
    const double total =
        static_cast<double>(lossy_bytes + lossless_bytes);
    return total > 0 ? static_cast<double>(lossy_bytes) / total : 0.0;
  }
};

Partition partition_state_dict(const StateDict& dict, std::size_t threshold);

/// Byte accounting, plan census and timing for one compress or decompress
/// pass. compress() fills the compress-side fields; decompress() fills
/// `decompress_seconds` plus the byte/plan fields it can recover from the
/// stream, so callers no longer thread a separate seconds out-param.
struct CompressionStats {
  std::size_t original_bytes = 0;
  std::size_t compressed_bytes = 0;
  std::size_t lossy_original_bytes = 0;
  std::size_t lossy_compressed_bytes = 0;
  std::size_t lossless_original_bytes = 0;
  std::size_t lossless_compressed_bytes = 0;
  /// Raw-path bytes ship uncompressed, so original == on-wire payload.
  std::size_t raw_original_bytes = 0;
  /// Sparse-path accounting: byte totals plus kept/total element tallies
  /// (the survivors the keep-mask selected vs. everything the sparse path
  /// saw), from which the effective bit-rate derives.
  std::size_t sparse_original_bytes = 0;
  std::size_t sparse_compressed_bytes = 0;
  std::size_t sparse_kept_elements = 0;
  std::size_t sparse_total_elements = 0;
  /// Per-tensor plan census: how many tensors each path received.
  std::size_t lossy_tensors = 0;
  std::size_t lossless_tensors = 0;
  std::size_t raw_tensors = 0;
  std::size_t sparse_tensors = 0;
  /// Total lossy chunks in the container (0 when the lossy partition is
  /// empty; equals the lossy tensor count when nothing exceeds chunk size).
  std::size_t lossy_chunks = 0;
  /// Mean policy-requested bound over the lossy-path tensors planned with a
  /// RELATIVE bound (0 when there are none) — absolute-mode epsilons are not
  /// commensurable with range fractions, so they are excluded. Surfaces
  /// per-round schedule/magnitude decisions in traces.
  double mean_bound_value = 0.0;
  double compress_seconds = 0.0;
  double decompress_seconds = 0.0;

  double ratio() const {
    return compressed_bytes > 0 ? static_cast<double>(original_bytes) /
                                      static_cast<double>(compressed_bytes)
                                : 0.0;
  }
};

class FedSz {
 public:
  explicit FedSz(FedSzConfig config);

  /// Compress a state dict to the FedSZ bitstream. `ctx` reaches the policy
  /// so per-round/per-client plans resolve; optional stats out-param. Safe
  /// to call from several threads at once: each thread encodes through its
  /// own workspace. A non-null ctx.reconstruction (not `dict` itself)
  /// receives, in `dict`'s layout, exactly what decompress() of the result
  /// returns: each chunk job writes its own slice, and lossless and raw
  /// entries are copied. compress_seconds includes that work.
  Bytes compress(const StateDict& dict, CompressionStats* stats = nullptr,
                 const EncodeContext& ctx = {}) const;

  /// Decompress a FedSZ bitstream (the per-tensor-plan v3 container, the
  /// uniform chunked v2, or the legacy v1 single-blob-per-tensor format).
  /// Optional stats out-param (decompress_seconds, byte/plan census).
  /// Throws CorruptStream on malformed input.
  StateDict decompress(ByteSpan stream,
                       CompressionStats* stats = nullptr) const;

  const FedSzConfig& config() const { return config_; }
  /// The active planner (the configured policy, or the default threshold
  /// SpecPolicy synthesized from the config fields).
  const CompressionPolicy& policy() const { return *policy_; }

  /// Chunks the pipeline will emit for a tensor of `numel` elements.
  std::size_t chunk_count(std::size_t numel) const {
    return ceil_div(numel, config_.chunk_elements);
  }

 private:
  /// Run fn(0..count) inline when `parallelism` is 1 (or there is nothing
  /// to overlap), otherwise on the lazily-created pool.
  void run_indexed(std::size_t count,
                   const std::function<void(std::size_t)>& fn) const;
  std::size_t resolved_parallelism() const;
  ThreadPool& pool(std::size_t workers) const;

  FedSzConfig config_;
  CompressionPolicyPtr policy_;
  // The pool is an execution resource, not part of the codec's value; it is
  // created on first parallel use and shared by concurrent compress() /
  // decompress() calls (ThreadPool::submit is thread-safe).
  mutable std::mutex pool_mutex_;
  mutable std::unique_ptr<ThreadPool> pool_;
};

}  // namespace fedsz::core
