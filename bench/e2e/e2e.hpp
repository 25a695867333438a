// Shared pieces of the end-to-end benchmark (bench/e2e): the metric list a
// run reports, the process clock, the in-memory span log of a traced run,
// the TracingCodec decorator that records spans around the uplink codec,
// and the per-layer re-invocation probes. See README.md for what each
// workload and metric means.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/update_codec.hpp"

namespace e2e {

using fedsz::ByteSpan;
using fedsz::StateDict;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

using Metrics = std::vector<Metric>;

/// Seconds since process start; every timestamp in a run uses this clock.
double now();

/// CPU seconds this process has used so far, summed over its threads.
double cpu_now();

/// Small dense index of the calling thread, assigned on first use.
std::size_t thread_index();

/// Median and other quantiles by linear interpolation between order
/// statistics; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = a root span
  std::size_t thread = 0;    // thread_index() of the recording thread
  std::uint64_t op = 0;      // spans of one operation share this id
  double seconds() const { return end - start; }
};

/// Spans of a traced run, kept in memory and written as JSON at exit.
/// record() may be called from any thread.
class SpanLog {
 public:
  /// A fresh span id, for a parent span opened before its children end.
  std::uint64_t next_id();
  /// Record a finished span on the calling thread. `id` 0 assigns one.
  std::uint64_t record(std::string name, double start, double end,
                       std::uint64_t parent, std::uint64_t op,
                       std::uint64_t id = 0);
  std::vector<Span> spans() const;
  void write_json(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t last_id_ = 0;
};

/// Decorator around the uplink codec of an in-process campaign: forwards
/// every call unchanged and records a "fedsz.encode" / "fedsz.decode" span
/// per call. A span's op id is a hash of the payload bytes, which ties an
/// update's encode to the decodes of the same payload.
class TracingCodec final : public fedsz::core::UpdateCodec {
 public:
  TracingCodec(fedsz::core::UpdateCodecPtr inner, SpanLog& log,
               std::uint64_t parent)
      : inner_(std::move(inner)), log_(log), parent_(parent) {}

  using UpdateCodec::encode;
  std::string name() const override { return inner_->name(); }
  bool lossless() const override { return inner_->lossless(); }
  Encoded encode(const StateDict& dict,
                 const fedsz::core::EncodeContext& ctx) const override;
  StateDict decode(ByteSpan payload,
                   fedsz::core::CompressionStats* stats) const override;

 private:
  fedsz::core::UpdateCodecPtr inner_;
  SpanLog& log_;
  std::uint64_t parent_;
};

/// Per-layer re-invocation probes on one of a workload's updates: the
/// policy plan, the serial lossy and lossless kernels, serial versus
/// 4-thread FedSz, allocations per encode, the streaming-mean fold, and
/// FSW1 frame encode/decode plus a loopback TCP transfer of the encoded
/// update. Appends the lossy.*, lossless.*, policy.*,
/// fedsz.container_share, fedsz.allocs_per_encode, pool.*, aggregator.*,
/// wire.* and transport.* metrics.
void probe_layers(const StateDict& update, const std::string& codec_spec,
                  Metrics& out);

}  // namespace e2e
