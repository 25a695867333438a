// Per-layer re-invocation probes: each layer's public entry point is called
// directly, from outside the library, on the workload's own updates. Each
// probe repeats until about kProbeBytes have gone through the measured call
// or kProbeSeconds have passed, whichever comes first (at least once).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <thread>

#include "common.hpp"  // benchx::allocation_count (bench/alloc_hook.cpp)
#include "core/codec_spec.hpp"
#include "core/fl/aggregator.hpp"
#include "e2e.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"

namespace e2e {

namespace {

using namespace fedsz;

constexpr double kProbeBytes = 64e6;
constexpr double kProbeSeconds = 1.0;
constexpr std::size_t kConnects = 8;

double mb(double bytes) { return bytes / 1e6; }

// Repetitions so that reps * bytes reaches kProbeBytes (at least one).
std::size_t reps_for(double bytes) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(kProbeBytes / bytes)));
}

// Whether a probe that started at `since` and has done `done` of `reps`
// repetitions goes on.
bool more(std::size_t done, std::size_t reps, double since) {
  return done == 0 || (done < reps && now() - since < kProbeSeconds);
}

// The serialized lossless partition of `dict` under `policy` — the bytes the
// container hands to its lossless codec.
Bytes lossless_partition(const StateDict& dict,
                         const core::CompressionPolicy& policy) {
  StateDict partition;
  for (const auto& [name, tensor] : dict)
    if (policy.plan(name, tensor, {}).path == core::TensorPath::kLossless)
      partition.set(name, tensor);
  return partition.serialize();
}

struct LossyTimes {
  double compress = 0.0;
  double decompress = 0.0;
  double bytes = 0.0;
};

// Serial lossy kernels over every planned lossy tensor, chunked and with
// the bound resolved over the whole tensor exactly as the container does:
// every chunk is compressed first, then every chunk decompressed.
LossyTimes time_lossy(const StateDict& dict, const core::FedSz& fedsz,
                      std::vector<Bytes>& chunks) {
  struct Job {
    const lossy::LossyCodec* codec;
    FloatSpan values;
    double eps;
  };
  std::vector<Job> jobs;
  LossyTimes t;
  const std::size_t chunk = fedsz.config().chunk_elements;
  for (const auto& [name, tensor] : dict) {
    const core::TensorPlan plan = fedsz.policy().plan(name, tensor, {});
    if (plan.path != core::TensorPath::kLossy) continue;
    const double eps =
        std::max(plan.bound.absolute_for(tensor.span()), 1e-300);
    const FloatSpan values = tensor.span();
    for (std::size_t begin = 0; begin < values.size(); begin += chunk)
      jobs.push_back({&lossy::lossy_codec(plan.lossy_id),
                      values.subspan(begin, std::min(chunk, values.size() - begin)),
                      eps});
    t.bytes += static_cast<double>(tensor.numel() * sizeof(float));
  }
  chunks.resize(std::max(chunks.size(), jobs.size()));
  double start = now();
  for (std::size_t j = 0; j < jobs.size(); ++j)
    jobs[j].codec->compress_into(jobs[j].values,
                                 lossy::ErrorBound::absolute(jobs[j].eps),
                                 chunks[j]);
  t.compress = now() - start;
  start = now();
  for (std::size_t j = 0; j < jobs.size(); ++j)
    (void)jobs[j].codec->decompress({chunks[j].data(), chunks[j].size()});
  t.decompress = now() - start;
  return t;
}

// Loopback TCP: median connect + accept time over kConnects connections
// (the kernel completes a loopback handshake into the backlog, so both run
// on one thread), then throughput of `reps` writes of `payload` read back on
// the accepting side.
void probe_tcp(ByteSpan payload, std::size_t reps, Metrics& out) {
  net::TcpListener listener(0);
  std::vector<double> connect_ms;
  net::StreamPtr server;
  net::StreamPtr client;
  for (std::size_t i = 0; i < kConnects; ++i) {
    if (client) client->close();
    if (server) server->close();
    const double start = now();
    client = net::tcp_connect("127.0.0.1", listener.port());
    server = listener.accept();
    connect_ms.push_back((now() - start) * 1e3);
  }

  const std::size_t total = payload.size() * reps;
  std::exception_ptr error;
  std::size_t received = 0;
  const double start = now();
  {
    std::jthread reader([&] {
      try {
        std::vector<std::uint8_t> buffer(1 << 20);
        while (received < total) {
          const std::size_t got =
              server->read_some(buffer.data(), buffer.size());
          if (got == 0) break;
          received += got;
        }
      } catch (...) {
        error = std::current_exception();
        server->close();  // a blocked writer then fails instead of hanging
      }
    });
    try {
      for (std::size_t r = 0; r < reps; ++r) client->write_all(payload);
    } catch (...) {
      client->close();  // the reader sees EOF before the join
      throw;
    }
  }
  const double seconds = now() - start;
  client->close();
  server->close();
  if (error) std::rethrow_exception(error);
  if (received != total)
    throw std::runtime_error("tcp probe: short read");
  out.push_back({"transport.tcp_mb_s", mb(static_cast<double>(total)) / seconds,
                 "MB/s"});
  out.push_back({"transport.connect_ms", median(connect_ms), "ms"});
}

}  // namespace

void probe_layers(const StateDict& update, const std::string& codec_spec,
                  Metrics& out) {
  const double probe_start = now();
  core::FedSzConfig serial_config =
      core::codec_spec_config(core::parse_codec_spec(codec_spec));
  serial_config.parallelism = 1;
  core::FedSzConfig parallel_config = serial_config;
  parallel_config.parallelism = 4;
  const core::FedSz serial(serial_config);
  const core::FedSz parallel(parallel_config);
  const core::CompressionPolicy& policy = serial.policy();
  const lossless::LosslessCodec& lossless_codec =
      lossless::lossless_codec(serial_config.lossless_id);

  // Warm both pipelines (workspace lease, pool start) before timing.
  const Bytes payload = serial.compress(update);
  const ByteSpan body{payload.data(), payload.size()};
  (void)serial.decompress(body);
  (void)parallel.decompress(parallel.compress(update));
  const Bytes partition = lossless_partition(update, policy);
  const double update_bytes = static_cast<double>(update.total_bytes());

  std::uint64_t allocations = 0;
  double enc1 = 0.0, dec1 = 0.0, enc4 = 0.0, dec4 = 0.0;
  double plan = 0.0, lossless_enc = 0.0, lossless_dec = 0.0;
  LossyTimes lossy_total;
  std::vector<Bytes> chunks;  // reused, like the container's payload slots
  Bytes packed;
  std::size_t reps = 0;
  for (const double since = now(); more(reps, reps_for(update_bytes), since);
       ++reps) {
    const std::uint64_t allocs_before = benchx::allocation_count();
    double start = now();
    (void)serial.compress(update);
    enc1 += now() - start;
    allocations += benchx::allocation_count() - allocs_before;
    start = now();
    (void)serial.decompress(body);
    dec1 += now() - start;
    start = now();
    (void)parallel.compress(update);
    enc4 += now() - start;
    start = now();
    (void)parallel.decompress(body);
    dec4 += now() - start;

    start = now();
    for (const auto& [name, tensor] : update) (void)policy.plan(name, tensor, {});
    plan += now() - start;

    const LossyTimes lossy = time_lossy(update, serial, chunks);
    lossy_total.compress += lossy.compress;
    lossy_total.decompress += lossy.decompress;
    lossy_total.bytes += lossy.bytes;

    start = now();
    lossless_codec.compress_into({partition.data(), partition.size()}, packed);
    lossless_enc += now() - start;
    start = now();
    (void)lossless_codec.decompress({packed.data(), packed.size()});
    lossless_dec += now() - start;
  }
  const double calls = static_cast<double>(reps);
  const double lossless_mb =
      mb(static_cast<double>(partition.size())) * calls;
  out.push_back({"policy.plan_us_per_tensor",
                 plan * 1e6 / (calls * static_cast<double>(update.size())),
                 "us"});
  out.push_back({"lossy.compress_mb_s", mb(lossy_total.bytes) / lossy_total.compress,
                 "MB/s"});
  out.push_back({"lossy.decompress_mb_s",
                 mb(lossy_total.bytes) / lossy_total.decompress, "MB/s"});
  out.push_back({"lossy.encode_share", lossy_total.compress / enc1, "fraction"});
  out.push_back({"lossless.compress_mb_s", lossless_mb / lossless_enc, "MB/s"});
  out.push_back({"lossless.decompress_mb_s", lossless_mb / lossless_dec, "MB/s"});
  out.push_back({"lossless.encode_share", lossless_enc / enc1, "fraction"});
  out.push_back({"fedsz.container_share",
                 1.0 - (lossy_total.compress + lossless_enc + plan) / enc1,
                 "fraction"});
  out.push_back({"fedsz.allocs_per_encode",
                 static_cast<double>(allocations) / calls, "count"});
  out.push_back({"pool.encode_speedup", enc1 / enc4, "x"});
  out.push_back({"pool.decode_speedup", dec1 / dec4, "x"});

  // Streaming-mean fold of the decoded update into an accumulator shaped
  // like it.
  const StateDict decoded = serial.decompress(body);
  const std::size_t fold_reps = std::max<std::size_t>(8, reps_for(update_bytes));
  core::StreamingMean mean;
  mean.begin(update);
  std::vector<double> fold_seconds;
  for (const double since = now(); more(fold_seconds.size(), fold_reps, since);) {
    const double start = now();
    mean.add(decoded, 1.0);
    fold_seconds.push_back(now() - start);
  }
  const double fold_p50 = median(fold_seconds);
  out.push_back({"aggregator.fold_ms_p50", fold_p50 * 1e3, "ms"});
  out.push_back({"aggregator.fold_gb_s", update_bytes / 1e9 / fold_p50, "GB/s"});

  // FSW1 framing and loopback TCP of the encoded update, the size a partial
  // or update frame has in this workload.
  const std::size_t max_wire_reps = reps_for(static_cast<double>(payload.size()));
  double frame_enc = 0.0, frame_dec = 0.0;
  std::size_t wire_reps = 0;
  for (const double since = now(); more(wire_reps, max_wire_reps, since);
       ++wire_reps) {
    double start = now();
    const Bytes frame = net::encode_frame(net::FrameType::kPartial, body);
    frame_enc += now() - start;
    net::FrameDecoder decoder;
    start = now();
    decoder.feed({frame.data(), frame.size()});
    const std::optional<net::Frame> parsed = decoder.next();
    frame_dec += now() - start;
    if (!parsed || parsed->payload.size() != payload.size())
      throw std::runtime_error("wire probe: frame did not round-trip");
  }
  const double wire_mb = mb(static_cast<double>(payload.size() * wire_reps));
  out.push_back({"wire.frame_encode_mb_s", wire_mb / frame_enc, "MB/s"});
  out.push_back({"wire.frame_decode_mb_s", wire_mb / frame_dec, "MB/s"});
  probe_tcp(body, wire_reps, out);
  std::fprintf(stderr, "layer probes: %.2f s\n", now() - probe_start);
}

}  // namespace e2e
