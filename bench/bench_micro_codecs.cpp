// Per-codec micro-benchmarks on the shared bench CLI: compress and
// decompress throughput (MB/s), compression ratio and steady-state
// allocations-per-encode for every lossy codec (at two relative bounds) and
// every lossless codec. Encode runs through compress_into with a reused
// output buffer after a warm-up of at least kWarmupSeconds, so the
// allocation column reports exactly what the arena-backed hot path costs
// per call once the thread-local scratch exists. The --json schema (runs
// keyed by `name` with *_mb_s / ratio / allocs_per_encode /
// compressed_bytes fields) is shared with bench_parallel_pipeline;
// bench/compare_baselines.py gates CI on both against the committed files
// under bench/baselines/: the MB/s within its tolerance, compressed_bytes
// exactly.
#include <cstdio>
#include <cstring>

#include "common.hpp"
#include "compress/sparse/sparse_codec.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace fedsz;

struct MicroResult {
  std::string name;
  std::string kind;  // "lossy" | "lossless" | "sparse"
  double compress_mb_s = 0.0;
  double decompress_mb_s = 0.0;
  double ratio = 0.0;
  double allocs_per_encode = 0.0;
  std::size_t compressed_bytes = 0;  // exact: any stream change moves it
};

std::vector<float> weight_payload(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> values(n);
  for (auto& v : values) v = static_cast<float>(rng.laplace(0.0, 0.05));
  return values;
}

Bytes metadata_payload(std::size_t n_floats, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> values(n_floats);
  for (auto& v : values) v = static_cast<float>(rng.normal(0.0, 0.02));
  Bytes bytes(values.size() * sizeof(float));
  std::memcpy(bytes.data(), values.data(), bytes.size());
  return bytes;
}

// Warm-up length per row. A pass takes a few milliseconds; on a shared VM
// the best of 3 after a single warm-up call failed the CI floor in 3 to 6
// of 20 smokes of one build.
constexpr double kWarmupSeconds = 0.2;

/// Best-of-`reps` encode/decode timing plus the mean allocation count per
/// encode across the timed passes (steady state: encode and decode run for
/// kWarmupSeconds first).
template <typename EncodeFn, typename DecodeFn>
MicroResult measure(std::string name, std::string kind, std::size_t raw_bytes,
                    int reps, EncodeFn&& encode, DecodeFn&& decode) {
  MicroResult result;
  result.name = std::move(name);
  result.kind = std::move(kind);

  Bytes blob;
  const Timer warmup;  // builds thread-local arenas, sizes `blob`
  do {
    encode(blob);
    decode(blob);
  } while (warmup.seconds() < kWarmupSeconds);
  double best_encode = 1e30;
  const std::uint64_t allocs_before = benchx::allocation_count();
  for (int rep = 0; rep < reps; ++rep) {
    Timer timer;
    encode(blob);
    best_encode = std::min(best_encode, timer.seconds());
  }
  result.allocs_per_encode =
      static_cast<double>(benchx::allocation_count() - allocs_before) /
      static_cast<double>(reps);
  result.compress_mb_s =
      static_cast<double>(raw_bytes) / 1e6 / best_encode;
  result.ratio =
      static_cast<double>(raw_bytes) / static_cast<double>(blob.size());
  result.compressed_bytes = blob.size();

  double best_decode = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    Timer timer;
    decode(blob);
    best_decode = std::min(best_decode, timer.seconds());
  }
  result.decompress_mb_s =
      static_cast<double>(raw_bytes) / 1e6 / best_decode;
  return result;
}

std::string bound_label(double rel) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", rel);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const benchx::BenchOptions options = benchx::parse_bench_options(argc, argv);
  // Smoke and default runs time the same section: the CI gate needs the
  // best of enough warm passes to sit steadily above its floor.
  const int reps = 10;
  const std::uint64_t seed = options.seed_or(404);
  (void)options.threads_or(1);  // codec micro-bench is single-threaded

  std::printf(
      "Per-codec micro-benchmarks: compress/decompress MB/s, ratio and\n"
      "steady-state allocations per encode (weight-shaped lossy payload,\n"
      "metadata-shaped lossless payload; best of %d timed passes).\n\n",
      reps);

  const auto values = weight_payload(1 << 18, seed);
  const Bytes metadata = metadata_payload(1 << 16, seed + 1);
  std::vector<MicroResult> results;

  for (const lossy::LossyCodec* codec : lossy::all_lossy_codecs()) {
    for (const double rel : {1e-2, 1e-4}) {
      const lossy::ErrorBound bound = lossy::ErrorBound::relative(rel);
      results.push_back(measure(
          codec->name() + "/rel=" + bound_label(rel), "lossy",
          values.size() * sizeof(float), reps,
          [&](Bytes& blob) {
            codec->compress_into({values.data(), values.size()}, bound, blob);
          },
          [&](const Bytes& blob) {
            (void)codec->decompress({blob.data(), blob.size()});
          }));
    }
  }
  for (const lossless::LosslessCodec* codec :
       lossless::all_lossless_codecs()) {
    results.push_back(measure(
        codec->name(), "lossless", metadata.size(), reps,
        [&](Bytes& blob) {
          codec->compress_into({metadata.data(), metadata.size()}, blob);
        },
        [&](const Bytes& blob) {
          (void)codec->decompress({blob.data(), blob.size()});
        }));
  }
  // Sparse-quantization rows: adaptive thresholding at a relative bound, and
  // the explicit top-10% / 8-bit configuration. Survivors route through the
  // zstd-like backend, same as the container default.
  {
    const lossless::LosslessCodec& backend =
        lossless::lossless_codec(lossless::LosslessId::kZstd);
    const FloatSpan span{values.data(), values.size()};
    struct SparseRow {
      const char* name;
      sparse::SparseParams params;
    };
    const SparseRow rows[] = {
        {"sparse/rel=0.01", {}},
        {"sparse/rel=0.01,s=0.9,b=8", {0.9, 8}},
    };
    for (const SparseRow& row : rows) {
      const double eps =
          lossy::ErrorBound::relative(1e-2).absolute_for(span);
      results.push_back(measure(
          row.name, "sparse", values.size() * sizeof(float), reps,
          [&](Bytes& blob) {
            sparse::sparse_codec().compress_into(span, eps, row.params,
                                                 backend, blob);
          },
          [&](const Bytes& blob) {
            (void)sparse::sparse_codec().decompress(
                {blob.data(), blob.size()});
          }));
    }
  }

  benchx::Table table({"codec", "compress MB/s", "decompress MB/s", "ratio",
                       "allocs/encode"});
  for (const MicroResult& r : results)
    table.add_row({r.name, benchx::fmt(r.compress_mb_s, 1),
                   benchx::fmt(r.decompress_mb_s, 1), benchx::fmt(r.ratio, 2),
                   benchx::fmt(r.allocs_per_encode, 1)});
  table.print();

  if (!options.json_path.empty()) {
    benchx::JsonValue json = benchx::JsonValue::object();
    json.set("bench", "micro_codecs")
        .set("smoke", options.smoke)
        .set("seed", static_cast<std::size_t>(seed))
        .set("reps", reps);
    benchx::JsonValue runs = benchx::JsonValue::array();
    for (const MicroResult& r : results) {
      benchx::JsonValue run = benchx::JsonValue::object();
      run.set("name", r.name)
          .set("kind", r.kind)
          .set("compress_mb_s", r.compress_mb_s)
          .set("decompress_mb_s", r.decompress_mb_s)
          .set("ratio", r.ratio)
          .set("allocs_per_encode", r.allocs_per_encode)
          .set("compressed_bytes", r.compressed_bytes);
      runs.push(std::move(run));
    }
    json.set("runs", std::move(runs));
    benchx::write_json(options.json_path, json);
    std::printf("\nwrote %s\n", options.json_path.c_str());
  }
  return 0;
}
