// Parallel chunked pipeline: single-thread vs N-thread FedSZ compress and
// decompress on Table-III-sized models. The chunk pipeline splits every
// lossy tensor into fixed-size chunks and fans codec work out over a thread
// pool, overlapping the lossless partition with the lossy chunks; this bench
// reports the wall-clock speedup of that fan-out, the steady-state heap
// allocations per compress call (the per-thread workspace and arena
// design targets a constant, thread-count-independent number), and verifies
// that every thread count emits the identical bitstream.
//
// On a machine with >= 4 hardware threads the 4-thread compress path is
// expected to run >= 2x faster than the serial path (compression dominates
// the codec cost profile — Table I — so this is the knob that shortens FL
// rounds). The printed "hw threads" line gives the context for interpreting
// the numbers on smaller machines.
//
// --json emits the shared bench schema (runs keyed by `name` with *_mb_s,
// allocs_per_encode and compressed_bytes fields) consumed by
// bench/compare_baselines.py against
// bench/baselines/BENCH_parallel_pipeline.json, which gates the MB/s within
// its tolerance and compressed_bytes exactly.
#include <cstdio>

#include "common.hpp"
#include "core/fedsz.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace fedsz;

struct PipelineTiming {
  double compress_seconds = 0.0;
  double decompress_seconds = 0.0;
  double allocs_per_encode = 0.0;
  std::size_t chunks = 0;
  Bytes bitstream;
};

// Warm-up length per thread count. On a shared VM idle pool threads can
// need tens of milliseconds of sustained work before they run in parallel:
// after a single warm-up call, best-of-2 timings showed no speedup at any
// thread count.
constexpr double kWarmupSeconds = 0.2;

PipelineTiming measure(const StateDict& dict, std::size_t parallelism,
                       int repetitions) {
  core::FedSzConfig config;
  config.parallelism = parallelism;
  const core::FedSz fedsz{config};
  PipelineTiming timing;
  // Warm-up: pool threads, workspace, arenas.
  const Timer warmup;
  do {
    (void)fedsz.compress(dict);
  } while (warmup.seconds() < kWarmupSeconds);
  double best_compress = 1e30, best_decompress = 1e30;
  const std::uint64_t allocs_before = benchx::allocation_count();
  for (int rep = 0; rep < repetitions; ++rep) {
    core::CompressionStats stats;
    Timer timer;
    Bytes blob = fedsz.compress(dict, &stats);
    best_compress = std::min(best_compress, timer.seconds());
    timing.chunks = stats.lossy_chunks;
    timing.bitstream = std::move(blob);
  }
  timing.allocs_per_encode =
      static_cast<double>(benchx::allocation_count() - allocs_before) /
      static_cast<double>(repetitions);
  for (int rep = 0; rep < repetitions; ++rep) {
    Timer timer;
    (void)fedsz.decompress(
        {timing.bitstream.data(), timing.bitstream.size()});
    best_decompress = std::min(best_decompress, timer.seconds());
  }
  timing.compress_seconds = best_compress;
  timing.decompress_seconds = best_decompress;
  return timing;
}

void bench_model(const std::string& arch, int repetitions,
                 benchx::JsonValue* runs) {
  const StateDict dict = benchx::trained_state_dict(arch, "cifar10");
  const double mb = static_cast<double>(dict.total_bytes()) / 1e6;
  std::printf("\n%s: %zu tensors, %.2f MB\n", arch.c_str(), dict.size(), mb);

  const PipelineTiming serial = measure(dict, 1, repetitions);
  benchx::Table table({"threads", "compress (s)", "MB/s", "speedup",
                       "decompress (s)", "speedup", "allocs/encode",
                       "identical bytes"});
  const auto emit_run = [&](std::size_t threads, const PipelineTiming& t,
                            bool identical) {
    if (runs == nullptr) return;
    benchx::JsonValue run = benchx::JsonValue::object();
    run.set("name", arch + "/threads=" + std::to_string(threads))
        .set("arch", arch)
        .set("threads", threads)
        .set("compress_mb_s", mb / t.compress_seconds)
        .set("decompress_mb_s", mb / t.decompress_seconds)
        .set("allocs_per_encode", t.allocs_per_encode)
        .set("compressed_bytes", t.bitstream.size())
        .set("identical_bytes", identical);
    runs->push(std::move(run));
  };
  table.add_row({"1 (serial)", benchx::fmt(serial.compress_seconds),
                 benchx::fmt(mb / serial.compress_seconds, 1), "1.000",
                 benchx::fmt(serial.decompress_seconds), "1.000",
                 benchx::fmt(serial.allocs_per_encode, 1), "yes"});
  emit_run(1, serial, true);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4},
                                    std::size_t{8}}) {
    const PipelineTiming parallel = measure(dict, threads, repetitions);
    const bool identical = parallel.bitstream == serial.bitstream;
    table.add_row(
        {std::to_string(threads), benchx::fmt(parallel.compress_seconds),
         benchx::fmt(mb / parallel.compress_seconds, 1),
         benchx::fmt(serial.compress_seconds / parallel.compress_seconds),
         benchx::fmt(parallel.decompress_seconds),
         benchx::fmt(serial.decompress_seconds /
                     parallel.decompress_seconds),
         benchx::fmt(parallel.allocs_per_encode, 1),
         identical ? "yes" : "NO"});
    emit_run(threads, parallel, identical);
    if (!identical) {
      std::printf("ERROR: %zu-thread bitstream differs from serial!\n",
                  threads);
    }
  }
  table.print();
  std::printf("chunks: %zu (chunk_elements=%zu)\n", serial.chunks,
              core::FedSzConfig{}.chunk_elements);
}

}  // namespace

int main(int argc, char** argv) {
  const benchx::BenchOptions options = benchx::parse_bench_options(argc, argv);
  std::printf(
      "Parallel chunked FedSZ pipeline: serial vs N-thread compress path\n"
      "on Table-III model analogues (bench scale). Expectation on >=4 hw\n"
      "threads: >=2x compress speedup at 4 threads, identical bitstreams\n"
      "at every thread count.\n");
  std::printf("hw threads on this machine: %zu\n",
              ThreadPool::hardware_threads());
  // Smoke and default runs time the same section: the CI gate needs one
  // long enough to show the thread scaling.
  const int repetitions = !options.smoke && benchx::full_grid() ? 20 : 10;
  benchx::JsonValue runs = benchx::JsonValue::array();
  for (const std::string& arch : nn::model_architectures())
    bench_model(arch, repetitions,
                options.json_path.empty() ? nullptr : &runs);
  if (!options.json_path.empty()) {
    benchx::JsonValue json = benchx::JsonValue::object();
    json.set("bench", "parallel_pipeline")
        .set("smoke", options.smoke)
        .set("reps", repetitions)
        .set("runs", std::move(runs));
    benchx::write_json(options.json_path, json);
    std::printf("\nwrote %s\n", options.json_path.c_str());
  }
  return 0;
}
