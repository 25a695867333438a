// End-to-end benchmark process: runs one workload in a closed loop for a
// wall-clock budget, checks every output, and writes one JSON result file
// (run.py turns it into the benchmark's result line). See README.md.
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//             --out FILE [--spans FILE]
//
// A run is a sequence of passes until the budget is spent. Each pass sets
// itself up from scratch (setup_s is the median over passes of its CPU time)
// and then does fixed work: two rotations over six paper-scale updates in
// codec_large, one whole campaign in the other workloads. Every pass of a
// run uses the same seed, so every pass must reproduce the first pass's
// bytes and accuracies exactly; a difference is a failed check.
//
// With --trace 1 the even passes record spans (TracingCodec around the
// uplink codec, or spans around the direct codec calls), the odd passes run
// untraced so the run can report its own tracing overhead, and the
// per-layer probes run after the last pass.
#include <malloc.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/codec_spec.hpp"
#include "core/fl/coordinator.hpp"
#include "core/fl/federation.hpp"
#include "data/synthetic.hpp"
#include "e2e.hpp"
#include "nn/models.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace e2e {
namespace {

using namespace fedsz;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_path;
  std::string spans_path;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload codec_large|fedavg_flat|edge_tree|"
               "tcp_tree --seed N --seconds S --trace 0|1 --out FILE "
               "[--spans FILE]\n",
               argv0);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool has_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(argv[0]);
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      has_seed = end != value && *end == '\0';
      if (!has_seed) usage(argv[0]);
    } else if (arg == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(args.seconds > 0.0))
        usage(argv[0]);
    } else if (arg == "--trace") {
      const std::string flag = value;
      if (flag != "0" && flag != "1") usage(argv[0]);
      args.trace = flag == "1";
    } else if (arg == "--out") {
      args.out_path = value;
    } else if (arg == "--spans") {
      args.spans_path = value;
    } else {
      usage(argv[0]);
    }
  }
  if (args.workload.empty() || !has_seed || args.seconds <= 0.0 ||
      args.out_path.empty())
    usage(argv[0]);
  return args;
}

// Independent streams from the one --seed (splitmix64 finalizer).
std::uint64_t derive(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (tag + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

enum SeedTag : std::uint64_t { kDataSeed = 1, kModelSeed, kRunSeed, kClientSeed };

// Eqn (1) at 500 Mbps, the paper's break-even bandwidth: raw transfer time
// over encode + compressed transfer + decode.
constexpr double kEqnMbps = 500.0;
double link_seconds(double bytes) { return bytes * 8.0 / (kEqnMbps * 1e6); }

double peak_rss_mb(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB
}

struct Result {
  Metrics end_to_end;
  Metrics per_layer;
  // Reported but not gated: wall-clock times, which drift too much on a
  // shared host to carry a bound, and the per-seed final accuracy.
  Metrics extra;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  // first few messages
};

void fail(Result& result, const std::string& message) {
  ++result.failed;
  std::fprintf(stderr, "e2e_bench: check failed: %s\n", message.c_str());
  if (result.failures.size() < 8) result.failures.push_back(message);
}

// Every check of one codec round trip: names and shapes survive, lossy
// entries stay within the bound resolved over the whole tensor, and every
// other entry is bit-exact.
std::string check_roundtrip(const StateDict& in, const StateDict& out,
                            const core::CompressionPolicy& policy) {
  if (out.size() != in.size()) return "entry count changed";
  for (const auto& [name, tensor] : in) {
    if (!out.contains(name)) return "entry " + name + " missing";
    const Tensor& back = out.get(name);
    if (!back.same_shape(tensor)) return "entry " + name + " changed shape";
    const core::TensorPlan plan = policy.plan(name, tensor, {});
    if (plan.path == core::TensorPath::kLossy) {
      const double eps = plan.bound.absolute_for(tensor.span());
      const double err = stats::max_abs_error(tensor.span(), back.span());
      if (!(err <= eps * (1 + 1e-5) + 1e-12))
        return "entry " + name + " error " + std::to_string(err) +
               " exceeds bound " + std::to_string(eps);
    } else if (!back.equals(tensor)) {
      return "entry " + name + " is not bit-exact";
    }
  }
  return {};
}

// Uplink work of one round (a campaign round, or a codec_large rotation):
// raw and wire bytes of its updates, and their summed encode/decode time.
struct Uplink {
  double raw = 0.0;
  double wire = 0.0;
  double encode_s = 0.0;
  double decode_s = 0.0;
};

// What a run measures per pass and per round (a campaign round, or a
// codec_large rotation). Traced passes of a --trace 1 run only feed
// round_cpu_traced.
struct Samples {
  std::vector<double> setup_cpu;  // CPU seconds of each pass's set-up
  std::vector<double> round_cpu;  // CPU seconds per round, all processes
  std::vector<double> round_cpu_traced;
  std::vector<double> round_wall;  // wall seconds per round
  std::vector<Uplink> uplinks;
};

// The timing metrics of an untraced run. Times that gate a change are CPU
// times: on a shared host they vary far less from run to run than wall
// times, which go to `extra`. Throughputs and Eqn (1) are medians over
// rounds of each round's ratio, so one round whose sub-millisecond decodes
// were preempted does not move them.
void timing_metrics(const Samples& s, Result& result) {
  result.end_to_end.push_back({"setup_s", median(s.setup_cpu), "s"});
  result.end_to_end.push_back({"round_cpu_s", median(s.round_cpu), "s"});
  std::vector<double> encode, decode, speedup;
  for (const Uplink& u : s.uplinks) {
    encode.push_back(u.raw / 1e6 / u.encode_s);
    decode.push_back(u.raw / 1e6 / u.decode_s);
    speedup.push_back(link_seconds(u.raw) /
                      (u.encode_s + u.decode_s + link_seconds(u.wire)));
  }
  Metrics& x = result.extra;
  x.push_back({"round_s", median(s.round_wall), "s"});
  x.push_back({"encode_mb_s", median(encode), "MB/s"});
  x.push_back({"decode_mb_s", median(decode), "MB/s"});
  x.push_back({"comm_speedup_500mbps", median(speedup), "x"});
}

// Percentiles of span durations in milliseconds, and their count.
void span_timing(const std::string& prefix, const std::vector<double>& seconds,
                 Metrics& out) {
  std::vector<double> ms;
  for (const double s : seconds) ms.push_back(s * 1e3);
  out.push_back({prefix + "_ms_p50", quantile(ms, 0.5), "ms"});
  out.push_back({prefix + "_ms_p90", quantile(ms, 0.9), "ms"});
  out.push_back({prefix + "_n", static_cast<double>(ms.size()), "count"});
}

// Hands the pass's freed heap back to the system, so the next pass's set-up
// faults its memory in again like the first pass did; without it, later
// passes reuse warm pages and set-up time would depend on the pass count.
void end_pass() { malloc_trim(0); }

// Whether work expected to last `duration` seconds should start: only while
// at least half of it would end inside the budget, so a run overshoots its
// budget by at most half a pass.
bool fits(double duration, double budget) {
  return now() + 0.5 * duration < budget;
}

// Traced over untraced CPU seconds per round, minus 1 (0 when the run had
// no pass of either kind).
double overhead_frac(const Samples& s) {
  if (s.round_cpu_traced.empty() || s.round_cpu.empty()) return 0.0;
  return median(s.round_cpu_traced) / median(s.round_cpu) - 1.0;
}

// ---------------------------------------------------------------- codec_large

constexpr const char* kCodecLargeSpec = "fedsz:eb=rel:1e-2,threads=4";
constexpr const char* kPaperArchs[] = {"mobilenet_v2", "resnet", "alexnet"};
constexpr std::size_t kInitSeeds = 2;
constexpr int kRotationsPerPass = 2;

StateDict paper_update(const char* arch, std::uint64_t seed,
                       std::size_t init) {
  nn::ModelConfig config;
  config.arch = arch;
  config.scale = nn::ModelScale::kPaper;
  config.seed = derive(seed, kModelSeed + 16 * init);
  return nn::build_model(config).model.state_dict();
}

Result run_codec_large(const Args& args, SpanLog* log) {
  Result result;
  Samples samples;
  std::vector<double> encode_spans, decode_spans;
  std::vector<std::size_t> first_wire;  // per input, from the first pass
  std::vector<std::size_t> first_raw;
  double pass_s = 0.0;
  for (int pass = 0; pass == 0 || fits(pass_s, args.seconds); ++pass) {
    const double pass_start = pass == 0 ? 0.0 : now();
    const double pass_cpu = cpu_now();
    const bool traced = log != nullptr && pass % 2 == 0;
    const core::UpdateCodecPtr codec = core::make_codec(kCodecLargeSpec);
    const core::CompressionPolicy& policy =
        dynamic_cast<const core::FedSzCodec&>(*codec).fedsz().policy();
    std::vector<StateDict> inputs;
    for (std::size_t init = 0; init < kInitSeeds; ++init)
      for (const char* arch : kPaperArchs)
        inputs.push_back(paper_update(arch, args.seed, init));
    for (std::size_t i = 0; i < std::size(kPaperArchs); ++i) {  // warm-up
      const auto encoded = codec->encode(inputs[i]);
      (void)codec->decode({encoded.payload.data(), encoded.payload.size()});
    }
    samples.setup_cpu.push_back(cpu_now() - pass_cpu);

    double rotation_s = 0.0;
    for (int rotation = 0; rotation < kRotationsPerPass &&
                           (rotation == 0 || fits(rotation_s, args.seconds));
         ++rotation) {
      rotation_s = 0.0;
      double rotation_cpu = 0.0;
      Uplink uplink;
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        const std::uint64_t op = ++result.attempted;
        const double cpu0 = cpu_now();
        const double t0 = now();
        const auto encoded = codec->encode(inputs[i]);
        const double t1 = now();
        const StateDict decoded =
            codec->decode({encoded.payload.data(), encoded.payload.size()});
        const double t2 = now();
        rotation_cpu += cpu_now() - cpu0;
        if (traced) {
          const std::uint64_t parent = log->next_id();
          log->record("fedsz.encode", t0, t1, parent, op);
          log->record("fedsz.decode", t1, t2, parent, op);
          log->record("codec_op", t0, t2, 0, op, parent);
          encode_spans.push_back(t1 - t0);
          decode_spans.push_back(t2 - t1);
        }
        rotation_s += t2 - t0;
        uplink.raw += static_cast<double>(inputs[i].total_bytes());
        uplink.wire += static_cast<double>(encoded.payload.size());
        uplink.encode_s += t1 - t0;
        uplink.decode_s += t2 - t1;

        std::string error = check_roundtrip(inputs[i], decoded, policy);
        if (first_wire.size() < inputs.size()) {
          first_wire.push_back(encoded.payload.size());
          first_raw.push_back(inputs[i].total_bytes());
        } else if (first_wire[i] != encoded.payload.size() && error.empty()) {
          error = "input " + std::to_string(i) +
                  " encoded to a different size than in the first pass";
        }
        if (!error.empty()) fail(result, error);
      }
      const double ops = static_cast<double>(inputs.size());
      if (traced) {
        samples.round_cpu_traced.push_back(rotation_cpu / ops);
      } else {
        samples.round_cpu.push_back(rotation_cpu / ops);
        samples.round_wall.push_back(rotation_s / ops);
        samples.uplinks.push_back(uplink);
      }
      std::fprintf(stderr,
                   "codec_large pass %d rotation %d: %.4f s/op, %.4f CPU-s/op%s\n",
                   pass, rotation, rotation_s / ops, rotation_cpu / ops,
                   traced ? " (traced)" : "");
    }
    pass_s = now() - pass_start;
    end_pass();
  }

  double first_raw_total = 0.0, first_wire_total = 0.0;
  for (std::size_t i = 0; i < first_wire.size(); ++i) {
    first_raw_total += static_cast<double>(first_raw[i]);
    first_wire_total += static_cast<double>(first_wire[i]);
  }
  if (!log) {
    timing_metrics(samples, result);
    Metrics& m = result.end_to_end;
    m.push_back({"compression_ratio", first_raw_total / first_wire_total, "x"});
    m.push_back({"uplink_mb", first_wire_total / 1e6, "MB"});
    m.push_back({"peak_rss_mb", peak_rss_mb(RUSAGE_SELF), "MB"});
    return result;
  }

  Metrics& m = result.per_layer;
  const double calls = static_cast<double>(first_wire.size());
  m.push_back({"fedsz.encode_calls", calls, "count"});
  m.push_back({"fedsz.decode_calls", calls, "count"});
  span_timing("fedsz.encode", encode_spans, m);
  span_timing("fedsz.decode", decode_spans, m);
  // Busy time per rotation: the spans of one rotation sum to these.
  const double rotations =
      static_cast<double>(encode_spans.size()) / std::max(calls, 1.0);
  double encode_busy = 0.0, decode_busy = 0.0;
  for (const double s : encode_spans) encode_busy += s;
  for (const double s : decode_spans) decode_busy += s;
  m.push_back({"fedsz.encode_busy_s", encode_busy / rotations, "s"});
  m.push_back({"fedsz.decode_busy_s", decode_busy / rotations, "s"});
  // Probes on one paper-scale update (ResNet50, 94 MB) keep the traced run
  // short.
  const StateDict probe_input = paper_update("resnet", args.seed, 0);
  probe_layers(probe_input, kCodecLargeSpec, m);
  m.push_back({"trace.overhead_frac", overhead_frac(samples), "fraction"});
  return result;
}

// ------------------------------------------------------------------ campaigns

struct CampaignShape {
  const char* arch;
  nn::ModelScale scale;
  std::size_t clients;
  std::size_t samples;  // per client
  std::size_t batch;
  int rounds;
  std::size_t eval_limit;
  bool eval_every_round;
  const char* spec;  // codec spec with comm keys
};

// The paper's scenario: flat synchronous FedAvg, evaluation every round.
constexpr CampaignShape kFedavgFlat{
    "mobilenet_v2", nn::ModelScale::kTiny, 8, 32, 16, 2, 128, true,
    "fedsz:eb=rel:1e-2"};
// A cross-device fleet: many small clients under tier-1 edges, compressed
// backhaul and delta downlink, client error feedback.
constexpr CampaignShape kEdgeTree{
    "alexnet", nn::ModelScale::kBench, 32, 2, 2, 2, 64, false,
    "fedsz:eb=rel:1e-2,topology=hier:4,backhaul=fedsz:eb=rel:1e-2,"
    "downlink=fedsz:eb=rel:1e-2,downmode=delta,ef=on"};
// The distributed path: each tier-1 edge is a fedsz_edge_worker process.
constexpr CampaignShape kTcpTree{
    "mobilenet_v2", nn::ModelScale::kTiny, 12, 16, 16, 2, 64, true,
    "fedsz:eb=rel:1e-2,topology=hier:4,backhaul=fedsz:eb=rel:1e-2,"
    "transport=tcp:0"};
// Pool threads. With the pump thread that calls run() that makes 4 busy
// threads on 4 cores, so training never preempts the pump's serial decodes.
constexpr std::size_t kCampaignThreads = 3;

// The fedsz_edge_worker processes of one tcp_tree campaign. The destructor
// kills and reaps every worker not yet waited for, so no worker outlives the
// campaign, whichever way it ends.
class WorkerGroup {
 public:
  WorkerGroup() = default;
  WorkerGroup(const WorkerGroup&) = delete;
  WorkerGroup& operator=(const WorkerGroup&) = delete;
  ~WorkerGroup() {
    for (const pid_t pid : pids_) {
      ::kill(pid, SIGKILL);
      while (::waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
      }
    }
  }

  void spawn(const std::string& endpoint) {
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      ::execl(FEDSZ_EDGE_WORKER, FEDSZ_EDGE_WORKER, "--connect",
              endpoint.c_str(), static_cast<char*>(nullptr));
      ::_exit(127);
    }
    pids_.push_back(pid);
  }

  /// Wait for every worker; the number that did not exit with status 0.
  std::size_t wait_all() {
    std::size_t bad = 0;
    for (const pid_t pid : pids_) {
      int status = 0;
      while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
      }
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) ++bad;
    }
    pids_.clear();
    return bad;
  }

 private:
  std::vector<pid_t> pids_;
};

struct Campaign {
  core::FlRunResult result;
  double setup_cpu = 0.0;
  double make_dataset_s = 0.0;
  double start = 0.0;  // run() start and end, on the process clock
  double end = 0.0;
  double cpu = 0.0;  // CPU seconds of run(), edge workers included
  std::uint64_t span = 0;  // parent of this campaign's codec spans (traced)
};

// CPU seconds of the children this process has waited for.
double children_cpu() {
  rusage usage{};
  getrusage(RUSAGE_CHILDREN, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

struct CampaignInputs {
  data::DatasetPtr train;  // the clients' samples
  data::DatasetPtr test;   // the evaluation samples
  core::FlRunConfig config;
  nn::ModelConfig model;
  std::uint64_t data_seed = 0;
};

CampaignInputs campaign_inputs(const CampaignShape& shape, std::uint64_t seed,
                               double* make_dataset_s) {
  CampaignInputs in;
  in.data_seed = derive(seed, kDataSeed);
  const double start = now();
  auto [train, test] = data::make_dataset("cifar10", in.data_seed);
  if (make_dataset_s) *make_dataset_s = now() - start;
  in.train = data::take(train, shape.clients * shape.samples);
  in.test = data::take(test, shape.eval_limit);
  in.config.apply_comm_spec(core::parse_codec_spec(shape.spec));
  in.config.clients = shape.clients;
  in.config.rounds = shape.rounds;
  in.config.seed = derive(seed, kRunSeed);
  in.config.eval_limit = shape.eval_limit;
  in.config.evaluate_every_round = shape.eval_every_round;
  in.config.threads = kCampaignThreads;
  in.config.client.batch_size = shape.batch;
  in.config.client.seed = derive(seed, kClientSeed);
  in.model.arch = shape.arch;
  in.model.scale = shape.scale;
  in.model.seed = derive(seed, kModelSeed);
  return in;
}

// One campaign. `pass_cpu` is the process CPU time the pass started at.
Campaign run_campaign(const CampaignShape& shape, std::uint64_t seed,
                      double pass_cpu, SpanLog* log, Result& result) {
  Campaign c;
  const CampaignInputs in = campaign_inputs(shape, seed, &c.make_dataset_s);
  const core::CodecSpec spec = core::parse_codec_spec(shape.spec);
  if (!in.config.transport.empty()) {
    // Workers rebuild the training samples from this recipe.
    const core::DatasetSpec recipe{"cifar10", in.data_seed,
                                   shape.clients * shape.samples};
    core::FederatedRoot root(in.model, recipe, in.test, in.config, spec);
    WorkerGroup workers;
    const double workers_cpu = children_cpu();
    const std::string endpoint = "127.0.0.1:" + std::to_string(root.port());
    for (std::size_t e = 0; e < root.edge_count(); ++e) workers.spawn(endpoint);
    c.setup_cpu = cpu_now() - pass_cpu;
    const double cpu = cpu_now();
    c.start = now();
    c.result = root.run();
    c.end = now();
    if (const std::size_t bad = workers.wait_all())
      fail(result, std::to_string(bad) + " edge worker(s) exited nonzero");
    c.cpu = cpu_now() - cpu + children_cpu() - workers_cpu;
    return c;
  }
  core::UpdateCodecPtr codec = core::make_codec(spec);
  if (log) {
    c.span = log->next_id();
    codec = std::make_shared<TracingCodec>(codec, *log, c.span);
  }
  core::FlCoordinator coordinator(in.model, in.train, in.test, in.config,
                                  codec);
  c.setup_cpu = cpu_now() - pass_cpu;
  const double cpu = cpu_now();
  c.start = now();
  c.result = coordinator.run();
  c.end = now();
  c.cpu = cpu_now() - cpu;
  if (log) log->record("campaign", c.start, c.end, 0, 0, c.span);
  return c;
}

// Round-level checks: full participation, the conserved aggregate weight,
// no churn, a finite accuracy.
std::string check_round(const core::RoundRecord& r, const CampaignShape& shape) {
  const std::string at = "round " + std::to_string(r.round) + ": ";
  if (r.participants != shape.clients)
    return at + std::to_string(r.participants) + " participants, expected " +
           std::to_string(shape.clients);
  const double weight = static_cast<double>(shape.clients * shape.samples);
  if (r.aggregate_weight != weight)
    return at + "aggregate weight " + std::to_string(r.aggregate_weight) +
           ", expected " + std::to_string(weight);
  if (!r.crashed_nodes.empty()) return at + "crashed nodes";
  if (!std::isfinite(r.accuracy)) return at + "non-finite accuracy";
  return {};
}

// What must repeat exactly between passes of one seed.
bool same_outputs(const core::RoundRecord& a, const core::RoundRecord& b) {
  return a.bytes_sent == b.bytes_sent && a.raw_bytes == b.raw_bytes &&
         a.backhaul_bytes == b.backhaul_bytes &&
         a.downlink_bytes == b.downlink_bytes && a.accuracy == b.accuracy;
}

Result run_campaigns(const CampaignShape& shape, const Args& args,
                     SpanLog* log) {
  Result result;
  Samples samples;
  std::vector<Campaign> campaigns;
  std::vector<double> make_dataset;
  const std::size_t pump = thread_index();
  // Edge workers run the uplink codec out of process, beyond TracingCodec.
  const bool tcp = !core::parse_codec_spec(shape.spec).transport.empty();
  double pass_s = 0.0;
  for (int pass = 0; pass == 0 || fits(pass_s, args.seconds); ++pass) {
    const double pass_start = pass == 0 ? 0.0 : now();
    const bool traced = log != nullptr && pass % 2 == 0 && !tcp;
    Campaign c = run_campaign(shape, args.seed, cpu_now(),
                              traced ? log : nullptr, result);
    pass_s = now() - pass_start;
    samples.setup_cpu.push_back(c.setup_cpu);
    make_dataset.push_back(c.make_dataset_s);
    const double round_cpu = c.cpu / shape.rounds;
    const double round_s = (c.end - c.start) / shape.rounds;
    if (traced) {
      samples.round_cpu_traced.push_back(round_cpu);
    } else {
      samples.round_cpu.push_back(round_cpu);
      samples.round_wall.push_back(round_s);
    }
    std::fprintf(stderr,
                 "%s pass %d: set-up %.4f CPU-s, %.4f s/round, "
                 "%.4f CPU-s/round%s\n",
                 args.workload.c_str(), pass, c.setup_cpu, round_s, round_cpu,
                 traced ? " (traced)" : "");

    const std::vector<core::RoundRecord>& rounds = c.result.rounds;
    result.attempted += static_cast<std::size_t>(shape.rounds);
    if (rounds.size() != static_cast<std::size_t>(shape.rounds))
      fail(result, std::to_string(rounds.size()) + " rounds completed");
    if (c.result.late_events != 0) fail(result, "late events");
    for (std::size_t r = 0; r < rounds.size(); ++r) {
      std::string error = check_round(rounds[r], shape);
      if (error.empty() && !campaigns.empty() &&
          !same_outputs(rounds[r], campaigns.front().result.rounds[r]))
        error = "round " + std::to_string(r) +
                " differs from the first pass (nondeterministic campaign)";
      if (!error.empty()) fail(result, error);
    }
    campaigns.push_back(std::move(c));
    end_pass();
  }

  for (const Campaign& c : campaigns) {
    if (c.span != 0) continue;  // traced
    for (const core::RoundRecord& r : c.result.rounds) {
      // The record's seconds are means over the round's participants.
      const double n = static_cast<double>(r.participants);
      samples.uplinks.push_back({static_cast<double>(r.raw_bytes),
                                 static_cast<double>(r.bytes_sent),
                                 r.compress_seconds * n,
                                 r.decompress_seconds * n});
    }
  }
  const core::FlRunResult& first = campaigns.front().result;
  double first_raw = 0.0, first_wire = 0.0;
  for (const core::RoundRecord& r : first.rounds) {
    first_raw += static_cast<double>(r.raw_bytes);
    first_wire += static_cast<double>(r.bytes_sent);
  }
  result.extra.push_back({"final_accuracy", first.final_accuracy, "fraction"});

  if (!log) {
    double rss = peak_rss_mb(RUSAGE_SELF);
    if (tcp) rss += peak_rss_mb(RUSAGE_CHILDREN);  // the largest edge worker
    timing_metrics(samples, result);
    Metrics& m = result.end_to_end;
    m.push_back({"compression_ratio", first_raw / first_wire, "x"});
    m.push_back({"uplink_mb", first_wire / 1e6, "MB"});
    m.push_back({"peak_rss_mb", rss, "MB"});
    return result;
  }

  // ---- per-layer metrics of the traced run ----
  // Codec spans, keyed by their campaign's span id.
  struct SpanTotals {
    std::size_t encodes = 0, decodes = 0;
    double encode_busy = 0.0, decode_busy = 0.0, pump_decode = 0.0;
    double pool_codec = 0.0;  // codec spans on pool threads
  };
  std::map<std::uint64_t, SpanTotals> totals;
  std::map<std::pair<std::uint64_t, std::uint64_t>, double> encode_end;
  std::vector<double> encode_spans, decode_spans, decode_wait_ms;
  const std::vector<Span> spans = log->spans();
  for (const Span& s : spans)
    if (s.name == "fedsz.encode") encode_end[{s.parent, s.op}] = s.end;
  for (const Span& s : spans) {
    if (s.parent == 0) continue;  // a campaign span itself
    SpanTotals& t = totals[s.parent];
    const bool on_pump = s.thread == pump;
    if (!on_pump) t.pool_codec += s.seconds();
    if (s.name == "fedsz.encode") {
      ++t.encodes;
      t.encode_busy += s.seconds();
      encode_spans.push_back(s.seconds());
    } else if (s.name == "fedsz.decode") {
      ++t.decodes;
      t.decode_busy += s.seconds();
      decode_spans.push_back(s.seconds());
      if (on_pump) {
        t.pump_decode += s.seconds();
        const auto it = encode_end.find({s.parent, s.op});
        if (it != encode_end.end())
          decode_wait_ms.push_back((s.start - it->second) * 1e3);
      }
    }
  }

  std::vector<double> encode_busy, decode_busy, pump_decode, pool_share;
  std::vector<double> train_busy, train_ms, eval_s;
  std::vector<double> backhaul_enc, backhaul_dec, backhaul_mb;
  std::vector<double> downlink_enc, downlink_dec, downlink_mb, ef_dec;
  for (const Campaign& c : campaigns) {
    double train = 0.0, updates = 0.0, eval = 0.0, downlink_codec = 0.0;
    double b_enc = 0.0, b_dec = 0.0, partials = 0.0, b_bytes = 0.0;
    double d_enc = 0.0, d_dec = 0.0, d_bytes = 0.0, ef = 0.0;
    for (const core::RoundRecord& r : c.result.rounds) {
      const double n = static_cast<double>(r.participants);
      train += r.train_seconds * n;
      updates += n;
      eval += r.eval_seconds;
      downlink_codec += (r.downlink_encode_seconds + r.downlink_decode_seconds) * n;
      d_enc += r.downlink_encode_seconds;
      d_dec += r.downlink_decode_seconds;
      d_bytes += static_cast<double>(r.downlink_bytes);
      ef += r.ef_decode_seconds;
      b_bytes += static_cast<double>(r.backhaul_bytes);
      for (const core::EdgeTraceEntry& e : r.edges) {
        b_enc += e.encode_seconds;
        b_dec += e.decode_seconds;
        partials += 1.0;
      }
    }
    const double rounds = static_cast<double>(c.result.rounds.size());
    train_busy.push_back(train);
    train_ms.push_back(train / updates * 1e3);
    eval_s.push_back(eval);
    downlink_enc.push_back(d_enc / rounds * 1e3);
    downlink_dec.push_back(d_dec / rounds * 1e3);
    downlink_mb.push_back(d_bytes / 1e6);
    ef_dec.push_back(ef / rounds * 1e3);
    backhaul_enc.push_back(partials > 0 ? b_enc / partials * 1e3 : 0.0);
    backhaul_dec.push_back(partials > 0 ? b_dec / partials * 1e3 : 0.0);
    backhaul_mb.push_back(b_bytes / 1e6);
    if (c.span != 0) {
      const SpanTotals& t = totals[c.span];
      encode_busy.push_back(t.encode_busy);
      decode_busy.push_back(t.decode_busy);
      pump_decode.push_back(t.pump_decode);
      pool_share.push_back((train + t.pool_codec + downlink_codec) /
                           (static_cast<double>(kCampaignThreads) *
                            (c.end - c.start)));
    }
  }

  Metrics& m = result.per_layer;
  // Span ids grow, so the first entry is the first traced campaign.
  const SpanTotals first_traced =
      totals.empty() ? SpanTotals{} : totals.begin()->second;
  m.push_back({"fedsz.encode_calls", static_cast<double>(first_traced.encodes),
               "count"});
  m.push_back({"fedsz.decode_calls", static_cast<double>(first_traced.decodes),
               "count"});
  span_timing("fedsz.encode", encode_spans, m);
  span_timing("fedsz.decode", decode_spans, m);
  m.push_back({"fedsz.encode_busy_s", median(encode_busy), "s"});
  m.push_back({"fedsz.decode_busy_s", median(decode_busy), "s"});
  m.push_back({"nn.train_busy_s", median(train_busy), "s"});
  m.push_back({"nn.train_ms_per_update", median(train_ms), "ms"});
  m.push_back({"nn.eval_s", median(eval_s), "s"});
  m.push_back({"coordinator.pool_busy_share", median(pool_share), "fraction"});
  m.push_back({"coordinator.pump_decode_s", median(pump_decode), "s"});
  m.push_back({"coordinator.decode_wait_ms_p50", quantile(decode_wait_ms, 0.5),
               "ms"});
  m.push_back({"coordinator.decode_wait_ms_p90", quantile(decode_wait_ms, 0.9),
               "ms"});
  m.push_back({"backhaul.encode_ms_mean", median(backhaul_enc), "ms"});
  m.push_back({"backhaul.decode_ms_mean", median(backhaul_dec), "ms"});
  m.push_back({"backhaul.mb", median(backhaul_mb), "MB"});
  m.push_back({"downlink.encode_ms_mean", median(downlink_enc), "ms"});
  m.push_back({"downlink.decode_ms_mean", median(downlink_dec), "ms"});
  m.push_back({"downlink.mb", median(downlink_mb), "MB"});
  m.push_back({"ef.decode_ms_mean", median(ef_dec), "ms"});
  // Over TCP the backhaul legs are the federation's PARTIAL frames.
  if (tcp) {
    m.push_back({"federation.edge_encode_ms_mean", median(backhaul_enc), "ms"});
    m.push_back({"federation.root_decode_ms_mean", median(backhaul_dec), "ms"});
    m.push_back({"federation.partial_mb", median(backhaul_mb), "MB"});
  }
  m.push_back({"data.make_dataset_s", median(make_dataset), "s"});

  // The workload's update (its model at init) for the re-invocation probes,
  // and the client-shard pipeline on the campaign's own inputs.
  const CampaignInputs in = campaign_inputs(shape, args.seed, nullptr);
  const StateDict update = nn::build_model(in.model).model.state_dict();
  probe_layers(update, "fedsz:eb=rel:1e-2", m);
  std::vector<double> shard_s;
  for (int i = 0; i < 5; ++i) {
    const double start = now();
    (void)core::build_client_shards(*in.train, in.config, nullptr);
    shard_s.push_back(now() - start);
  }
  m.push_back({"data.shard_s", median(shard_s), "s"});
  m.push_back({"trace.overhead_frac", overhead_frac(samples), "fraction"});
  return result;
}

struct MetricName {
  const char* name;
  const char* unit;
};

constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},           {"round_cpu_s", "s"},
    {"compression_ratio", "x"}, {"uplink_mb", "MB"},
    {"peak_rss_mb", "MB"},
};

// Every traced run reports all of these; a layer the workload does not
// exercise reads 0.
constexpr MetricName kPerLayer[] = {
    {"lossy.compress_mb_s", "MB/s"},
    {"lossy.decompress_mb_s", "MB/s"},
    {"lossy.encode_share", "fraction"},
    {"lossless.compress_mb_s", "MB/s"},
    {"lossless.decompress_mb_s", "MB/s"},
    {"lossless.encode_share", "fraction"},
    {"policy.plan_us_per_tensor", "us"},
    {"fedsz.encode_calls", "count"},
    {"fedsz.decode_calls", "count"},
    {"fedsz.encode_ms_p50", "ms"},
    {"fedsz.encode_ms_p90", "ms"},
    {"fedsz.encode_n", "count"},
    {"fedsz.decode_ms_p50", "ms"},
    {"fedsz.decode_ms_p90", "ms"},
    {"fedsz.decode_n", "count"},
    {"fedsz.encode_busy_s", "s"},
    {"fedsz.decode_busy_s", "s"},
    {"fedsz.container_share", "fraction"},
    {"fedsz.allocs_per_encode", "count"},
    {"pool.encode_speedup", "x"},
    {"pool.decode_speedup", "x"},
    {"nn.train_busy_s", "s"},
    {"nn.train_ms_per_update", "ms"},
    {"nn.eval_s", "s"},
    {"coordinator.pool_busy_share", "fraction"},
    {"coordinator.pump_decode_s", "s"},
    {"coordinator.decode_wait_ms_p50", "ms"},
    {"coordinator.decode_wait_ms_p90", "ms"},
    {"aggregator.fold_ms_p50", "ms"},
    {"aggregator.fold_gb_s", "GB/s"},
    {"backhaul.encode_ms_mean", "ms"},
    {"backhaul.decode_ms_mean", "ms"},
    {"backhaul.mb", "MB"},
    {"downlink.encode_ms_mean", "ms"},
    {"downlink.decode_ms_mean", "ms"},
    {"downlink.mb", "MB"},
    {"ef.decode_ms_mean", "ms"},
    {"federation.edge_encode_ms_mean", "ms"},
    {"federation.root_decode_ms_mean", "ms"},
    {"federation.partial_mb", "MB"},
    {"wire.frame_encode_mb_s", "MB/s"},
    {"wire.frame_decode_mb_s", "MB/s"},
    {"transport.tcp_mb_s", "MB/s"},
    {"transport.connect_ms", "ms"},
    {"data.make_dataset_s", "s"},
    {"data.shard_s", "s"},
    {"trace.overhead_frac", "fraction"},
};

// `metrics` as a JSON object in `names` order. A name the run did not
// measure reads 0 when `zero_fill`, and is an error otherwise, as is a
// measured name or unit the list does not declare.
template <std::size_t N>
util::JsonValue metrics_json(const Metrics& metrics,
                             const MetricName (&names)[N], bool zero_fill) {
  std::map<std::string, const Metric*> measured;
  for (const Metric& m : metrics) measured[m.name] = &m;
  util::JsonValue out = util::JsonValue::object();
  for (const MetricName& n : names) {
    const auto it = measured.find(n.name);
    double value = 0.0;
    if (it != measured.end()) {
      if (it->second->unit != n.unit)
        throw std::logic_error(std::string("unit mismatch for ") + n.name);
      value = it->second->value;
      measured.erase(it);
    } else if (!zero_fill) {
      throw std::logic_error(std::string("metric not measured: ") + n.name);
    }
    out.set(n.name, util::JsonValue::object()
                        .set("value", value)
                        .set("unit", std::string(n.unit)));
  }
  if (!measured.empty())
    throw std::logic_error("undeclared metric: " + measured.begin()->first);
  return out;
}

Result run_workload(const Args& args, SpanLog* log) {
  if (args.workload == "codec_large") return run_codec_large(args, log);
  if (args.workload == "fedavg_flat") return run_campaigns(kFedavgFlat, args, log);
  if (args.workload == "edge_tree") return run_campaigns(kEdgeTree, args, log);
  if (args.workload == "tcp_tree") return run_campaigns(kTcpTree, args, log);
  throw std::invalid_argument("unknown workload '" + args.workload + "'");
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  const Args args = parse_args(argc, argv);
  SpanLog spans;
  Result result;
  try {
    result = run_workload(args, args.trace ? &spans : nullptr);
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "e2e_bench: %s\n", error.what());
    return 2;
  } catch (const std::exception& error) {
    // A workload that throws (a transport failure, a corrupt stream) is one
    // more failed operation, reported like any other check.
    ++result.attempted;
    fail(result, error.what());
  }

  util::JsonValue out = util::JsonValue::object();
  out.set("workload", args.workload)
      .set("seed", std::to_string(args.seed))
      .set("seconds", args.seconds)
      .set("trace", args.trace)
      .set("correct", result.failed == 0)
      .set("attempted", result.attempted)
      .set("failed", result.failed);
  util::JsonValue failures = util::JsonValue::array();
  for (const std::string& f : result.failures) failures.push(f);
  out.set("failures", std::move(failures));
  try {
    if (result.failed == 0) {
      if (args.trace)
        out.set("per_layer", metrics_json(result.per_layer, kPerLayer, true));
      else
        out.set("end_to_end", metrics_json(result.end_to_end, kEndToEnd, false));
      util::JsonValue extra = util::JsonValue::object();
      for (const Metric& m : result.extra)
        extra.set(m.name, util::JsonValue::object()
                              .set("value", m.value)
                              .set("unit", m.unit));
      out.set("extra", std::move(extra));
    }
    util::write_json(args.out_path, out);
    if (!args.spans_path.empty()) spans.write_json(args.spans_path);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "e2e_bench: %s\n", error.what());
    return 1;
  }
  return result.failed == 0 ? 0 : 1;
}
