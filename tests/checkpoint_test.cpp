// Checkpoint/resume: the container round-trips and rejects corruption like
// every other untrusted format in the tree, and — the property the whole
// subsystem exists for — a campaign resumed from a checkpoint finishes
// BIT-IDENTICAL to one that never stopped, round for round, including a
// run the OS killed with SIGKILL mid-campaign (exercised through the
// fedsz_campaign binary when the build provides it via FEDSZ_BIN_DIR).
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <fcntl.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/codec_spec.hpp"
#include "core/fl/checkpoint.hpp"
#include "core/fl/coordinator.hpp"
#include "data/synthetic.hpp"

namespace fedsz::core {
namespace {

std::filesystem::path temp_path(const std::string& name) {
  return std::filesystem::temp_directory_path() /
         ("fedsz_ck_" + std::to_string(::getpid()) + "_" + name);
}

struct TempFile {
  explicit TempFile(const std::string& name) : path(temp_path(name)) {
    std::filesystem::remove(path);
  }
  ~TempFile() { std::filesystem::remove(path); }
  std::filesystem::path path;
};

CheckpointState sample_state() {
  CheckpointState state;
  state.completed_rounds = 3;
  state.virtual_now = 12.625;
  state.clock_next_seq = 417;
  state.config_fingerprint = 0xDEADBEEFu;
  state.global_state.set("conv.weight", Tensor::from_data({2, 2}, {1, 2, 3, 4}));
  state.global_state.set("conv.bias", Tensor::from_data({2}, {0.5f, -0.25f}));
  Rng cohort(7), failure(13), eligibility(21);
  cohort.next_u64();
  cohort.normal();  // populate the Box-Muller cache
  failure.next_u64();
  failure.next_u64();
  eligibility.uniform();
  eligibility.uniform();
  eligibility.uniform();
  state.cohort_rng = cohort.state();
  state.failure_rng = failure.state();
  state.eligibility_rng = eligibility.state();
  StateDict residual;
  residual.set("conv.weight", Tensor::from_data({2, 2}, {0.1f, 0, -0.1f, 0}));
  state.client_residuals = {residual, StateDict{}};
  state.downlink_sessions = {StateDict{}, state.global_state};
  state.edge_residuals = {StateDict{}, residual};
  return state;
}

TEST(CheckpointTest, SerializeParseRoundtrip) {
  const CheckpointState state = sample_state();
  const Bytes blob = serialize_checkpoint(state);
  const CheckpointState parsed = parse_checkpoint({blob.data(), blob.size()});
  EXPECT_EQ(parsed.completed_rounds, state.completed_rounds);
  EXPECT_EQ(parsed.virtual_now, state.virtual_now);
  EXPECT_EQ(parsed.clock_next_seq, state.clock_next_seq);
  EXPECT_EQ(parsed.config_fingerprint, state.config_fingerprint);
  EXPECT_TRUE(parsed.global_state.equals(state.global_state));
  ASSERT_EQ(parsed.client_residuals.size(), 2u);
  EXPECT_TRUE(parsed.client_residuals[0].equals(state.client_residuals[0]));
  ASSERT_EQ(parsed.downlink_sessions.size(), 2u);
  EXPECT_TRUE(parsed.downlink_sessions[1].equals(state.global_state));
  ASSERT_EQ(parsed.edge_residuals.size(), 2u);
  // RNG streams resume mid-sequence: the restored generators must produce
  // the exact draws the originals would have.
  Rng original(7);
  original.next_u64();
  original.normal();
  Rng restored;
  restored.restore(parsed.cohort_rng);
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(restored.next_u64(), original.next_u64());
  Rng elig_original(21);
  elig_original.uniform();
  elig_original.uniform();
  elig_original.uniform();
  Rng elig_restored;
  elig_restored.restore(parsed.eligibility_rng);
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(elig_restored.next_u64(), elig_original.next_u64());
  // And re-serializing the parse is byte-identical.
  EXPECT_EQ(serialize_checkpoint(parsed), blob);
}

TEST(CheckpointTest, CorruptAndTruncatedRejected) {
  const Bytes blob = serialize_checkpoint(sample_state());
  for (std::size_t at = 0; at < blob.size(); at += 7) {
    Bytes damaged = blob;
    damaged[at] = static_cast<std::uint8_t>(damaged[at] ^ 0x40);
    EXPECT_THROW(parse_checkpoint({damaged.data(), damaged.size()}),
                 CorruptStream)
        << "flip at " << at;
  }
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{4}, blob.size() / 2, blob.size() - 1}) {
    EXPECT_THROW(parse_checkpoint({blob.data(), keep}), CorruptStream)
        << "truncated to " << keep;
  }
}

TEST(CheckpointTest, OlderVersionRefusedByName) {
  // The version byte follows the 4-byte magic. The CRC covers only the
  // body, so a re-stamped header reaches the version check intact.
  Bytes blob = serialize_checkpoint(sample_state());
  blob[4] = static_cast<std::uint8_t>(kCheckpointVersion - 1);
  const std::string expected =
      "version " + std::to_string(kCheckpointVersion - 1);
  try {
    parse_checkpoint({blob.data(), blob.size()});
    FAIL() << "a v" << kCheckpointVersion - 1 << " checkpoint was accepted";
  } catch (const CorruptStream& error) {
    EXPECT_NE(std::string(error.what()).find(expected), std::string::npos)
        << error.what();
  }
}

TEST(CheckpointTest, AtomicWriteReadMissing) {
  TempFile file("atomic.ck");
  EXPECT_FALSE(read_checkpoint(file.path.string()).has_value());
  const CheckpointState state = sample_state();
  write_checkpoint(file.path.string(), state);
  // No torn temp file left behind.
  EXPECT_FALSE(std::filesystem::exists(file.path.string() + ".tmp"));
  const auto loaded = read_checkpoint(file.path.string());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(serialize_checkpoint(*loaded), serialize_checkpoint(state));
}

TEST(CheckpointTest, UnopenablePathIsNotAMissingCheckpoint) {
  // Only ENOENT means "no checkpoint yet". A path through a regular file
  // (ENOTDIR) must throw, not let --resume restart from round 0.
  TempFile file("not_a_dir");
  std::ofstream(file.path) << "x";
  const std::string path = (file.path / "run.ck").string();
  try {
    read_checkpoint(path);
    FAIL() << "read_checkpoint accepted an unopenable path";
  } catch (const InvalidArgument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find(std::strerror(ENOTDIR)), std::string::npos) << what;
  }
}

// run_fingerprint hashes every trajectory-determining member and nothing
// else: a resume may change the campaign length, the pool, the transport
// and the checkpoint settings, and client.seed never reaches training.
TEST(CheckpointTest, FingerprintCoversExactlyTheTrajectory) {
  FlRunConfig base;
  base.heterogeneous = net::HeterogeneousNetworkConfig{};
  base.population.preset = "custom";
  base.population.mix = {{"phone_lte", 1.0}, {"laptop", 2.0}};
  const nn::ModelConfig model;
  const std::uint32_t reference = run_fingerprint(base, model);
  auto fingerprint = [&](auto edit) {
    FlRunConfig config = base;
    nn::ModelConfig changed = model;
    edit(config, changed);
    return run_fingerprint(config, changed);
  };
  using Edit = void (*)(FlRunConfig&, nn::ModelConfig&);
  const Edit ignored[] = {
      [](FlRunConfig& c, nn::ModelConfig&) { c.rounds = 99; },
      [](FlRunConfig& c, nn::ModelConfig&) { c.threads = 1; },
      [](FlRunConfig& c, nn::ModelConfig&) { c.transport = "tcp:0"; },
      [](FlRunConfig& c, nn::ModelConfig&) { c.checkpoint_path = "x.ck"; },
      [](FlRunConfig& c, nn::ModelConfig&) { c.checkpoint_every = 3; },
      [](FlRunConfig& c, nn::ModelConfig&) { c.resume = true; },
      [](FlRunConfig& c, nn::ModelConfig&) { c.client.seed = 77; },
  };
  for (std::size_t k = 0; k < std::size(ignored); ++k)
    EXPECT_EQ(fingerprint(ignored[k]), reference) << "ignored edit " << k;
  const Edit covered[] = {
      [](FlRunConfig& c, nn::ModelConfig&) { c.topology.shard_seed = 5; },
      [](FlRunConfig& c, nn::ModelConfig&) {
        c.failures.straggler_deadline_seconds = 2.0;
      },
      [](FlRunConfig& c, nn::ModelConfig&) { c.population.mix[1].weight = 3; },
      [](FlRunConfig& c, nn::ModelConfig&) {
        c.heterogeneous->wan_log_sigma = 0.5;
      },
      [](FlRunConfig&, nn::ModelConfig& m) { m.num_classes = 100; },
  };
  for (std::size_t k = 0; k < std::size(covered); ++k)
    EXPECT_NE(fingerprint(covered[k]), reference) << "covered edit " << k;
}

// ---- the resume property, in process ----

FlRunResult run_campaign(int rounds, const std::string& checkpoint_path,
                         std::size_t every, bool resume,
                         const std::string& spec_string, float lr = 0.05f) {
  nn::ModelConfig model;
  model.arch = "mobilenet_v2";
  model.scale = nn::ModelScale::kTiny;
  auto [train, test] = data::make_dataset("cifar10");
  const CodecSpec spec = parse_codec_spec(spec_string);
  FlRunConfig config;
  config.clients = 4;
  config.rounds = rounds;
  config.eval_limit = 32;
  config.threads = 2;
  config.seed = 1234;
  config.client.batch_size = 8;
  config.client.sgd.learning_rate = lr;
  config.apply_comm_spec(spec);
  config.checkpoint_path = checkpoint_path;
  config.checkpoint_every = every;
  config.resume = resume;
  FlCoordinator coordinator(model, data::take(train, 4 * 16),
                            data::take(test, 64), config, make_codec(spec));
  return coordinator.run();
}

void expect_rounds_identical(const RoundRecord& a, const RoundRecord& b) {
  EXPECT_EQ(a.round, b.round);
  EXPECT_EQ(a.accuracy, b.accuracy);
  EXPECT_EQ(a.mean_loss, b.mean_loss);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.raw_bytes, b.raw_bytes);
  EXPECT_EQ(a.participants, b.participants);
  EXPECT_EQ(a.virtual_seconds, b.virtual_seconds);
  EXPECT_EQ(a.comm_seconds, b.comm_seconds);
  EXPECT_EQ(a.aggregate_weight, b.aggregate_weight);
  EXPECT_EQ(a.backhaul_bytes, b.backhaul_bytes);
  EXPECT_EQ(a.backhaul_raw_bytes, b.backhaul_raw_bytes);
  EXPECT_EQ(a.mean_ef_residual_norm, b.mean_ef_residual_norm);
  EXPECT_EQ(a.downlink_bytes, b.downlink_bytes);
  EXPECT_EQ(a.eligible_clients, b.eligible_clients);
  EXPECT_EQ(a.ineligible_clients, b.ineligible_clients);
  EXPECT_EQ(a.clients.size(), b.clients.size());
  EXPECT_EQ(a.edges.size(), b.edges.size());
}

void check_resume_property(const std::string& spec) {
  TempFile ck("resume.ck");
  const FlRunResult full = run_campaign(4, "", 0, false, spec);
  ASSERT_EQ(full.rounds.size(), 4u);
  const FlRunResult head =
      run_campaign(2, ck.path.string(), 1, false, spec);
  ASSERT_EQ(head.rounds.size(), 2u);
  expect_rounds_identical(head.rounds[0], full.rounds[0]);
  expect_rounds_identical(head.rounds[1], full.rounds[1]);
  const FlRunResult resumed =
      run_campaign(4, ck.path.string(), 1, true, spec);
  // The resumed result carries exactly the rounds that still had to run,
  // and each one is bit-identical to the uninterrupted run's.
  ASSERT_EQ(resumed.rounds.size(), 2u);
  expect_rounds_identical(resumed.rounds[0], full.rounds[2]);
  expect_rounds_identical(resumed.rounds[1], full.rounds[3]);
  EXPECT_EQ(resumed.final_accuracy, full.final_accuracy);
  EXPECT_EQ(resumed.total_virtual_seconds, full.total_virtual_seconds);
}

TEST(CheckpointTest, ResumeMatchesUninterruptedFlat) {
  check_resume_property("fedsz:eb=rel:1e-2,ef=on");
}

TEST(CheckpointTest, ResumeMatchesUninterruptedHier) {
  // Hierarchy + edge-side error feedback exercises the edge-residual and
  // virtual-clock restoration paths.
  check_resume_property(
      "fedsz:eb=rel:1e-2,ef=on,topology=hier:2,backhaul=fedsz:eb=rel:1e-2,"
      "edgeef=on");
}

TEST(CheckpointTest, ResumeMatchesUninterruptedDiurnalPopulation) {
  // The eligibility stream advances every round open; restoring it
  // mid-sequence is what keeps the resumed suffix's availability draws —
  // and therefore cohorts, traces, and accuracy — bit-identical. A short
  // diurnal period makes eligibility actually change across the cut.
  check_resume_property(
      "fedsz:eb=rel:1e-2,population=mixed:period=25;jitter=0.5;seed=6");
}

TEST(CheckpointTest, ResumeMatchesUninterruptedDeltaDownlink) {
  // A delta downlink keeps one session per client: the model that client
  // last decoded, which the next broadcast is encoded against. Restoring
  // the sessions is what keeps the resumed broadcasts (bytes) and the
  // models clients train from (accuracy, loss) bit-identical.
  check_resume_property(
      "fedsz:eb=rel:1e-2,downlink=fedsz:eb=abs:1e-3,downmode=delta");
}

TEST(CheckpointTest, ResumeWithoutCheckpointRunsFresh) {
  TempFile ck("fresh.ck");
  // resume=true against a path that does not exist yet must start from
  // round 0 (the kill-before-first-save case), not fail.
  const FlRunResult fresh =
      run_campaign(2, ck.path.string(), 2, true, "fedsz:eb=rel:1e-2");
  ASSERT_EQ(fresh.rounds.size(), 2u);
  EXPECT_EQ(fresh.rounds[0].round, 0);
}

TEST(CheckpointTest, ResumeRejectsMismatchedConfig) {
  TempFile ck("mismatch.ck");
  run_campaign(1, ck.path.string(), 1, false, "fedsz:eb=rel:1e-2");
  // Same checkpoint, different learning rate: a different experiment. The
  // fingerprint check has to refuse rather than continue it.
  EXPECT_THROW(run_campaign(2, ck.path.string(), 1, true, "fedsz:eb=rel:1e-2",
                            /*lr=*/0.01f),
               InvalidArgument);
  // A different Dirichlet alpha deals different client shards.
  TempFile skewed("mismatch_alpha.ck");
  run_campaign(1, skewed.path.string(), 1, false,
               "fedsz:eb=rel:1e-2,data=dirichlet:0.5");
  EXPECT_THROW(run_campaign(2, skewed.path.string(), 1, true,
                            "fedsz:eb=rel:1e-2,data=dirichlet:0.1"),
               InvalidArgument);
}

// ---- kill -9 mid-campaign, through the real binary ----

#ifdef FEDSZ_BIN_DIR

pid_t spawn_campaign(const std::vector<std::string>& args,
                     const std::string& stdout_path) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  const int fd = ::open(stdout_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                        0644);
  if (fd < 0) ::_exit(127);
  ::dup2(fd, STDOUT_FILENO);
  ::close(fd);
  std::vector<char*> argv;
  for (const std::string& arg : args)
    argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  ::execv(argv[0], argv.data());
  ::_exit(127);
}

std::vector<std::string> campaign_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("ROUND", 0) == 0 || line.rfind("DONE", 0) == 0)
      lines.push_back(line);
  return lines;
}

TEST(CheckpointTest, KillNineResumeMatchesUninterrupted) {
  const std::filesystem::path campaign =
      std::filesystem::path(FEDSZ_BIN_DIR) / "fedsz_campaign";
  if (!std::filesystem::exists(campaign))
    GTEST_SKIP() << "fedsz_campaign not built at " << campaign;
  TempFile ck("kill9.ck");
  TempFile full_out("kill9_full.txt");
  TempFile dead_out("kill9_dead.txt");
  TempFile resumed_out("kill9_resumed.txt");
  const std::string spec =
      "fedsz:eb=rel:1e-2,checkpoint=" + ck.path.string() + ":1";
  const std::vector<std::string> base = {
      campaign.string(), "--clients", "4",  "--rounds", "6",
      "--take",          "128",       "--codec", spec};

  // Reference: the campaign that never stops.
  {
    TempFile ref_ck("kill9_ref.ck");
    std::vector<std::string> args = base;
    args.back() = "fedsz:eb=rel:1e-2,checkpoint=" + ref_ck.path.string() + ":1";
    const pid_t pid = spawn_campaign(args, full_out.path.string());
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }
  const std::vector<std::string> full = campaign_lines(full_out.path.string());
  ASSERT_EQ(full.size(), 7u);  // 6 ROUND lines + DONE

  // The victim: SIGKILL the instant its first checkpoint lands on disk.
  {
    const pid_t pid = spawn_campaign(base, dead_out.path.string());
    bool seen = false;
    for (int i = 0; i < 24000; ++i) {  // up to ~2 min
      if (std::filesystem::exists(ck.path)) {
        seen = true;
        break;
      }
      ::usleep(5000);
    }
    ::kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(seen) << "no checkpoint appeared before the timeout";
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "campaign finished before the kill landed";
  }

  // Resume: the remaining rounds must be byte-identical to the
  // uninterrupted run's ROUND lines, and the DONE summary must match.
  {
    std::vector<std::string> args = base;
    args.push_back("--resume");
    const pid_t pid = spawn_campaign(args, resumed_out.path.string());
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }
  const std::vector<std::string> resumed =
      campaign_lines(resumed_out.path.string());
  ASSERT_GE(resumed.size(), 2u) << "resume replayed nothing";
  ASSERT_LE(resumed.size(), full.size());
  const std::size_t offset = full.size() - resumed.size();
  for (std::size_t i = 0; i < resumed.size(); ++i)
    EXPECT_EQ(resumed[i], full[offset + i]) << "line " << i;
}

#endif  // FEDSZ_BIN_DIR

}  // namespace
}  // namespace fedsz::core
