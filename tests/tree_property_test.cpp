// Model-driven property harness for the multi-tier aggregation tree.
// Each iteration draws a random run configuration — topology depth and
// fan-ins, scheduler, uplink/backhaul/downlink codecs, full or delta
// downlink, edge ship discipline, sharding strategy, slow per-client links,
// and a churn schedule (client dropout, edge crashes, straggler eviction) —
// runs the event-driven coordinator on a tiny synthetic workload, and
// asserts the invariants the design guarantees for EVERY configuration:
//
//   1. Liveness: the pump records exactly `rounds` rounds no matter what
//      churn removed (a wedged barrier would hang or under-record).
//   2. Weight conservation: the weight the root merged equals the summed
//      weights of this round's aggregated client updates minus the weight
//      of partials that arrived after their (buffered) parent shipped.
//      Non-aggregated client deliveries carry weight 0.
//   3. Byte accounting: per-tier backhaul splits sum to the round totals,
//      and client uplink bytes sum over exactly the aggregated entries.
//   4. Streaming memory: no aggregation point ever holds more than one
//      decoded payload at a time, regardless of fan-in or thread count.
//   5. Determinism: re-running an identical configuration with a different
//      thread count reproduces the trace byte-for-byte (spot-checked on a
//      subset of iterations — the real work races, the virtual clock
//      doesn't).
//   6. Round integrity (barrier schedulers): a round traces each client at
//      most once, under that round's own dispatch — a broadcast that
//      outlived its round never starts its client in a later one. Under
//      full participation with sync edges, every client has its row.
//
// Iteration count defaults to 100 and is overridable via FEDSZ_PBT_ITERS
// (CI pins it explicitly; set it low for a quick local smoke). The master
// seed is fixed, so a failure report's iteration index is reproducible.
#include <gtest/gtest.h>

#include <cstdlib>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/codec_spec.hpp"
#include "core/fl/coordinator.hpp"
#include "core/fl/scheduler.hpp"
#include "core/fl/topology.hpp"
#include "data/synthetic.hpp"
#include "net/heterogeneous.hpp"
#include "util/rng.hpp"

namespace fedsz::core {
namespace {

constexpr std::uint64_t kMasterSeed = 0x7E57C0DE20260809ull;

int iteration_budget() {
  if (const char* env = std::getenv("FEDSZ_PBT_ITERS")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  return 100;
}

struct DrawnCase {
  FlRunConfig config;
  SchedulerPtr scheduler;  // null = the default sync barrier
  std::string uplink_spec;
  std::string describe;
};

/// One random configuration. Everything is drawn from `rng`, so case i is
/// reproducible from (kMasterSeed, i).
DrawnCase draw_case(Rng& rng) {
  DrawnCase out;
  FlRunConfig& config = out.config;
  config.clients = 2 + rng.uniform_index(7);  // 2..8
  config.rounds = 1 + static_cast<int>(rng.uniform_index(2));
  config.threads = 1 + rng.uniform_index(4);
  config.seed = rng.next_u64();
  config.eval_limit = 8;
  config.evaluate_every_round = false;
  config.client.batch_size = 2;
  if (rng.uniform() < 0.4) config.compute_jitter = rng.uniform(0.1, 0.6);

  const bool hier = rng.uniform() < 0.7;
  if (hier) {
    config.topology.mode = TopologyMode::kHier;
    const std::size_t depth = 1 + rng.uniform_index(3);
    for (std::size_t l = 0; l < depth; ++l)
      config.topology.tiers.push_back(1 + rng.uniform_index(4));
    const char* backhauls[] = {"", "identity", "fedsz:eb=rel:1e-2",
                               "sparse:eb=rel:1e-2,sparsity=0.9,bits=8"};
    config.topology.backhaul_spec =
        backhauls[rng.uniform_index(std::size(backhauls))];
    if (rng.uniform() < 0.3) {
      // Override one random tier's codec.
      config.topology.tier_backhaul_specs.assign(
          1 + rng.uniform_index(depth), "");
      config.topology.tier_backhaul_specs.back() = "fedsz:eb=rel:1e-2";
    }
    if (rng.uniform() < 0.3) {
      config.topology.edge_mode = EdgeMode::kBuffered;
      config.topology.edge_buffer = 1 + rng.uniform_index(3);
    }
    if (rng.uniform() < 0.25) config.topology.edge_error_feedback = true;
    if (rng.uniform() < 0.3)
      config.topology.sharding = ShardStrategy::kShuffled;
  }

  // Scheduler: barrier policies always; FedBuff only where it is legal
  // (flat, churn-free — drawn before churn so the draw can veto it).
  bool continuous = false;
  const double scheduler_draw = rng.uniform();
  if (scheduler_draw < 0.3) {
    out.scheduler = make_sampled_sync_scheduler(0.5);
  } else if (!hier && scheduler_draw > 0.85) {
    out.scheduler = make_buffered_async_scheduler(
        {1 + rng.uniform_index(3), 0.5});
    continuous = true;
  }

  if (!continuous && rng.uniform() < 0.6) {
    if (rng.uniform() < 0.6) config.failures.dropout_rate = rng.uniform(0.1, 0.6);
    if (hier && rng.uniform() < 0.5)
      config.failures.edge_failure_rate = rng.uniform(0.1, 0.6);
    // A deadline anywhere from "evicts everyone" to "evicts nobody" — the
    // invariants must hold across the whole range.
    if (rng.uniform() < 0.4)
      config.failures.straggler_deadline_seconds = rng.uniform(0.01, 2.0);
  }

  // A client population composes with everything barrier-scheduled: device
  // classes reshape links/compute/data, and diurnal or flat eligibility
  // shrinks the cohorts — the invariants must not care who sat out.
  if (!continuous && rng.uniform() < 0.3) {
    const char* presets[] = {"mixed", "mobile", "iot_fleet", "uniform"};
    std::string spec(presets[rng.uniform_index(std::size(presets))]);
    const double avail = rng.uniform();
    if (avail < 0.4) {
      spec += ":period=" + std::to_string(rng.uniform(1.0, 50.0));
    } else if (avail < 0.7) {
      spec += ":avail=flat:" + std::to_string(rng.uniform(0.2, 0.9));
    } else {
      spec += ":avail=always";
    }
    if (rng.uniform() < 0.4)
      spec += ";drop=" + std::to_string(rng.uniform(0.05, 0.4));
    config.population = parse_population_spec(spec);
  }

  const char* uplinks[] = {"identity", "fedsz:eb=rel:1e-2",
                           "sparse:eb=rel:1e-2",
                           "sparse:eb=rel:1e-2,policy=gradaware:0.5"};
  out.uplink_spec = uplinks[rng.uniform_index(std::size(uplinks))];
  if (rng.uniform() < 0.4) {
    config.downlink_spec = "fedsz:eb=rel:1e-2";
    if (rng.uniform() < 0.5) config.downlink_mode = DownlinkMode::kDelta;
  }
  // Slow per-client links (the population owns the links when it is set).
  // The tiny model's ~20 KB broadcast takes ~10-300 ms on them, so a
  // deadline on that scale can evict a client before its broadcast lands.
  if (config.population.empty() && rng.uniform() < 0.4) {
    net::HeterogeneousNetworkConfig links;
    links.distribution = net::LinkDistribution::kUniformEdge;
    links.edge_min_mbps = 0.5;
    links.edge_max_mbps = 20.0;
    links.seed = rng.next_u64();
    config.heterogeneous = links;
    if (!continuous && !config.downlink_spec.empty())
      config.failures.straggler_deadline_seconds = rng.uniform(0.005, 0.1);
  }
  // Label-skewed sharding rides the same draw: the invariants must hold on
  // Dirichlet partitions exactly as on IID ones.
  if (rng.uniform() < 0.25) config.dirichlet_alpha = rng.uniform(0.2, 2.0);

  std::ostringstream desc;
  desc << "clients=" << config.clients << " rounds=" << config.rounds
       << " threads=" << config.threads << " seed=" << config.seed
       << " uplink=" << out.uplink_spec;
  if (hier) {
    desc << " tiers=";
    for (std::size_t l = 0; l < config.topology.tiers.size(); ++l)
      desc << (l ? "x" : "") << config.topology.tiers[l];
    desc << " backhaul='" << config.topology.backhaul_spec << "'"
         << " edgemode=" << edge_mode_name(config.topology.edge_mode)
         << " shard=" << shard_strategy_name(config.topology.sharding);
  } else {
    desc << " flat";
  }
  if (out.scheduler) desc << " scheduler=" << out.scheduler->name();
  if (!config.downlink_spec.empty())
    desc << " downlink='" << config.downlink_spec
         << "' downmode=" << downlink_mode_name(config.downlink_mode);
  if (config.heterogeneous)
    desc << " links=" << net::link_distribution_name(
                             config.heterogeneous->distribution)
         << ":" << config.heterogeneous->edge_min_mbps << "-"
         << config.heterogeneous->edge_max_mbps
         << "Mbps link_seed=" << config.heterogeneous->seed;
  if (config.dirichlet_alpha > 0.0)
    desc << " dirichlet=" << config.dirichlet_alpha;
  if (!config.population.empty())
    desc << " population='" << format_population_spec(config.population)
         << "'";
  desc << " dropout=" << config.failures.dropout_rate
       << " edge_fail=" << config.failures.edge_failure_rate
       << " deadline=" << config.failures.straggler_deadline_seconds;
  out.describe = desc.str();
  return out;
}

nn::ModelConfig tiny_model() {
  nn::ModelConfig cfg;
  cfg.arch = "mobilenet_v2";
  cfg.scale = nn::ModelScale::kTiny;
  return cfg;
}

FlRunResult run_case(const DrawnCase& drawn, data::DatasetPtr train,
                     data::DatasetPtr test, std::size_t threads) {
  FlRunConfig config = drawn.config;
  config.threads = threads;
  FlCoordinator coordinator(tiny_model(), std::move(train), std::move(test),
                            config,
                            make_codec(parse_codec_spec(drawn.uplink_spec)),
                            drawn.scheduler);
  return coordinator.run();
}

void check_invariants(const DrawnCase& drawn, const FlRunResult& result) {
  const FlRunConfig& config = drawn.config;
  const bool hier = config.topology.mode == TopologyMode::kHier;

  // 1. Liveness: churn never wedges the barrier or drops a round record.
  ASSERT_EQ(result.rounds.size(), static_cast<std::size_t>(config.rounds));

  // 4. Streaming memory, per aggregation point.
  ASSERT_GE(result.peak_decoded_per_node.size(), 1u);
  for (const std::size_t peak : result.peak_decoded_per_node)
    EXPECT_LE(peak, 1u);
  EXPECT_LE(result.peak_decoded_updates, 1u);

  const std::size_t interior = result.peak_decoded_per_node.size() - 1;
  for (const RoundRecord& record : result.rounds) {
    SCOPED_TRACE(::testing::Message() << "round " << record.round);
    // Eligibility accounting: the two counts always cover the fleet, and
    // ineligible trace entries match the count one-for-one. Without a
    // population everyone is eligible every round.
    EXPECT_EQ(record.eligible_clients + record.ineligible_clients,
              config.clients);
    std::size_t ineligible_traces = 0;
    for (const ClientTraceEntry& entry : record.clients)
      if (entry.status == DeliveryStatus::kIneligible) {
        ++ineligible_traces;
        EXPECT_FALSE(entry.eligible);
      }
    EXPECT_EQ(ineligible_traces, record.ineligible_clients);
    if (config.population.empty()) {
      EXPECT_EQ(record.eligible_clients, config.clients);
      EXPECT_EQ(ineligible_traces, 0u);
    } else {
      EXPECT_GE(record.eligible_clients, 1u);  // zero-eligible fallback
    }
    // 6. Round integrity.
    if (!drawn.scheduler || !drawn.scheduler->continuous()) {
      std::vector<int> rows(config.clients, 0);
      for (const ClientTraceEntry& entry : record.clients) {
        EXPECT_EQ(entry.dispatch_round, record.round);
        EXPECT_EQ(++rows.at(entry.client), 1) << "client " << entry.client;
      }
      if (!drawn.scheduler && config.topology.edge_mode == EdgeMode::kSync) {
        EXPECT_EQ(record.clients.size(), config.clients);
      }
    }
    double aggregated_weight = 0.0;
    std::size_t aggregated = 0, uplink_bytes = 0;
    for (const ClientTraceEntry& entry : record.clients) {
      EXPECT_LT(entry.client, config.clients);
      if (hier) {
        EXPECT_GE(entry.node, 1u);
        EXPECT_LE(entry.node, interior);
      } else {
        EXPECT_EQ(entry.node, 0u);
      }
      if (entry.status == DeliveryStatus::kAggregated) {
        aggregated_weight += entry.weight;
        uplink_bytes += entry.payload_bytes;
        ++aggregated;
      } else {
        // 2 (corollary): churned deliveries never carry weight.
        EXPECT_EQ(entry.weight, 0.0)
            << delivery_status_name(entry.status) << " entry with weight";
      }
      // Crashed edges host nobody this round.
      for (const std::size_t crashed : record.crashed_nodes)
        EXPECT_NE(entry.node, 1 + crashed);
    }
    // 2. Weight conservation: root weight == aggregated client weight
    //    minus what buffered parents shipped without (late partials).
    //    Exact conservation is only a guarantee of the synchronous edge
    //    mode. A buffered interior node ships after K folds, so the
    //    round can close with the rest of the subtree's weight still
    //    sitting in node accumulators (open_round aborts those
    //    leftovers) or in flight (counted in the run-wide late_events).
    //    Either way buffered weight can vanish en route — never
    //    materialize — so under kBuffered the equation relaxes to a
    //    non-negative deficit, and stays exact everywhere else.
    double late_partial_weight = 0.0;
    for (const EdgeTraceEntry& entry : record.edges) {
      EXPECT_GE(entry.tier, 1u);
      if (entry.status == DeliveryStatus::kLate)
        late_partial_weight += entry.weight;
    }
    const double deficit =
        aggregated_weight - late_partial_weight - record.aggregate_weight;
    if (drawn.config.topology.edge_mode == EdgeMode::kBuffered) {
      EXPECT_GE(deficit, -1e-9);
    } else {
      // (late_events can still be nonzero here — a client upload landing
      // after its round closed counts but never folds, so it is absent
      // from both sides of the equation.)
      EXPECT_DOUBLE_EQ(record.aggregate_weight,
                       aggregated_weight - late_partial_weight);
    }
    EXPECT_EQ(record.participants, aggregated);
    // 3. Byte accounting.
    EXPECT_EQ(record.bytes_sent, uplink_bytes);
    std::size_t tier_sum = 0, tier_raw_sum = 0;
    for (const std::size_t b : record.backhaul_tier_bytes) tier_sum += b;
    for (const std::size_t b : record.backhaul_tier_raw_bytes)
      tier_raw_sum += b;
    EXPECT_EQ(tier_sum, record.backhaul_bytes);
    EXPECT_EQ(tier_raw_sum, record.backhaul_raw_bytes);
    if (!hier) {
      EXPECT_TRUE(record.backhaul_tier_bytes.empty());
      EXPECT_TRUE(record.crashed_nodes.empty());
      EXPECT_TRUE(record.edges.empty());
    }
  }
}

void expect_identical(const FlRunResult& a, const FlRunResult& b) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  EXPECT_EQ(a.late_events, b.late_events);
  EXPECT_DOUBLE_EQ(a.final_accuracy, b.final_accuracy);
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    const RoundRecord& ra = a.rounds[r];
    const RoundRecord& rb = b.rounds[r];
    EXPECT_EQ(ra.bytes_sent, rb.bytes_sent);
    EXPECT_EQ(ra.backhaul_bytes, rb.backhaul_bytes);
    EXPECT_EQ(ra.downlink_bytes, rb.downlink_bytes);
    EXPECT_EQ(ra.participants, rb.participants);
    EXPECT_EQ(ra.eligible_clients, rb.eligible_clients);
    EXPECT_EQ(ra.ineligible_clients, rb.ineligible_clients);
    EXPECT_EQ(ra.crashed_nodes, rb.crashed_nodes);
    EXPECT_DOUBLE_EQ(ra.aggregate_weight, rb.aggregate_weight);
    EXPECT_DOUBLE_EQ(ra.virtual_seconds, rb.virtual_seconds);
    ASSERT_EQ(ra.clients.size(), rb.clients.size());
    for (std::size_t c = 0; c < ra.clients.size(); ++c) {
      EXPECT_EQ(ra.clients[c].client, rb.clients[c].client);
      EXPECT_EQ(ra.clients[c].node, rb.clients[c].node);
      EXPECT_EQ(ra.clients[c].status, rb.clients[c].status);
      EXPECT_EQ(ra.clients[c].payload_bytes, rb.clients[c].payload_bytes);
      EXPECT_DOUBLE_EQ(ra.clients[c].arrival_seconds,
                       rb.clients[c].arrival_seconds);
    }
    ASSERT_EQ(ra.edges.size(), rb.edges.size());
    for (std::size_t e = 0; e < ra.edges.size(); ++e) {
      EXPECT_EQ(ra.edges[e].edge, rb.edges[e].edge);
      EXPECT_EQ(ra.edges[e].status, rb.edges[e].status);
      EXPECT_EQ(ra.edges[e].payload_bytes, rb.edges[e].payload_bytes);
      EXPECT_DOUBLE_EQ(ra.edges[e].weight, rb.edges[e].weight);
    }
  }
}

TEST(TreePropertyTest, RandomConfigurationsHoldTheDesignInvariants) {
  const int iterations = iteration_budget();
  auto [train, test] = data::make_dataset("cifar10");
  const auto train_slice = data::take(train, 16);
  const auto test_slice = data::take(test, 8);
  Rng rng(kMasterSeed);
  // FEDSZ_PBT_ONLY=<i> replays one reported iteration without running the
  // earlier ones (the draws still consume the RNG, so case i is identical).
  const char* only_env = std::getenv("FEDSZ_PBT_ONLY");
  const int only = only_env ? std::atoi(only_env) : -1;
  for (int i = 0; i < iterations; ++i) {
    const DrawnCase drawn = draw_case(rng);
    if (only >= 0 && i != only) continue;
    SCOPED_TRACE(::testing::Message()
                 << "iteration " << i << ": " << drawn.describe);
    const FlRunResult result =
        run_case(drawn, train_slice, test_slice, drawn.config.threads);
    check_invariants(drawn, result);
    if (testing::Test::HasFatalFailure()) return;
    // 5. Thread-count independence, spot-checked to keep the harness fast:
    //    the virtual clock, not the pool, orders every fold.
    if (i % 10 == 0) {
      const std::size_t other = drawn.config.threads == 1 ? 4 : 1;
      expect_identical(result,
                       run_case(drawn, train_slice, test_slice, other));
    }
  }
}

}  // namespace
}  // namespace fedsz::core
