// Client population modeling: who the clients are, not just how many.
//
// Every run used to draw clients from a flat, always-available pool with
// independently-drawn links. Real edge fleets are correlated — a phone on
// LTE has both a slow uplink AND a slow CPU AND a small local dataset, and
// it disappears at night. This module assigns each client a named
// DeviceClass (compute multiplier, lognormal link distribution, dataset
// weight) and an availability model (diurnal sinusoid with per-client
// phase jitter, or flat/always modes) that the coordinator samples on the
// VIRTUAL clock at each round open to decide per-round eligibility.
//
// Spec grammar (the `population=` comm key):
//
//   population=PRESET[:OPT[;OPT]...]
//
//   PRESET := mixed | mobile | iot_fleet | uniform | custom
//   OPT    := mix=CLASS*W[+CLASS*W...]   (required for custom, else invalid)
//          |  avail=diurnal | avail=always | avail=flat:P
//          |  period=SECONDS             (diurnal period, default 86400)
//          |  jitter=F                   (per-client phase jitter in [0,1])
//          |  drop=P                     (mid-round offline probability)
//          |  seed=N                     (0 = derive from the run seed)
//
// Options use ';' separators and '+' inside mix= so a canonical spec never
// contains ',' — it embeds verbatim in the comma-separated comm-key list.
// format_population_spec(parse_population_spec(s)) is idempotent and emits
// only non-default options in a fixed order.
//
// Determinism contract: class assignment, phases, and link draws come from
// one dedicated stream seeded by `seed` (or run_seed ^ 0xDEC1A55Eull when
// 0), consumed in client-index order — independent of thread count,
// transport, and every other coordinator stream.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/bandwidth.hpp"
#include "util/rng.hpp"

namespace fedsz::core {

/// A named device profile. Compute, link, and data-size parameters are
/// correlated by construction: every client of a class shares the class's
/// compute multiplier and draws its link from the class's distribution.
struct DeviceClass {
  std::string name;
  /// Multiplies compute_seconds_per_sample (higher = slower device).
  double compute_multiplier = 1.0;
  /// Lognormal uplink: bandwidth = median * exp(log_sigma * N(0,1)).
  double bandwidth_median_mbps = 10.0;
  double bandwidth_log_sigma = 0.0;
  double latency_s = 0.0;
  /// Fraction of an even shard the device can hold/train on (prefix
  /// truncation of the shuffled shard, so it stays deterministic).
  double data_weight = 1.0;
  /// Diurnal availability p(t) = mean + amplitude * sin(2*pi*(t/period + phase)).
  double availability_mean = 1.0;
  double diurnal_amplitude = 0.0;
};

/// The built-in class table: phone_lte, phone_wifi, laptop, iot.
const std::vector<DeviceClass>& device_class_table();
/// Lookup by name; nullptr when unknown.
const DeviceClass* find_device_class(const std::string& name);

enum class AvailabilityMode : std::uint8_t {
  kDiurnal = 0,  ///< sinusoid on the virtual clock, per-client phase
  kFlat = 1,     ///< constant Bernoulli(p) per round
  kAlways = 2,   ///< everyone eligible every round (draws still consumed)
};

struct DeviceClassShare {
  std::string name;
  double weight = 1.0;
};

struct PopulationConfig {
  /// mixed | mobile | iot_fleet | uniform | custom; empty = no population.
  std::string preset;
  /// Class mix for preset "custom" (must be empty otherwise).
  std::vector<DeviceClassShare> mix;
  AvailabilityMode availability = AvailabilityMode::kDiurnal;
  /// Bernoulli eligibility probability under kFlat; must be in (0, 1].
  double flat_availability = 1.0;
  /// Diurnal period on the virtual clock.
  double period_seconds = 86400.0;
  /// Per-client phase offset drawn uniformly from [0, phase_jitter).
  double phase_jitter = 0.25;
  /// Probability an eligible cohort member goes offline mid-round
  /// (surfaced through the existing dropout/DeliveryStatus machinery).
  double dropout_rate = 0.0;
  /// Assignment/eligibility seed; 0 derives from the run seed.
  std::uint64_t seed = 0;

  bool empty() const { return preset.empty(); }
  /// Throws InvalidArgument on unknown presets/classes, empty custom
  /// mixes, non-positive weights, or degenerate availability (e.g.
  /// flat:0, period <= 0). A default-constructed (empty) config passes.
  void validate() const;
};

/// Parse `text` (grammar above). Throws InvalidArgument with the offending
/// key on malformed input. Empty text -> empty config.
PopulationConfig parse_population_spec(const std::string& text);
/// Canonical form: format(parse(s)) == format(parse(format(parse(s)))).
std::string format_population_spec(const PopulationConfig& config);

/// The preset's class mix resolved to concrete (class, weight) shares.
std::vector<DeviceClassShare> resolve_population_mix(
    const PopulationConfig& config);

/// Seeded per-client materialization of a PopulationConfig: class
/// assignment, diurnal phase, and one correlated NetworkProfile per client.
class ClientPopulation {
 public:
  /// Validates `config` (must be non-empty) and draws every per-client
  /// attribute up front, in client-index order, from the dedicated stream.
  ClientPopulation(const PopulationConfig& config, std::size_t clients,
                   std::uint64_t run_seed);

  std::size_t size() const { return class_index_.size(); }
  const PopulationConfig& config() const { return config_; }

  const DeviceClass& device_class(std::size_t client) const;
  const std::string& class_name(std::size_t client) const;
  double compute_multiplier(std::size_t client) const;
  double data_weight(std::size_t client) const;

  /// Per-client correlated links, ready for HeterogeneousNetwork::from_profiles.
  const std::vector<net::NetworkProfile>& link_profiles() const {
    return link_profiles_;
  }

  /// Availability probability for `client` at virtual time
  /// `virtual_seconds`, in [0, 1]. Pure: no RNG consumed.
  double availability(std::size_t client, double virtual_seconds) const;

 private:
  PopulationConfig config_;
  std::vector<std::size_t> class_index_;  ///< into device_class_table()
  std::vector<double> phase_;             ///< diurnal phase offsets
  std::vector<net::NetworkProfile> link_profiles_;
};

}  // namespace fedsz::core
