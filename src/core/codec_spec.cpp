#include "core/codec_spec.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "core/fl/population.hpp"
#include "core/policy.hpp"

namespace fedsz::core {

namespace {

[[noreturn]] void bad_spec(const std::string& what) {
  throw InvalidArgument("codec spec: " + what);
}

std::string lossy_options() {
  std::string out;
  for (const lossy::LossyCodec* codec : lossy::all_lossy_codecs()) {
    if (!out.empty()) out += ", ";
    out += codec->name();
  }
  return out;
}

std::string lossless_options() {
  std::string out;
  for (const lossless::LosslessCodec* codec : lossless::all_lossless_codecs()) {
    if (!out.empty()) out += ", ";
    out += codec->name();
  }
  return out;
}

std::string policy_options() {
  std::string out;
  for (const std::string& name : compression_policy_names()) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

double parse_double(const std::string& text, const std::string& key) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() ||
      !std::isfinite(value))
    bad_spec("'" + key + "' wants a finite number, got '" + text + "'");
  return value;
}

std::size_t parse_count(const std::string& text, const std::string& key,
                        bool allow_suffix) {
  if (text.empty()) bad_spec("'" + key + "' wants a non-negative integer");
  std::string digits = text;
  std::size_t multiplier = 1;
  if (allow_suffix) {
    const char last = digits.back();
    if (last == 'k' || last == 'K') {
      multiplier = 1024;
      digits.pop_back();
    } else if (last == 'm' || last == 'M') {
      multiplier = 1024 * 1024;
      digits.pop_back();
    }
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(digits.c_str(), &end, 10);
  // strtoull silently wraps a leading '-'; only bare digits are valid here.
  if (digits.empty() || digits.find_first_not_of("0123456789") !=
                            std::string::npos ||
      end != digits.c_str() + digits.size())
    bad_spec("'" + key + "' wants a non-negative integer" +
             (allow_suffix ? " (optionally suffixed k or m)" : "") +
             ", got '" + text + "'");
  // ERANGE saturation and multiplier wrap are both out-of-range, not data.
  if (errno == ERANGE ||
      value > std::numeric_limits<std::size_t>::max() / multiplier)
    bad_spec("'" + key + "' value out of range: '" + text + "'");
  return static_cast<std::size_t>(value) * multiplier;
}

/// Shortest decimal rendering that round-trips through strtod, so canonical
/// spec strings stay both stable and readable.
std::string format_double(double value) {
  char buffer[64];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  return buffer;
}

lossy::ErrorBound parse_bound(const std::string& text) {
  std::string body = text;
  lossy::BoundMode mode = lossy::BoundMode::kRelative;
  if (const std::size_t colon = text.find(':'); colon != std::string::npos) {
    const std::string prefix = text.substr(0, colon);
    if (prefix == "rel")
      mode = lossy::BoundMode::kRelative;
    else if (prefix == "abs")
      mode = lossy::BoundMode::kAbsolute;
    else
      bad_spec("'eb' mode must be rel or abs, got '" + prefix + "'");
    body = text.substr(colon + 1);
  }
  lossy::ErrorBound bound{mode, parse_double(body, "eb")};
  try {
    bound.validate();
  } catch (const InvalidArgument& error) {
    bad_spec(std::string("'eb': ") + error.what());
  }
  return bound;
}

/// "backhaul<k>" with k >= 1: returns k, or 0 when `key` is not a per-tier
/// backhaul override.
std::size_t backhaul_tier_of(const std::string& key) {
  if (key.size() <= 8 || key.rfind("backhaul", 0) != 0) return 0;
  const std::string digits = key.substr(8);
  if (digits.find_first_not_of("0123456789") != std::string::npos) return 0;
  const std::size_t tier = parse_count(digits, key, /*allow_suffix=*/false);
  if (tier == 0) bad_spec("'" + key + "': tiers are 1-based (backhaul1=...)");
  return tier;
}

bool is_comm_key(const std::string& key) {
  return key == "downlink" || key == "downmode" || key == "ef" ||
         key == "topology" || key == "backhaul" || key == "edgemode" ||
         key == "edgeef" || key == "shard" || key == "transport" ||
         key == "checkpoint" || key == "data" || key == "population" ||
         backhaul_tier_of(key) != 0;
}

/// Parse a nested codec spec (downlink=/backhaul= value, ';'-separated
/// inner options) into its canonical comma form. Nested comm keys are
/// rejected — a broadcast or backhaul codec cannot itself carry a comm
/// model.
std::string parse_inner_spec(const std::string& key,
                             const std::string& value) {
  std::string inner = value;
  for (char& c : inner)
    if (c == ';') c = ',';
  CodecSpec parsed;
  try {
    parsed = parse_codec_spec(inner);
  } catch (const InvalidArgument& error) {
    bad_spec("'" + key + "': " + error.what());
  }
  if (parsed.has_comm_keys())
    bad_spec("'" + key + "' spec cannot itself carry comm keys");
  return format_codec_spec(parsed);
}

void apply_key(CodecSpec& spec, const std::string& key,
               const std::string& value) {
  if (key == "lossy") {
    if (spec.sparse)
      bad_spec(
          "the sparse family replaces the lossy codec; 'lossy=' does not "
          "apply");
    const std::string canonical = value;
    try {
      spec.lossy_id = lossy::lossy_codec(canonical).id();
    } catch (const InvalidArgument&) {
      bad_spec("unknown lossy codec '" + value + "' (expected " +
               lossy_options() + ")");
    }
  } else if (key == "sparsity") {
    if (!spec.sparse)
      bad_spec("'sparsity' applies only to the sparse family");
    if (value == "adaptive") {
      spec.sparsity = 0.0;
    } else {
      const double fraction = parse_double(value, "sparsity");
      if (!(fraction > 0.0 && fraction < 1.0))
        bad_spec("'sparsity' must be a fraction in (0, 1) or adaptive");
      spec.sparsity = fraction;
    }
  } else if (key == "bits") {
    if (!spec.sparse) bad_spec("'bits' applies only to the sparse family");
    if (value == "adaptive") {
      spec.sparse_bits = 0;
    } else {
      const std::size_t bits = parse_count(value, "bits",
                                           /*allow_suffix=*/false);
      if (bits < 1 || bits > 31)
        bad_spec("'bits' must be 1..31 or adaptive");
      spec.sparse_bits = static_cast<unsigned>(bits);
    }
  } else if (key == "lossless") {
    const std::string canonical = value == "blosclz" ? "blosc-lz" : value;
    try {
      spec.lossless_id = lossless::lossless_codec(canonical).id();
    } catch (const InvalidArgument&) {
      bad_spec("unknown lossless codec '" + value + "' (expected " +
               lossless_options() + ")");
    }
  } else if (key == "eb") {
    spec.bound = parse_bound(value);
  } else if (key == "policy") {
    std::string name = value;
    if (const std::size_t colon = value.find(':');
        colon != std::string::npos) {
      name = value.substr(0, colon);
      if (name == "schedule") {
        spec.schedule_factor =
            parse_double(value.substr(colon + 1), "policy=schedule");
        if (!(spec.schedule_factor > 0.0))
          bad_spec("policy=schedule factor must be positive");
      } else if (name == "gradaware") {
        spec.gradaware_beta =
            parse_double(value.substr(colon + 1), "policy=gradaware");
        if (!(spec.gradaware_beta > 0.0 && spec.gradaware_beta < 1.0))
          bad_spec("policy=gradaware beta must be in (0, 1)");
      } else {
        bad_spec(
            "only policy=schedule (:FACTOR) and policy=gradaware (:BETA) "
            "take a ':' argument, got '" + value + "'");
      }
    }
    bool known = false;
    for (const std::string& candidate : compression_policy_names())
      known = known || candidate == name;
    if (!known)
      bad_spec("unknown policy '" + name + "' (expected " + policy_options() +
               ")");
    spec.policy = name;
  } else if (key == "chunk") {
    spec.chunk_elements = parse_count(value, "chunk", /*allow_suffix=*/true);
    if (spec.chunk_elements == 0) bad_spec("'chunk' must be >= 1");
  } else if (key == "threads") {
    spec.threads = parse_count(value, "threads", /*allow_suffix=*/false);
  } else if (key == "threshold") {
    spec.lossy_threshold =
        parse_count(value, "threshold", /*allow_suffix=*/false);
  } else if (key == "downlink") {
    spec.downlink = parse_inner_spec("downlink", value);
  } else if (key == "backhaul") {
    spec.backhaul = parse_inner_spec("backhaul", value);
  } else if (const std::size_t tier = backhaul_tier_of(key); tier != 0) {
    if (spec.tier_backhauls.size() < tier) spec.tier_backhauls.resize(tier);
    spec.tier_backhauls[tier - 1] = parse_inner_spec(key, value);
  } else if (key == "topology") {
    if (value == "flat") {
      spec.hier_tiers.clear();
    } else if (value.rfind("hier", 0) == 0) {
      if (value.size() < 6 || value[4] != ':')
        bad_spec(
            "'topology=hier' wants fan-ins (topology=hier:<N>[x<M>...])");
      // 'x'-separated fan-ins, bottom-up: hier:32x16 = cohorts of 32 under
      // tier-1 edges, 16 edges per tier-2 node.
      spec.hier_tiers.clear();
      const std::string body = value.substr(5);
      std::size_t pos = 0;
      while (pos <= body.size()) {
        const std::size_t sep = body.find('x', pos);
        const std::string part = body.substr(
            pos, sep == std::string::npos ? std::string::npos : sep - pos);
        const std::size_t fan =
            parse_count(part, "topology=hier", /*allow_suffix=*/true);
        if (fan == 0) bad_spec("'topology=hier' fan-ins must be >= 1");
        spec.hier_tiers.push_back(fan);
        if (sep == std::string::npos) break;
        pos = sep + 1;
      }
    } else {
      bad_spec("'topology' must be flat or hier:<N>[x<M>...], got '" + value +
               "'");
    }
  } else if (key == "edgemode") {
    if (value == "sync") {
      spec.edge_buffered = false;
      spec.edge_buffer = 0;
    } else if (value.rfind("buffered", 0) == 0) {
      if (value.size() < 10 || value[8] != ':')
        bad_spec(
            "'edgemode=buffered' wants a buffer size "
            "(edgemode=buffered:<K>)");
      spec.edge_buffer = parse_count(value.substr(9), "edgemode=buffered",
                                     /*allow_suffix=*/true);
      if (spec.edge_buffer == 0)
        bad_spec("'edgemode=buffered' buffer must be >= 1");
      spec.edge_buffered = true;
    } else {
      bad_spec("'edgemode' must be sync or buffered:<K>, got '" + value +
               "'");
    }
  } else if (key == "edgeef") {
    if (value == "on")
      spec.edge_error_feedback = true;
    else if (value == "off")
      spec.edge_error_feedback = false;
    else
      bad_spec("'edgeef' must be on or off, got '" + value + "'");
  } else if (key == "shard") {
    if (value == "contiguous")
      spec.shard_shuffled = false;
    else if (value == "shuffled")
      spec.shard_shuffled = true;
    else
      bad_spec("'shard' must be contiguous or shuffled, got '" + value + "'");
  } else if (key == "transport") {
    if (value == "inproc") {
      spec.transport.clear();
    } else if (value.rfind("tcp", 0) == 0) {
      if (value.size() < 5 || value[3] != ':')
        bad_spec("'transport=tcp' wants a port (transport=tcp:<port>)");
      const std::size_t port =
          parse_count(value.substr(4), "transport=tcp", /*allow_suffix=*/false);
      if (port > 65535) bad_spec("'transport=tcp' port must be <= 65535");
      spec.transport = "tcp:" + std::to_string(port);
    } else {
      bad_spec("'transport' must be inproc or tcp:<port>, got '" + value +
               "'");
    }
  } else if (key == "checkpoint") {
    // <path>:<K> splits on the LAST colon so paths with drive-style or
    // scheme-style colons still parse; the path itself cannot contain ','
    // or ';' (the spec grammar's separators).
    const std::size_t colon = value.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= value.size())
      bad_spec("'checkpoint' wants <path>:<K>, got '" + value + "'");
    spec.checkpoint_path = value.substr(0, colon);
    spec.checkpoint_every =
        parse_count(value.substr(colon + 1), "checkpoint", /*allow_suffix=*/false);
    if (spec.checkpoint_every == 0)
      bad_spec("'checkpoint' interval must be >= 1");
  } else if (key == "data") {
    // '+'-composable parts: iid resets both skews, dirichlet:<alpha> and
    // sizeskew:<s> each set their own knob. Duplicated parts are rejected
    // so data=dirichlet:1+dirichlet:2 cannot silently last-write-win.
    spec.dirichlet_alpha = 0.0;
    spec.sizeskew_s = 0.0;
    bool saw_dirichlet = false;
    bool saw_sizeskew = false;
    std::size_t start = 0;
    while (start <= value.size()) {
      const std::size_t plus = value.find('+', start);
      const std::string part = value.substr(
          start, plus == std::string::npos ? std::string::npos : plus - start);
      if (part == "iid") {
        if (saw_dirichlet || saw_sizeskew || plus != std::string::npos)
          bad_spec("'data=iid' does not compose with other parts");
      } else if (part.rfind("dirichlet", 0) == 0) {
        if (saw_dirichlet) bad_spec("duplicate 'data' part 'dirichlet'");
        if (part.size() < 11 || part[9] != ':')
          bad_spec(
              "'data=dirichlet' wants a concentration "
              "(data=dirichlet:<alpha>)");
        spec.dirichlet_alpha = parse_double(part.substr(10), "data=dirichlet");
        if (!(spec.dirichlet_alpha > 0.0))
          bad_spec("'data=dirichlet' alpha must be positive");
        saw_dirichlet = true;
      } else if (part.rfind("sizeskew", 0) == 0) {
        if (saw_sizeskew) bad_spec("duplicate 'data' part 'sizeskew'");
        if (part.size() < 10 || part[8] != ':')
          bad_spec("'data=sizeskew' wants an exponent (data=sizeskew:<s>)");
        spec.sizeskew_s = parse_double(part.substr(9), "data=sizeskew");
        if (!(spec.sizeskew_s > 0.0))
          bad_spec("'data=sizeskew' exponent must be positive");
        saw_sizeskew = true;
      } else {
        bad_spec(
            "'data' parts must be iid, dirichlet:<alpha> or sizeskew:<s>, "
            "got '" + part + "'");
      }
      if (plus == std::string::npos) break;
      start = plus + 1;
    }
  } else if (key == "population") {
    // parse -> format canonicalizes the stored string (and validates it);
    // the population grammar uses ';' and '+' internally, never ',', so the
    // canonical value embeds verbatim in the comma-separated option list.
    try {
      spec.population =
          format_population_spec(parse_population_spec(value));
    } catch (const InvalidArgument& error) {
      bad_spec(std::string("'population': ") + error.what());
    }
  } else if (key == "downmode") {
    if (value == "full")
      spec.downlink_delta = false;
    else if (value == "delta")
      spec.downlink_delta = true;
    else
      bad_spec("'downmode' must be full or delta, got '" + value + "'");
  } else if (key == "ef") {
    if (value == "on")
      spec.error_feedback = true;
    else if (value == "off")
      spec.error_feedback = false;
    else
      bad_spec("'ef' must be on or off, got '" + value + "'");
  } else {
    bad_spec("unknown key '" + key +
             "' (expected lossy, lossless, eb, policy, sparsity, bits, "
             "chunk, threads, threshold, downlink, downmode, ef, topology, "
             "backhaul, backhaul<k>, edgemode, edgeef, shard, transport, "
             "checkpoint, data or population)");
  }
}

/// Parse the ','-separated kv list after the family. `comm_only` (identity
/// family) restricts the keys to the comm-level ones — an uncompressed
/// uplink can still configure the broadcast and error feedback.
void parse_options(CodecSpec& out, const std::string& body,
                   const std::string& family, bool comm_only) {
  if (body.empty()) bad_spec("empty option list after ':'");
  std::size_t pos = 0;
  while (pos <= body.size()) {
    // A policy/eb value may itself contain ':' + a number; the next comma
    // still terminates the pair, so splitting on ',' first is unambiguous.
    const std::size_t comma = body.find(',', pos);
    const std::string pair = body.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    const std::size_t eq = pair.find('=');
    if (pair.empty() || eq == std::string::npos || eq == 0)
      bad_spec("expected key=value, got '" + pair + "'");
    const std::string key = pair.substr(0, eq);
    if (comm_only && !is_comm_key(key))
      bad_spec("'" + family +
               "' takes only downlink, downmode, ef, topology, backhaul, "
               "backhaul<k>, edgemode, edgeef, shard, transport, "
               "checkpoint, data or population options");
    apply_key(out, key, pair.substr(eq + 1));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
}

}  // namespace

CodecSpec parse_codec_spec(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  const std::string family = spec.substr(0, colon);
  CodecSpec out;
  if (family == "identity" || family == "uncompressed") {
    out.identity = true;
    out.sparse = false;
    if (colon != std::string::npos)
      parse_options(out, spec.substr(colon + 1), family, /*comm_only=*/true);
    return out;
  }
  if (family != "fedsz" && family != "fedsz-parallel" && family != "sparse")
    bad_spec("unknown family '" + family +
             "' (expected fedsz, fedsz-parallel, sparse, identity or "
             "uncompressed)");
  out.identity = false;
  out.sparse = family == "sparse";
  if (family == "fedsz-parallel") out.threads = 0;
  if (colon == std::string::npos) return out;
  parse_options(out, spec.substr(colon + 1), family, /*comm_only=*/false);
  return out;
}

namespace {

/// The ",downlink=...,downmode=...,ef=...,topology=...,backhaul=..."
/// suffix (empty when every comm field is at its default), shared by the
/// identity and fedsz renderings.
std::string comm_suffix(const CodecSpec& spec) {
  std::string out;
  if (!spec.downlink.empty()) {
    // The stored downlink spec is already canonical (apply_key normalizes
    // it); only the separators swap so the composite string still splits
    // on ',' unambiguously. No re-parse: a formatter must not throw on a
    // hand-set (possibly bogus) string — parse/validate report that.
    std::string inner = spec.downlink;
    for (char& c : inner)
      if (c == ',') c = ';';
    out += ",downlink=" + inner;
  }
  if (spec.downlink_delta) out += ",downmode=delta";
  if (spec.error_feedback) out += ",ef=on";
  if (!spec.hier_tiers.empty()) {
    out += ",topology=hier:";
    for (std::size_t l = 0; l < spec.hier_tiers.size(); ++l) {
      if (l > 0) out += 'x';
      out += std::to_string(spec.hier_tiers[l]);
    }
  }
  if (!spec.backhaul.empty()) {
    std::string inner = spec.backhaul;
    for (char& c : inner)
      if (c == ',') c = ';';
    out += ",backhaul=" + inner;
  }
  for (std::size_t k = 0; k < spec.tier_backhauls.size(); ++k) {
    if (spec.tier_backhauls[k].empty()) continue;
    std::string inner = spec.tier_backhauls[k];
    for (char& c : inner)
      if (c == ',') c = ';';
    out += ",backhaul" + std::to_string(k + 1) + "=" + inner;
  }
  if (spec.edge_buffered)
    out += ",edgemode=buffered:" + std::to_string(spec.edge_buffer);
  if (spec.edge_error_feedback) out += ",edgeef=on";
  if (spec.shard_shuffled) out += ",shard=shuffled";
  if (!spec.transport.empty()) out += ",transport=" + spec.transport;
  if (!spec.checkpoint_path.empty())
    out += ",checkpoint=" + spec.checkpoint_path + ":" +
           std::to_string(spec.checkpoint_every);
  if (spec.dirichlet_alpha > 0.0 || spec.sizeskew_s > 0.0) {
    std::string parts;
    if (spec.dirichlet_alpha > 0.0)
      parts += "dirichlet:" + format_double(spec.dirichlet_alpha);
    if (spec.sizeskew_s > 0.0) {
      if (!parts.empty()) parts += '+';
      parts += "sizeskew:" + format_double(spec.sizeskew_s);
    }
    out += ",data=" + parts;
  }
  // Stored canonically by apply_key; the population grammar never contains
  // ',' so no separator swap is needed.
  if (!spec.population.empty()) out += ",population=" + spec.population;
  return out;
}

}  // namespace

std::string format_codec_spec(const CodecSpec& spec) {
  if (spec.identity) {
    const std::string comm = comm_suffix(spec);
    return comm.empty() ? "identity" : "identity:" + comm.substr(1);
  }
  std::string out;
  if (spec.sparse) {
    out = "sparse:eb=";
  } else {
    out = "fedsz:lossy=";
    out += lossy::lossy_codec(spec.lossy_id).name();
    out += ",eb=";
  }
  out += spec.bound.mode == lossy::BoundMode::kAbsolute ? "abs:" : "rel:";
  out += format_double(spec.bound.value);
  out += ",lossless=";
  out += lossless::lossless_codec(spec.lossless_id).name();
  out += ",policy=" + spec.policy;
  if (spec.policy == "schedule")
    out += ":" + format_double(spec.schedule_factor);
  if (spec.policy == "gradaware")
    out += ":" + format_double(spec.gradaware_beta);
  if (spec.sparse) {
    if (spec.sparsity > 0.0) out += ",sparsity=" + format_double(spec.sparsity);
    if (spec.sparse_bits > 0)
      out += ",bits=" + std::to_string(spec.sparse_bits);
  }
  out += ",chunk=" + std::to_string(spec.chunk_elements);
  out += ",threads=" + std::to_string(spec.threads);
  out += ",threshold=" + std::to_string(spec.lossy_threshold);
  out += comm_suffix(spec);
  return out;
}

FedSzConfig codec_spec_config(const CodecSpec& spec) {
  if (spec.identity)
    throw InvalidArgument(
        "codec_spec_config: the identity spec has no FedSzConfig");
  FedSzConfig config;
  config.lossy_id = spec.lossy_id;
  config.lossless_id = spec.lossless_id;
  config.bound = spec.bound;
  config.lossy_threshold = spec.lossy_threshold;
  config.chunk_elements = spec.chunk_elements;
  config.parallelism = spec.threads;
  config.policy = std::make_shared<SpecPolicy>(spec);
  return config;
}

UpdateCodecPtr make_codec(const CodecSpec& spec) {
  if (spec.identity) return make_identity_codec();
  return make_fedsz_codec(codec_spec_config(spec));
}

UpdateCodecPtr make_codec(const std::string& spec) {
  const CodecSpec parsed = parse_codec_spec(spec);
  if (parsed.has_comm_keys())
    throw InvalidArgument(
        "make_codec: '" + spec +
        "' carries comm keys (downlink/topology/...) a bare codec cannot "
        "honor; use FlRunConfig::apply_comm_spec for those");
  return make_codec(parsed);
}

}  // namespace fedsz::core
