#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <string_view>

#include "e2e.hpp"
#include "util/json.hpp"

namespace e2e {

namespace {

// Initialized during static initialization, so now() counts from (close to)
// process start.
const std::chrono::steady_clock::time_point g_start =
    std::chrono::steady_clock::now();

std::uint64_t payload_key(ByteSpan payload) {
  return std::hash<std::string_view>{}(std::string_view(
      reinterpret_cast<const char*>(payload.data()), payload.size()));
}

}  // namespace

double now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       g_start)
      .count();
}

double cpu_now() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
}

std::size_t thread_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t index = next.fetch_add(1);
  return index;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

std::uint64_t SpanLog::next_id() {
  std::lock_guard lock(mutex_);
  return ++last_id_;
}

std::uint64_t SpanLog::record(std::string name, double start, double end,
                              std::uint64_t parent, std::uint64_t op,
                              std::uint64_t id) {
  const std::size_t thread = thread_index();
  std::lock_guard lock(mutex_);
  if (id == 0) id = ++last_id_;
  spans_.push_back({std::move(name), start, end, id, parent, thread, op});
  return id;
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

void SpanLog::write_json(const std::string& path) const {
  fedsz::util::JsonValue list = fedsz::util::JsonValue::array();
  for (const Span& s : spans()) {
    fedsz::util::JsonValue item = fedsz::util::JsonValue::object();
    item.set("name", s.name)
        .set("start", s.start)
        .set("end", s.end)
        .set("id", static_cast<std::size_t>(s.id))
        .set("parent", static_cast<std::size_t>(s.parent))
        .set("thread", s.thread)
        // Op ids are 64-bit hashes; a string keeps every bit.
        .set("op", std::to_string(s.op));
    list.push(std::move(item));
  }
  fedsz::util::write_json(path, list);
}

TracingCodec::Encoded TracingCodec::encode(
    const StateDict& dict, const fedsz::core::EncodeContext& ctx) const {
  const double start = now();
  Encoded encoded = inner_->encode(dict, ctx);
  const double end = now();
  log_.record("fedsz.encode", start, end, parent_,
              payload_key({encoded.payload.data(), encoded.payload.size()}));
  return encoded;
}

StateDict TracingCodec::decode(ByteSpan payload,
                               fedsz::core::CompressionStats* stats) const {
  const double start = now();
  StateDict decoded = inner_->decode(payload, stats);
  const double end = now();
  log_.record("fedsz.decode", start, end, parent_, payload_key(payload));
  return decoded;
}

}  // namespace e2e
