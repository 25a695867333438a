#include "core/fedsz.hpp"

#include <algorithm>
#include <cstring>
#include <new>
#include <stdexcept>

#include "compress/sparse/sparse_codec.hpp"
#include "core/codec_spec.hpp"
#include "util/bytebuffer.hpp"
#include "util/timer.hpp"

namespace fedsz::core {

namespace {
constexpr char kMagic[4] = {'F', 'S', 'Z', '1'};
/// v1: one opaque blob per lossy tensor and no chunk size, decoded as a
/// chunk table of one.
constexpr std::uint16_t kVersionLegacy = 1;
/// v2: chunked container — ONE codec/bound for the whole stream in the
/// header, per-tensor resolved bound, chunk count and per-chunk size table,
/// enabling parallel decode at any offset. Still written whenever every
/// plan matches the uniform Algorithm-1 default, so the default policy's
/// bytes are identical to the pre-policy writer.
constexpr std::uint16_t kVersionUniform = 2;
/// v3: per-tensor plans — each planned tensor carries its own path tag and,
/// on the lossy path, its own codec id, policy bound and resolved epsilon.
/// Raw-path tensors ship untouched float bytes.
constexpr std::uint16_t kVersionPlanned = 3;
/// A relative bound over a constant tensor resolves to epsilon 0; clamp to a
/// tiny positive tolerance so the per-chunk absolute bound stays valid (any
/// exact reconstruction satisfies it either way).
constexpr double kMinEpsilon = 1e-300;
}  // namespace

bool is_lossy_entry(const std::string& name, std::size_t numel,
                    std::size_t threshold) {
  return name.find("weight") != std::string::npos && numel > threshold;
}

Partition partition_state_dict(const StateDict& dict, std::size_t threshold) {
  Partition partition;
  for (const auto& [name, tensor] : dict) {
    if (is_lossy_entry(name, tensor.numel(), threshold)) {
      partition.lossy_names.push_back(name);
      partition.lossy_bytes += tensor.numel() * sizeof(float);
    } else {
      partition.lossless_names.push_back(name);
      partition.lossless_bytes += tensor.numel() * sizeof(float);
    }
  }
  return partition;
}

namespace {
/// Everything one compress() call needs beyond the output buffer. Each
/// thread keeps one, like the codecs' arenas, so in steady state every
/// round reuses the same heap blocks: payload slots keep their capacity and
/// are refilled through compress_into, the task list is a flat struct array
/// (no per-chunk std::function), and the metadata partition serializes into
/// a reusable writer instead of a deep-copied StateDict. One per thread is
/// enough: pool workers run only codec jobs, and parallel_for's caller
/// blocks, so no compress() runs inside another on one thread.
struct EncodeWorkspace {
  struct ChunkJob {
    /// Lossy chunk when non-null; a whole-tensor sparse job when null
    /// (sparse masks/statistics are per-tensor, so the sparse path never
    /// chunks — one job per tensor keeps byte-identity trivial).
    const lossy::LossyCodec* codec;
    FloatSpan chunk;
    std::span<float> recon;  // the chunk's slice of the reconstruction
    double eps;
    Bytes* slot;
    double sparsity = 0.0;    // sparse jobs only
    unsigned sparse_bits = 0; // sparse jobs only
    std::size_t kept = 0;     // filled by sparse jobs for the stats tally
  };
  std::vector<std::vector<Bytes>> chunk_payloads;  // per planned entry
  std::vector<ChunkJob> jobs;
  ByteWriter metadata;  // serialized lossless partition
  ByteWriter frame;     // assembled container
  Bytes lossless_payload;

  static EncodeWorkspace& local() {
    static thread_local EncodeWorkspace workspace;
    return workspace;
  }
};
}  // namespace

FedSz::FedSz(FedSzConfig config) : config_(std::move(config)) {
  config_.bound.validate();
  if (config_.chunk_elements == 0)
    throw InvalidArgument("FedSz: chunk_elements must be >= 1");
  config_.chunk_elements =
      std::min(config_.chunk_elements, FedSzConfig::kMaxChunkElements);
  // Resolve the codecs eagerly so a bad id fails at construction (and the
  // registry singletons exist before any worker thread touches them).
  (void)lossy::lossy_codec(config_.lossy_id);
  (void)lossless::lossless_codec(config_.lossless_id);
  policy_ = config_.policy;
  if (!policy_) {
    CodecSpec spec;  // policy=threshold: Algorithm 1 over the config fields
    spec.lossy_id = config_.lossy_id;
    spec.bound = config_.bound;
    spec.lossy_threshold = config_.lossy_threshold;
    policy_ = std::make_shared<SpecPolicy>(spec);
  }
}

std::size_t FedSz::resolved_parallelism() const {
  if (config_.parallelism == 0) return ThreadPool::hardware_threads();
  return config_.parallelism;
}

ThreadPool& FedSz::pool(std::size_t workers) const {
  std::lock_guard lock(pool_mutex_);
  if (!pool_) pool_ = std::make_unique<ThreadPool>(workers);
  return *pool_;
}

namespace {
/// Give `dest` the entries of `like` (names, order, shapes), keeping its
/// tensors when that layout already matches, and return its entries.
std::vector<StateDict::Entry>& match_layout(const StateDict& like,
                                            StateDict& dest) {
  const std::vector<StateDict::Entry>& want = like.entries();
  std::vector<StateDict::Entry>& have = dest.entries_mutable();
  bool same = have.size() == want.size();
  for (std::size_t k = 0; same && k < want.size(); ++k)
    same = have[k].first == want[k].first &&
           have[k].second.same_shape(want[k].second);
  if (!same) {
    have.clear();
    have.reserve(want.size());
    for (const auto& [name, tensor] : want)
      have.emplace_back(name, Tensor(tensor.shape()));
  }
  return have;
}
}  // namespace

void FedSz::run_indexed(std::size_t count,
                        const std::function<void(std::size_t)>& fn) const {
  const std::size_t workers = resolved_parallelism();
  if (workers <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  pool(workers).parallel_for(count, fn);
}

Bytes FedSz::compress(const StateDict& dict, CompressionStats* stats,
                      const EncodeContext& ctx) const {
  Timer timer;
  const lossless::LosslessCodec& lossless_codec =
      lossless::lossless_codec(config_.lossless_id);

  CompressionStats local;
  local.original_bytes = dict.total_bytes();

  // Plan every entry through the policy. `planned` keeps lossy and raw
  // entries in dict order; lossless entries collect into one partition.
  struct PlannedEntry {
    const std::string* name;
    const Tensor* tensor;
    TensorPlan plan;
    const lossy::LossyCodec* codec = nullptr;  // lossy path only
    float* recon = nullptr;   // the entry's reconstruction, when wanted
    double eps = 0.0;         // bound resolved over the whole tensor
    std::size_t chunks = 0;
  };
  // A wanted reconstruction takes the input's layout first. Lossless and
  // raw entries decode to their own bytes, so they are copied here; lossy
  // and sparse jobs write their slices below.
  StateDict* const reconstruction = ctx.reconstruction;
  if (reconstruction == &dict)
    throw InvalidArgument("FedSz: the reconstruction must not be the input");
  std::vector<StateDict::Entry>* recon_entries =
      reconstruction != nullptr ? &match_layout(dict, *reconstruction)
                                : nullptr;
  std::vector<const StateDict::Entry*> lossless_entries;
  std::vector<PlannedEntry> planned;
  // True while every plan is expressible as the uniform v2 container: the
  // Algorithm-1 partition under this config, one codec, one bound, nothing
  // raw. Uniform updates keep emitting the exact pre-policy v2 bytes.
  bool uniform = true;
  double rel_bound_sum = 0.0;
  std::size_t rel_bound_count = 0;
  for (std::size_t k = 0; k < dict.size(); ++k) {
    const StateDict::Entry& dict_entry = dict.entries()[k];
    const std::string& name = dict_entry.first;
    const Tensor& tensor = dict_entry.second;
    const TensorPlan plan = policy_->plan(name, tensor, ctx);
    const std::size_t bytes = tensor.numel() * sizeof(float);
    const bool default_lossy =
        is_lossy_entry(name, tensor.numel(), config_.lossy_threshold);
    float* recon =
        recon_entries != nullptr ? (*recon_entries)[k].second.data() : nullptr;
    if (recon != nullptr && (plan.path == TensorPath::kLossless ||
                             plan.path == TensorPath::kRaw))
      std::copy(tensor.span().begin(), tensor.span().end(), recon);
    switch (plan.path) {
      case TensorPath::kLossless:
        uniform = uniform && !default_lossy;
        lossless_entries.push_back(&dict_entry);
        local.lossless_original_bytes += bytes;
        ++local.lossless_tensors;
        break;
      case TensorPath::kRaw:
        uniform = false;
        planned.push_back({&name, &tensor, plan});
        local.raw_original_bytes += bytes;
        ++local.raw_tensors;
        break;
      case TensorPath::kLossy: {
        plan.bound.validate();
        uniform = uniform && default_lossy &&
                  plan.lossy_id == config_.lossy_id &&
                  plan.bound.mode == config_.bound.mode &&
                  plan.bound.value == config_.bound.value;
        planned.push_back(
            {&name, &tensor, plan, &lossy::lossy_codec(plan.lossy_id), recon});
        local.lossy_original_bytes += bytes;
        ++local.lossy_tensors;
        if (plan.bound.mode == lossy::BoundMode::kRelative) {
          rel_bound_sum += plan.bound.value;
          ++rel_bound_count;
        }
        break;
      }
      case TensorPath::kSparse: {
        plan.bound.validate();
        sparse::SparseParams{plan.sparsity, plan.sparse_bits}.validate();
        uniform = false;
        planned.push_back({&name, &tensor, plan, nullptr, recon});
        local.sparse_original_bytes += bytes;
        local.sparse_total_elements += tensor.numel();
        ++local.sparse_tensors;
        if (plan.bound.mode == lossy::BoundMode::kRelative) {
          rel_bound_sum += plan.bound.value;
          ++rel_bound_count;
        }
        break;
      }
      default:
        throw InvalidArgument("FedSz: policy '" + policy_->name() +
                              "' returned an unknown TensorPath");
    }
  }
  if (rel_bound_count > 0)
    local.mean_bound_value =
        rel_bound_sum / static_cast<double>(rel_bound_count);

  // Resolve each (possibly relative) bound per tensor BEFORE chunking, so a
  // chunk sees the same absolute tolerance it would in an unchunked stream.
  std::size_t total_chunks = 0;
  for (PlannedEntry& entry : planned) {
    if (entry.plan.path == TensorPath::kRaw) continue;
    entry.eps = std::max(entry.plan.bound.absolute_for(entry.tensor->span()),
                         kMinEpsilon);
    if (entry.plan.path != TensorPath::kLossy) continue;
    entry.chunks = chunk_count(entry.tensor->numel());
    total_chunks += entry.chunks;
  }
  local.lossy_chunks = total_chunks;

  // One job per lossy chunk plus one for the lossless partition, all on the
  // same queue: metadata compression overlaps the lossy work instead of
  // trailing it. Chunks are compressed out of order but written in order, so
  // the bitstream is identical at every parallelism setting. Raw entries
  // need no work. All working storage comes from the calling thread's
  // workspace, so in steady state the chunk loop performs no allocation:
  // payload slots keep their capacity and codecs refill them through
  // compress_into.
  EncodeWorkspace& ws = EncodeWorkspace::local();
  ws.chunk_payloads.resize(planned.size());
  ws.jobs.clear();
  // A job's reconstruction slice is empty when none is wanted.
  const auto recon_slice = [](const PlannedEntry& entry, std::size_t begin,
                              std::size_t len) {
    return entry.recon != nullptr ? std::span<float>(entry.recon + begin, len)
                                  : std::span<float>();
  };
  for (std::size_t i = 0; i < planned.size(); ++i) {
    const PlannedEntry& entry = planned[i];
    const FloatSpan values = entry.tensor->span();
    if (entry.plan.path == TensorPath::kSparse) {
      // One whole-tensor job: the keep-mask derives from per-tensor
      // magnitude statistics, so the sparse path never chunks.
      ws.chunk_payloads[i].resize(1);
      ws.jobs.push_back({nullptr, values, recon_slice(entry, 0, values.size()),
                         entry.eps, &ws.chunk_payloads[i][0],
                         entry.plan.sparsity, entry.plan.sparse_bits, 0});
      continue;
    }
    if (entry.plan.path != TensorPath::kLossy) {
      ws.chunk_payloads[i].clear();
      continue;
    }
    ws.chunk_payloads[i].resize(entry.chunks);
    for (std::size_t c = 0; c < entry.chunks; ++c) {
      const std::size_t begin = c * config_.chunk_elements;
      const std::size_t len =
          std::min(config_.chunk_elements, values.size() - begin);
      ws.jobs.push_back({entry.codec, values.subspan(begin, len),
                         recon_slice(entry, begin, len), entry.eps,
                         &ws.chunk_payloads[i][c]});
    }
  }

  // Serialize the lossless partition straight from the borrowed entries —
  // StateDict::serialize()'s format, without deep-copying the tensors into
  // a scratch dict.
  ByteWriter& metadata = ws.metadata;
  metadata.reset();
  metadata.put_u32(static_cast<std::uint32_t>(lossless_entries.size()));
  for (const StateDict::Entry* entry : lossless_entries) {
    write_entry_header(metadata, entry->first, entry->second.shape());
    metadata.put_bytes(as_bytes(entry->second.span()));
  }

  run_indexed(ws.jobs.size() + 1, [&ws, &lossless_codec,
                                   &metadata](std::size_t t) {
    if (t == 0) {
      lossless_codec.compress_into(metadata.view(), ws.lossless_payload);
      return;
    }
    EncodeWorkspace::ChunkJob& job = ws.jobs[t - 1];
    if (job.codec == nullptr) {
      job.kept = sparse::sparse_codec()
                     .compress_into(job.chunk, job.eps,
                                    {job.sparsity, job.sparse_bits},
                                    lossless_codec, *job.slot, job.recon)
                     .kept;
      return;
    }
    job.codec->compress_into(job.chunk, lossy::ErrorBound::absolute(job.eps),
                             *job.slot, job.recon);
  });
  const Bytes& lossless_payload = ws.lossless_payload;
  for (const EncodeWorkspace::ChunkJob& job : ws.jobs)
    if (job.codec == nullptr) local.sparse_kept_elements += job.kept;

  // Shared per-entry serialization, so the v2 and v3 branches can never
  // drift apart: the name/shape prefix (write_entry_header), and the
  // resolved-eps + chunk-size table + payload tail (identical in both
  // formats).
  const auto write_chunk_payloads = [&local](ByteWriter& writer,
                                             const PlannedEntry& entry,
                                             const std::vector<Bytes>&
                                                 payloads) {
    writer.put_f64(entry.eps);
    writer.put_varint(entry.chunks);
    for (const Bytes& payload : payloads) {
      writer.put_varint(payload.size());
      local.lossy_compressed_bytes += payload.size();
    }
    for (const Bytes& payload : payloads)
      writer.put_bytes({payload.data(), payload.size()});
  };

  ByteWriter& w = ws.frame;
  w.reset();
  w.put_bytes({reinterpret_cast<const std::uint8_t*>(kMagic), 4});
  if (uniform) {
    // v2: the pre-policy chunked container, byte-for-byte.
    w.put_u16(kVersionUniform);
    w.put_u8(static_cast<std::uint8_t>(config_.lossy_id));
    w.put_u8(static_cast<std::uint8_t>(config_.lossless_id));
    w.put_u8(static_cast<std::uint8_t>(config_.bound.mode));
    w.put_f64(config_.bound.value);
    w.put_varint(config_.chunk_elements);
    w.put_u32(static_cast<std::uint32_t>(planned.size()));
    for (std::size_t i = 0; i < planned.size(); ++i) {
      write_entry_header(w, *planned[i].name, planned[i].tensor->shape());
      write_chunk_payloads(w, planned[i], ws.chunk_payloads[i]);
    }
  } else {
    // v3: per-tensor plans in the header.
    w.put_u16(kVersionPlanned);
    w.put_u8(static_cast<std::uint8_t>(config_.lossless_id));
    w.put_varint(config_.chunk_elements);
    w.put_u32(static_cast<std::uint32_t>(planned.size()));
    for (std::size_t i = 0; i < planned.size(); ++i) {
      const PlannedEntry& entry = planned[i];
      write_entry_header(w, *entry.name, entry.tensor->shape());
      w.put_u8(static_cast<std::uint8_t>(entry.plan.path));
      if (entry.plan.path == TensorPath::kRaw) {
        w.put_bytes(as_bytes(entry.tensor->span()));
        continue;
      }
      if (entry.plan.path == TensorPath::kSparse) {
        // Policy bound + resolved epsilon (informational, mirrors the lossy
        // layout), then one self-contained sparse payload.
        w.put_u8(static_cast<std::uint8_t>(entry.plan.bound.mode));
        w.put_f64(entry.plan.bound.value);
        w.put_f64(entry.eps);
        const Bytes& payload = ws.chunk_payloads[i][0];
        w.put_varint(payload.size());
        w.put_bytes({payload.data(), payload.size()});
        local.sparse_compressed_bytes += payload.size();
        continue;
      }
      w.put_u8(static_cast<std::uint8_t>(entry.plan.lossy_id));
      w.put_u8(static_cast<std::uint8_t>(entry.plan.bound.mode));
      w.put_f64(entry.plan.bound.value);
      write_chunk_payloads(w, entry, ws.chunk_payloads[i]);
    }
  }
  w.put_blob({lossless_payload.data(), lossless_payload.size()});
  local.lossless_compressed_bytes = lossless_payload.size();

  const ByteSpan frame = w.view();
  Bytes out(frame.begin(), frame.end());
  local.compressed_bytes = out.size();
  local.compress_seconds = timer.seconds();
  if (stats) *stats = local;
  return out;
}

namespace {

struct DecodedEntry {
  std::string name;
  Tensor tensor;
};

/// One pass-2 decode: a lossy chunk into its slice of a tensor, or, when
/// `codec` is null, a sparse payload into its whole tensor.
struct DecodeTask {
  const lossy::LossyCodec* codec;
  ByteSpan payload;
  float* dest;
  std::size_t n;
};

/// Append a zero-filled tensor of the declared shape and return its data.
/// Callers first check that the stream's bytes back the shape; the shape is
/// still stream data, so a failed allocation is corruption, not a caller
/// error.
float* materialize(std::vector<DecodedEntry>* entries, std::string name,
                   Shape shape) {
  try {
    entries->push_back({std::move(name), Tensor(std::move(shape))});
  } catch (const std::bad_alloc&) {
    throw CorruptStream("FedSz: declared tensor too large to materialize");
  } catch (const std::length_error&) {
    throw CorruptStream("FedSz: declared tensor too large to materialize");
  }
  return entries->back().tensor.data();
}

/// Walk one tensor's chunk table and payload region (validating sizes and
/// the decompression-bomb bound BEFORE any allocation), materialize the
/// output tensor, append its decode tasks, and account its bytes in
/// `local`. A chunk size of 0 reads v1's layout: no chunk count, and one
/// length-prefixed blob that holds the whole tensor.
void read_chunked_tensor(ByteReader& r, std::string name, Shape shape,
                         std::size_t numel, std::uint64_t chunk_elements,
                         const lossy::LossyCodec& codec,
                         std::vector<DecodedEntry>* entries,
                         std::vector<DecodeTask>* tasks,
                         CompressionStats* local) {
  std::uint64_t n_chunks = 1;
  std::size_t chunk = numel;
  if (chunk_elements != 0) {
    n_chunks = r.get_varint();
    chunk = static_cast<std::size_t>(chunk_elements);
    if (n_chunks != ceil_div(numel, chunk))
      throw CorruptStream("FedSz: chunk count mismatch for " + name);
  }
  // Walk the whole chunk table and payload region BEFORE allocating the
  // output tensor: every size varint is >= 1 byte and get_bytes() throws
  // on truncation, so a malformed header cannot trigger a large
  // allocation backed by no stream bytes.
  if (n_chunks > r.remaining())
    throw CorruptStream("FedSz: chunk table larger than stream for " + name);
  std::vector<ByteSpan> payloads(n_chunks);
  {
    std::vector<std::uint64_t> sizes(n_chunks);
    std::uint64_t payload_bytes = 0;
    for (std::uint64_t c = 0; c < n_chunks; ++c) {
      sizes[c] = r.get_varint();
      if (sizes[c] > r.remaining())
        throw CorruptStream("FedSz: chunk size exceeds stream for " + name);
      payload_bytes += sizes[c];
    }
    // Even the most compressible legitimate tensor needs payload bytes in
    // proportion to its element count; a header claiming far more is a
    // decompression bomb, rejected before the output tensor is allocated.
    if (numel / lossy::kMaxElementsPerPayloadByte >
        static_cast<std::size_t>(payload_bytes))
      throw CorruptStream("FedSz: implausible tensor size for " + name);
    for (std::uint64_t c = 0; c < n_chunks; ++c)
      payloads[c] = r.get_bytes(sizes[c]);
    local->lossy_compressed_bytes +=
        static_cast<std::size_t>(payload_bytes);
    local->lossy_original_bytes += numel * sizeof(float);
  }
  float* dest = materialize(entries, std::move(name), std::move(shape));
  for (std::uint64_t c = 0; c < n_chunks; ++c) {
    const std::size_t begin = c * chunk;
    const std::size_t len = std::min(chunk, numel - begin);
    tasks->push_back({&codec, payloads[c], dest + begin, len});
  }
}

}  // namespace

StateDict FedSz::decompress(ByteSpan stream, CompressionStats* stats) const {
  Timer timer;
  CompressionStats local;
  local.compressed_bytes = stream.size();
  ByteReader r(stream);
  ByteSpan magic = r.get_bytes(4);
  if (std::memcmp(magic.data(), kMagic, 4) != 0)
    throw CorruptStream("FedSz: bad magic");
  const std::uint16_t version = r.get_u16();
  if (version != kVersionPlanned && version != kVersionUniform &&
      version != kVersionLegacy)
    throw CorruptStream("FedSz: unsupported version " +
                        std::to_string(version));

  const lossless::LosslessCodec* lossless_codec = nullptr;
  const lossy::LossyCodec* uniform_lossy = nullptr;
  if (version == kVersionPlanned) {
    const std::uint8_t raw_lossless_id = r.get_u8();
    if (!lossless::is_lossless_id(raw_lossless_id))
      throw CorruptStream("FedSz: unknown codec id in stream");
    lossless_codec = &lossless::lossless_codec(
        static_cast<lossless::LosslessId>(raw_lossless_id));
  } else {
    const std::uint8_t raw_lossy_id = r.get_u8();
    const std::uint8_t raw_lossless_id = r.get_u8();
    // Codec-id bytes are stream data: an unknown value is corruption, not an
    // API-misuse InvalidArgument from the registry lookup.
    if (!lossy::is_lossy_id(raw_lossy_id) ||
        !lossless::is_lossless_id(raw_lossless_id))
      throw CorruptStream("FedSz: unknown codec id in stream");
    uniform_lossy =
        &lossy::lossy_codec(static_cast<lossy::LossyId>(raw_lossy_id));
    lossless_codec = &lossless::lossless_codec(
        static_cast<lossless::LosslessId>(raw_lossless_id));
    (void)r.get_u8();   // bound mode (informational)
    (void)r.get_f64();  // bound value (informational)
  }

  // v1 has no chunk size; 0 makes the chunk walk read its one blob per
  // lossy tensor.
  std::uint64_t chunk_elements = 0;
  if (version != kVersionLegacy) {
    chunk_elements = r.get_varint();
    if (chunk_elements == 0 ||
        chunk_elements > FedSzConfig::kMaxChunkElements)
      throw CorruptStream("FedSz: chunk size out of range");
  }

  // Pass 1 (serial): walk the container, validate the chunk tables, and
  // pre-allocate every output tensor. Each decode task then gets a disjoint
  // destination range, so pass 2 can decode them all concurrently.
  const std::uint32_t n_planned = r.get_u32();
  std::vector<DecodedEntry> planned_entries;
  planned_entries.reserve(std::min<std::size_t>(n_planned, r.remaining()));
  std::vector<DecodeTask> tasks;
  for (std::uint32_t i = 0; i < n_planned; ++i) {
    std::string name = r.get_string();
    Shape shape;
    const std::size_t numel = read_stream_shape(r, &shape, name);
    if (version != kVersionPlanned) {
      if (version == kVersionUniform)
        (void)r.get_f64();  // resolved absolute epsilon (informational)
      read_chunked_tensor(r, std::move(name), std::move(shape), numel,
                          chunk_elements, *uniform_lossy, &planned_entries,
                          &tasks, &local);
      ++local.lossy_tensors;
      continue;
    }
    // v3: per-tensor path tag.
    const std::uint8_t path = r.get_u8();
    if (path == static_cast<std::uint8_t>(TensorPath::kRaw)) {
      // Raw float bytes; the remaining stream bounds the element count, so
      // a corrupt shape cannot force a large unbacked allocation.
      if (numel > r.remaining() / sizeof(float))
        throw CorruptStream("FedSz: raw tensor larger than stream for " +
                            name);
      const ByteSpan raw = r.get_bytes(numel * sizeof(float));
      float* dest =
          materialize(&planned_entries, std::move(name), std::move(shape));
      std::memcpy(dest, raw.data(), raw.size());
      ++local.raw_tensors;
      local.raw_original_bytes += raw.size();
      continue;
    }
    if (path == static_cast<std::uint8_t>(TensorPath::kSparse)) {
      (void)r.get_u8();   // policy bound mode (informational)
      (void)r.get_f64();  // policy bound value (informational)
      (void)r.get_f64();  // resolved absolute epsilon (informational)
      const std::uint64_t payload_size = r.get_varint();
      if (payload_size > r.remaining())
        throw CorruptStream("FedSz: sparse payload exceeds stream for " +
                            name);
      // Same decompression-bomb rule as the chunked path: the sparse
      // encoder keeps every payload above this floor (bitmap fallback).
      if (numel / lossy::kMaxElementsPerPayloadByte >
          static_cast<std::size_t>(payload_size))
        throw CorruptStream("FedSz: implausible tensor size for " + name);
      const ByteSpan payload = r.get_bytes(payload_size);
      {
        // Peek the payload's own header so a container/payload element-count
        // mismatch fails serially (and the kept tally lands in the stats).
        ByteReader peek(payload);
        if (peek.get_varint() != numel)
          throw CorruptStream(
              "FedSz: sparse payload element count mismatch for " + name);
        (void)peek.get_f64();  // eps
        local.sparse_kept_elements +=
            static_cast<std::size_t>(peek.get_varint());
      }
      float* dest =
          materialize(&planned_entries, std::move(name), std::move(shape));
      tasks.push_back({nullptr, payload, dest, numel});
      ++local.sparse_tensors;
      local.sparse_compressed_bytes += payload_size;
      local.sparse_original_bytes += numel * sizeof(float);
      local.sparse_total_elements += numel;
      continue;
    }
    if (path != static_cast<std::uint8_t>(TensorPath::kLossy))
      throw CorruptStream("FedSz: unknown tensor path in stream for " + name);
    const std::uint8_t raw_lossy_id = r.get_u8();
    if (!lossy::is_lossy_id(raw_lossy_id))
      throw CorruptStream("FedSz: unknown codec id in stream");
    (void)r.get_u8();   // policy bound mode (informational)
    (void)r.get_f64();  // policy bound value (informational)
    (void)r.get_f64();  // resolved absolute epsilon (informational)
    const lossy::LossyCodec& codec =
        lossy::lossy_codec(static_cast<lossy::LossyId>(raw_lossy_id));
    read_chunked_tensor(r, std::move(name), std::move(shape), numel,
                        chunk_elements, codec, &planned_entries, &tasks,
                        &local);
    ++local.lossy_tensors;
  }
  const ByteSpan lossless_payload = r.get_blob_view();
  if (!r.done()) throw CorruptStream("FedSz: trailing bytes");

  // Pass 2: decode every task and the lossless partition concurrently. The
  // task list is one flat array — no per-chunk closure allocation.
  StateDict lossless_partition;
  run_indexed(tasks.size() + 1, [lossless_codec, lossless_payload,
                                 &lossless_partition, &tasks](std::size_t t) {
    if (t == 0) {
      const Bytes serialized = lossless_codec->decompress(lossless_payload);
      lossless_partition =
          StateDict::deserialize({serialized.data(), serialized.size()});
      return;
    }
    const DecodeTask& task = tasks[t - 1];
    if (task.codec == nullptr) {
      const std::vector<float> values =
          sparse::sparse_codec().decompress(task.payload);
      if (values.size() != task.n)
        throw CorruptStream("FedSz: decompressed sparse size mismatch");
      std::memcpy(task.dest, values.data(), values.size() * sizeof(float));
      return;
    }
    // Straight into the task's slice of the tensor: a payload of another
    // element count throws before anything lands outside the slice.
    task.codec->decompress_into(task.payload, {task.dest, task.n});
  });
  local.lossless_tensors = lossless_partition.size();
  local.lossless_compressed_bytes = lossless_payload.size();
  local.lossless_original_bytes = lossless_partition.total_bytes();

  // Reassemble. Entry order is planned entries first, then lossless; FedAvg
  // aggregation matches by name, so order differences from the original are
  // irrelevant — but we keep a deterministic layout.
  StateDict out;
  for (DecodedEntry& entry : planned_entries)
    out.set(entry.name, std::move(entry.tensor));
  for (const auto& [name, tensor] : lossless_partition) out.set(name, tensor);
  local.original_bytes = out.total_bytes();
  local.decompress_seconds = timer.seconds();
  if (stats) *stats = local;
  return out;
}

}  // namespace fedsz::core
