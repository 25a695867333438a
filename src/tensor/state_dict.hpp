// Ordered mapping from parameter name to Tensor — the analogue of a PyTorch
// model.state_dict(). FedSZ's Algorithm 1 iterates this structure, routing
// each entry to the lossy or lossless pipeline by name and size.
//
// Insertion order is preserved (like Python dicts) so serialization is
// deterministic and aggregation can zip state dicts positionally.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/common.hpp"

namespace fedsz {

class ByteReader;

/// Reads a serialized tensor shape (u8 rank, then one dim varint each) and
/// returns its element count. Dims are stream data: zero dims, dims above
/// int64 range, and element-count products that wrap size_t all throw
/// CorruptStream (never a Tensor argument error), so downstream allocation
/// arithmetic cannot overflow. Shared by the StateDict and FedSZ-container
/// stream parsers.
std::size_t read_stream_shape(ByteReader& r, Shape* shape,
                              const std::string& name);

class StateDict {
 public:
  using Entry = std::pair<std::string, Tensor>;

  StateDict() = default;

  /// Insert or overwrite. New names keep insertion order.
  void set(const std::string& name, Tensor tensor);

  bool contains(const std::string& name) const;
  const Tensor& get(const std::string& name) const;
  Tensor& get_mutable(const std::string& name);

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  const std::vector<Entry>& entries() const { return entries_; }
  std::vector<Entry>& entries_mutable() { return entries_; }

  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }

  /// Total number of float parameters across all tensors.
  std::size_t total_parameters() const;
  /// Total storage in bytes (float32).
  std::size_t total_bytes() const { return total_parameters() * sizeof(float); }

  /// Bit-exact equality of names (in order), shapes and contents.
  bool equals(const StateDict& other) const;

  /// this += scale * other, elementwise per entry; structures must match.
  void add_scaled(const StateDict& other, float scale);
  /// this += scale * other with entries matched by NAME: a positional
  /// fast path (one string compare per entry when the layouts already
  /// agree) falling back to a name lookup — the allocation-free
  /// replacement for add_scaled(other.reordered_like(*this), scale).
  /// Entries of `other` absent from this dict throw InvalidArgument.
  void add_scaled_matched(const StateDict& other, float scale);
  /// this[k] += c * (other[k] - this[k]) per entry — the West online-mean
  /// fold behind StreamingMean::add. Entries are matched by name
  /// with the same positional fast path as add_scaled_matched; `other` may
  /// carry extra entries (ignored), missing or misshapen ones throw.
  void fold_scaled(const StateDict& other, float c);
  void scale(float factor);

  /// Copy of this dict with entries reordered to `reference`'s entry order,
  /// matched by name — the bridge to positional ops like add_scaled when
  /// this dict came from a decoder that groups entries by path. Throws
  /// InvalidArgument when the name sets differ.
  StateDict reordered_like(const StateDict& reference) const;

  /// Deep structural copy with all tensors zero-filled (aggregation buffer).
  StateDict zeros_like() const;

  // ---- serialization (the "pickle" analogue) ----
  // Format: u32 count, then per entry: string name, u8 rank, varint dims...,
  // raw little-endian float32 payload.
  Bytes serialize() const;
  static StateDict deserialize(ByteSpan bytes);

 private:
  std::size_t index_of(const std::string& name) const;  // npos if missing
  /// Entry of `other` pairing with this dict's entry i: positional when the
  /// names already line up, else by lookup (throws on a missing name).
  const Tensor& matched_entry(const StateDict& other, std::size_t i) const;
  std::vector<Entry> entries_;
};

}  // namespace fedsz
