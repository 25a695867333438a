#include "tensor/state_dict.hpp"

#include <limits>

#include "util/bytebuffer.hpp"

namespace fedsz {

namespace {
constexpr std::size_t kNpos = std::numeric_limits<std::size_t>::max();
}

std::size_t StateDict::index_of(const std::string& name) const {
  for (std::size_t i = 0; i < entries_.size(); ++i)
    if (entries_[i].first == name) return i;
  return kNpos;
}

void StateDict::set(const std::string& name, Tensor tensor) {
  const std::size_t idx = index_of(name);
  if (idx == kNpos)
    entries_.emplace_back(name, std::move(tensor));
  else
    entries_[idx].second = std::move(tensor);
}

bool StateDict::contains(const std::string& name) const {
  return index_of(name) != kNpos;
}

const Tensor& StateDict::get(const std::string& name) const {
  const std::size_t idx = index_of(name);
  if (idx == kNpos) throw InvalidArgument("StateDict: no entry '" + name + "'");
  return entries_[idx].second;
}

Tensor& StateDict::get_mutable(const std::string& name) {
  const std::size_t idx = index_of(name);
  if (idx == kNpos) throw InvalidArgument("StateDict: no entry '" + name + "'");
  return entries_[idx].second;
}

std::size_t StateDict::total_parameters() const {
  std::size_t n = 0;
  for (const auto& [name, tensor] : entries_) n += tensor.numel();
  return n;
}

bool StateDict::equals(const StateDict& other) const {
  if (entries_.size() != other.entries_.size()) return false;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].first != other.entries_[i].first) return false;
    if (!entries_[i].second.equals(other.entries_[i].second)) return false;
  }
  return true;
}

void StateDict::add_scaled(const StateDict& other, float scale) {
  if (entries_.size() != other.entries_.size())
    throw InvalidArgument("StateDict::add_scaled: entry count mismatch");
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].first != other.entries_[i].first)
      throw InvalidArgument("StateDict::add_scaled: name mismatch at index " +
                            std::to_string(i));
    entries_[i].second.add_scaled(other.entries_[i].second, scale);
  }
}

const Tensor& StateDict::matched_entry(const StateDict& other,
                                       std::size_t i) const {
  const Entry& mine = entries_[i];
  if (i < other.entries_.size() && other.entries_[i].first == mine.first)
    return other.entries_[i].second;
  return other.get(mine.first);  // throws on a missing name
}

void StateDict::add_scaled_matched(const StateDict& other, float scale) {
  if (entries_.size() != other.entries_.size())
    throw InvalidArgument("StateDict::add_scaled_matched: entry count mismatch");
  for (std::size_t i = 0; i < entries_.size(); ++i)
    entries_[i].second.add_scaled(matched_entry(other, i), scale);
}

void StateDict::fold_scaled(const StateDict& other, float c) {
  for (std::size_t i = 0; i < entries_.size(); ++i)
    entries_[i].second.fold_scaled(matched_entry(other, i), c);
}

void StateDict::scale(float factor) {
  for (auto& [name, tensor] : entries_) tensor *= factor;
}

StateDict StateDict::reordered_like(const StateDict& reference) const {
  if (entries_.size() != reference.entries_.size())
    throw InvalidArgument("StateDict::reordered_like: entry count mismatch");
  StateDict out;
  for (const auto& [name, tensor] : reference.entries_) {
    (void)tensor;
    out.set(name, get(name));  // get() throws on a missing name
  }
  return out;
}

StateDict StateDict::zeros_like() const {
  StateDict out;
  for (const auto& [name, tensor] : entries_)
    out.set(name, Tensor::zeros(tensor.shape()));
  return out;
}

Bytes StateDict::serialize() const {
  ByteWriter w;
  w.put_u32(static_cast<std::uint32_t>(entries_.size()));
  for (const auto& [name, tensor] : entries_) {
    write_entry_header(w, name, tensor.shape());
    w.put_bytes(as_bytes(tensor.span()));
  }
  return w.finish();
}

void write_entry_header(ByteWriter& w, const std::string& name,
                        const Shape& shape) {
  w.put_string(name);
  w.put_u8(static_cast<std::uint8_t>(shape.size()));
  for (const std::int64_t d : shape)
    w.put_varint(static_cast<std::uint64_t>(d));
}

std::size_t read_stream_shape(ByteReader& r, Shape* shape,
                              const std::string& name) {
  const std::uint8_t rank = r.get_u8();
  shape->clear();
  shape->reserve(rank);
  std::size_t numel = 1;
  for (std::uint8_t d = 0; d < rank; ++d) {
    const std::uint64_t dim = r.get_varint();
    if (dim == 0 ||
        dim > static_cast<std::uint64_t>(
                  std::numeric_limits<std::int64_t>::max()) ||
        numel > std::numeric_limits<std::size_t>::max() / dim)
      throw CorruptStream("invalid tensor shape in stream for " + name);
    numel *= static_cast<std::size_t>(dim);
    shape->push_back(static_cast<std::int64_t>(dim));
  }
  return numel;
}

StateDict StateDict::deserialize(ByteSpan bytes) {
  ByteReader r(bytes);
  const std::uint32_t count = r.get_u32();
  StateDict out;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::string name = r.get_string();
    Shape shape;
    const std::size_t numel = read_stream_shape(r, &shape, name);
    // Every element is stored raw here, so the remaining bytes bound the
    // element count directly — a corrupt header can neither wrap
    // `numel * sizeof(float)` below nor force a huge allocation.
    if (numel > r.remaining() / sizeof(float))
      throw CorruptStream("StateDict: tensor larger than stream for " + name);
    ByteSpan raw = r.get_bytes(numel * sizeof(float));
    std::vector<float> data(numel);
    std::memcpy(data.data(), raw.data(), raw.size());
    out.set(name, Tensor::from_data(std::move(shape), std::move(data)));
  }
  if (!r.done()) throw CorruptStream("StateDict: trailing bytes");
  return out;
}

}  // namespace fedsz
