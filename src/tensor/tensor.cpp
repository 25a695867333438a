#include "tensor/tensor.hpp"

#include <cstring>
#include <sstream>

namespace fedsz {

std::size_t shape_numel(const Shape& shape) {
  std::size_t n = 1;
  for (const std::int64_t d : shape) {
    if (d <= 0) throw InvalidArgument("Tensor: dims must be positive");
    n *= static_cast<std::size_t>(d);
  }
  return n;
}

Tensor::Tensor(Shape shape) : shape_(std::move(shape)) {
  data_.assign(shape_numel(shape_), 0.0f);
}

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::from_data(Shape shape, std::vector<float> data) {
  if (shape_numel(shape) != data.size())
    throw InvalidArgument("Tensor::from_data: shape/data size mismatch");
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_ = std::move(data);
  return t;
}

std::int64_t Tensor::dim(std::size_t axis) const {
  if (axis >= shape_.size())
    throw InvalidArgument("Tensor::dim: axis out of range");
  return shape_[axis];
}

std::size_t Tensor::flat_offset(
    std::initializer_list<std::int64_t> idx) const {
  if (idx.size() != shape_.size())
    throw InvalidArgument("Tensor::at: rank mismatch");
  std::size_t offset = 0;
  std::size_t axis = 0;
  for (const std::int64_t i : idx) {
    if (i < 0 || i >= shape_[axis])
      throw InvalidArgument("Tensor::at: index out of range");
    offset = offset * static_cast<std::size_t>(shape_[axis]) +
             static_cast<std::size_t>(i);
    ++axis;
  }
  return offset;
}

float& Tensor::at(std::initializer_list<std::int64_t> idx) {
  return data_[flat_offset(idx)];
}

float Tensor::at(std::initializer_list<std::int64_t> idx) const {
  return data_[flat_offset(idx)];
}

Tensor Tensor::reshaped(Shape new_shape) const {
  if (shape_numel(new_shape) != numel())
    throw InvalidArgument("Tensor::reshaped: element count mismatch");
  return Tensor::from_data(std::move(new_shape), data_);
}

void Tensor::fill(float value) {
  for (auto& v : data_) v = value;
}

Tensor& Tensor::operator+=(const Tensor& other) {
  if (!same_shape(other)) throw InvalidArgument("Tensor +=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& other) {
  if (!same_shape(other)) throw InvalidArgument("Tensor -=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(float scalar) {
  for (auto& v : data_) v *= scalar;
  return *this;
}

void Tensor::add_scaled(const Tensor& other, float scale) {
  if (!same_shape(other))
    throw InvalidArgument("Tensor::add_scaled: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i)
    data_[i] += scale * other.data_[i];
}

void Tensor::fold_scaled(const Tensor& other, float c) {
  if (!same_shape(other))
    throw InvalidArgument("Tensor::fold_scaled: shape mismatch");
  float* dst = data_.data();
  const float* src = other.data_.data();
  const std::size_t n = data_.size();
  for (std::size_t i = 0; i < n; ++i) dst[i] += c * (src[i] - dst[i]);
}

bool Tensor::equals(const Tensor& other) const {
  // Bytes, not float ==: +0 and -0 differ, and a NaN equals its own bits.
  return shape_ == other.shape_ &&
         (data_.empty() || std::memcmp(data_.data(), other.data_.data(),
                                       data_.size() * sizeof(float)) == 0);
}

std::string Tensor::shape_string() const {
  std::ostringstream out;
  out << '[';
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i) out << ", ";
    out << shape_[i];
  }
  out << ']';
  return out.str();
}

}  // namespace fedsz
