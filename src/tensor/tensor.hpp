// Row-major N-dimensional float32 tensor. This is the single value type the
// whole stack shares: NN layers hold parameters as Tensors, the FL stack
// exchanges them, and FedSZ compresses their flattened storage — the C++
// analogue of the torch.Tensor entries in a PyTorch state_dict.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <numeric>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace fedsz {

using Shape = std::vector<std::int64_t>;

class Tensor {
 public:
  /// Scalar (rank-0, one element) tensor of value 0.
  Tensor() : shape_{}, data_(1, 0.0f) {}

  /// Zero-filled tensor of the given shape. All dims must be positive.
  explicit Tensor(Shape shape);
  Tensor(std::initializer_list<std::int64_t> shape)
      : Tensor(Shape(shape)) {}

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor full(Shape shape, float value);
  static Tensor from_data(Shape shape, std::vector<float> data);

  const Shape& shape() const { return shape_; }
  std::int64_t dim(std::size_t axis) const;
  std::size_t rank() const { return shape_.size(); }
  std::size_t numel() const { return data_.size(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::vector<float>& storage() { return data_; }
  const std::vector<float>& storage() const { return data_; }
  FloatSpan span() const { return {data_.data(), data_.size()}; }

  float& operator[](std::size_t flat_index) { return data_[flat_index]; }
  float operator[](std::size_t flat_index) const { return data_[flat_index]; }

  /// Multi-index access (rank must match number of indices).
  float& at(std::initializer_list<std::int64_t> idx);
  float at(std::initializer_list<std::int64_t> idx) const;

  /// Same data, new shape; total element count must be preserved.
  Tensor reshaped(Shape new_shape) const;

  // Elementwise in-place helpers used by the optimizer and aggregation.
  void fill(float value);
  Tensor& operator+=(const Tensor& other);
  Tensor& operator-=(const Tensor& other);
  Tensor& operator*=(float scalar);
  void add_scaled(const Tensor& other, float scale);  // this += scale * other
  /// this[k] += c * (other[k] - this[k]) — the West online-mean fold, as one
  /// contiguous kernel over the raw storage (autovectorizable; the inner
  /// loop of StreamingMean::add).
  void fold_scaled(const Tensor& other, float c);

  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }
  /// Bit-exact equality of shape and contents.
  bool equals(const Tensor& other) const;

  std::string shape_string() const;

 private:
  std::size_t flat_offset(std::initializer_list<std::int64_t> idx) const;

  Shape shape_;
  std::vector<float> data_;
};

/// numel for a shape (product of dims); validates positivity.
std::size_t shape_numel(const Shape& shape);

}  // namespace fedsz
