// Tests for the Tensor value type.
#include <gtest/gtest.h>

#include <cmath>

#include "tensor/tensor.hpp"

namespace fedsz {
namespace {

TEST(Tensor, DefaultIsScalarZero) {
  Tensor t;
  EXPECT_EQ(t.rank(), 0u);
  EXPECT_EQ(t.numel(), 1u);
  EXPECT_EQ(t[0], 0.0f);
}

TEST(Tensor, ZerosHasCorrectShapeAndContents) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.rank(), 3u);
  EXPECT_EQ(t.numel(), 24u);
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, NonPositiveDimThrows) {
  EXPECT_THROW(Tensor({2, 0}), InvalidArgument);
  EXPECT_THROW(Tensor({-1}), InvalidArgument);
}

TEST(Tensor, FullFillsValue) {
  Tensor t = Tensor::full({3}, 2.5f);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(t[i], 2.5f);
}

TEST(Tensor, FromDataValidatesSize) {
  EXPECT_NO_THROW(Tensor::from_data({2, 2}, {1, 2, 3, 4}));
  EXPECT_THROW(Tensor::from_data({2, 2}, {1, 2, 3}), InvalidArgument);
}

TEST(Tensor, MultiIndexAccessIsRowMajor) {
  Tensor t = Tensor::from_data({2, 3}, {0, 1, 2, 3, 4, 5});
  EXPECT_EQ(t.at({0, 0}), 0.0f);
  EXPECT_EQ(t.at({0, 2}), 2.0f);
  EXPECT_EQ(t.at({1, 0}), 3.0f);
  EXPECT_EQ(t.at({1, 2}), 5.0f);
  t.at({1, 1}) = 9.0f;
  EXPECT_EQ(t[4], 9.0f);
}

TEST(Tensor, AtValidatesRankAndRange) {
  Tensor t({2, 3});
  EXPECT_THROW(t.at({0}), InvalidArgument);
  EXPECT_THROW(t.at({2, 0}), InvalidArgument);
  EXPECT_THROW((void)t.at({0, 3}), InvalidArgument);
}

TEST(Tensor, DimAccessor) {
  Tensor t({4, 5});
  EXPECT_EQ(t.dim(0), 4);
  EXPECT_EQ(t.dim(1), 5);
  EXPECT_THROW(t.dim(2), InvalidArgument);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t = Tensor::from_data({2, 3}, {0, 1, 2, 3, 4, 5});
  Tensor r = t.reshaped({3, 2});
  EXPECT_EQ(r.rank(), 2u);
  EXPECT_EQ(r.dim(0), 3);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(r[i], t[i]);
  EXPECT_THROW(t.reshaped({5}), InvalidArgument);
}

TEST(Tensor, AddSubScale) {
  Tensor a = Tensor::from_data({3}, {1, 2, 3});
  Tensor b = Tensor::from_data({3}, {10, 20, 30});
  a += b;
  EXPECT_EQ(a[1], 22.0f);
  a -= b;
  EXPECT_EQ(a[1], 2.0f);
  a *= 3.0f;
  EXPECT_EQ(a[2], 9.0f);
}

TEST(Tensor, ElementwiseOpsValidateShape) {
  Tensor a({2}), b({3});
  EXPECT_THROW(a += b, InvalidArgument);
  EXPECT_THROW(a -= b, InvalidArgument);
  EXPECT_THROW(a.add_scaled(b, 1.0f), InvalidArgument);
}

TEST(Tensor, AddScaled) {
  Tensor a = Tensor::from_data({2}, {1, 1});
  Tensor b = Tensor::from_data({2}, {2, 4});
  a.add_scaled(b, 0.5f);
  EXPECT_EQ(a[0], 2.0f);
  EXPECT_EQ(a[1], 3.0f);
}

TEST(Tensor, EqualsIsBitExact) {
  Tensor a = Tensor::from_data({2}, {1.0f, 2.0f});
  Tensor b = Tensor::from_data({2}, {1.0f, 2.0f});
  Tensor c = Tensor::from_data({2}, {1.0f, std::nextafter(2.0f, 3.0f)});
  Tensor d = Tensor::from_data({1, 2}, {1.0f, 2.0f});
  EXPECT_TRUE(a.equals(b));
  EXPECT_FALSE(a.equals(c));
  EXPECT_FALSE(a.equals(d));  // same data, different shape
}

TEST(Tensor, EqualsTellsSignedZerosApart) {
  const Tensor plus = Tensor::from_data({2}, {1.0f, 0.0f});
  const Tensor minus = Tensor::from_data({2}, {1.0f, -0.0f});
  EXPECT_FALSE(plus.equals(minus));
  EXPECT_FALSE(minus.equals(plus));
  EXPECT_TRUE(minus.equals(Tensor::from_data({2}, {1.0f, -0.0f})));
}

TEST(Tensor, EqualsMatchesNaNBits) {
  const float nan = std::nanf("");
  const Tensor a = Tensor::from_data({3}, {nan, 1.0f, -nan});
  const Tensor copy = a;
  EXPECT_TRUE(a.equals(copy));
  // A NaN of another sign is other bits.
  EXPECT_FALSE(a.equals(Tensor::from_data({3}, {nan, 1.0f, nan})));
}

TEST(Tensor, ShapeString) {
  Tensor t({2, 3});
  EXPECT_EQ(t.shape_string(), "[2, 3]");
  EXPECT_EQ(Tensor().shape_string(), "[]");
}

TEST(Tensor, ShapeNumelValidates) {
  EXPECT_EQ(shape_numel({2, 3, 4}), 24u);
  EXPECT_EQ(shape_numel({}), 1u);
  EXPECT_THROW(shape_numel({0}), InvalidArgument);
}

TEST(Tensor, SpanViewsStorage) {
  Tensor t = Tensor::from_data({2}, {5.0f, 6.0f});
  FloatSpan s = t.span();
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0], 5.0f);
  EXPECT_EQ(s[1], 6.0f);
}

}  // namespace
}  // namespace fedsz
