// Tests for the error-bounded linear quantizer and ErrorBound semantics.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "compress/lossy/error_bound.hpp"
#include "compress/lossy/quantizer.hpp"
#include "util/rng.hpp"

namespace fedsz::lossy {
namespace {

TEST(Quantizer, ZeroResidualMapsToCenter) {
  const LinearQuantizer q(0.01);
  const std::uint32_t code = q.quantize(0.0);
  EXPECT_EQ(code, q.radius());
  EXPECT_EQ(q.reconstruct(code), 0.0);
}

TEST(Quantizer, ReconstructionWithinEps) {
  const double eps = 0.01;
  const LinearQuantizer q(eps);
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double r = rng.uniform(-1.0, 1.0);
    const std::uint32_t code = q.quantize(r);
    ASSERT_NE(code, LinearQuantizer::kUnpredictable);
    EXPECT_LE(std::fabs(q.reconstruct(code) - r), eps * (1 + 1e-12));
  }
}

TEST(Quantizer, OutOfRangeResidualIsUnpredictable) {
  const LinearQuantizer q(1e-9);
  EXPECT_EQ(q.quantize(1.0), LinearQuantizer::kUnpredictable);
  EXPECT_EQ(q.quantize(-1.0), LinearQuantizer::kUnpredictable);
}

TEST(Quantizer, BoundaryResidualsStayInCodeRange) {
  const double eps = 0.5;
  const LinearQuantizer q(eps, 16);
  for (double r = -20.0; r <= 20.0; r += 0.25) {
    const std::uint32_t code = q.quantize(r);
    if (code != LinearQuantizer::kUnpredictable) {
      EXPECT_GE(code, 1u);
      EXPECT_LT(code, 32u);
      EXPECT_LE(std::fabs(q.reconstruct(code) - r), eps * (1 + 1e-12));
    }
  }
}

TEST(Quantizer, DegenerateEpsTreatsAllAsUnpredictable) {
  const LinearQuantizer q(0.0);  // clamped internally
  EXPECT_EQ(q.quantize(0.5), LinearQuantizer::kUnpredictable);
  EXPECT_NE(q.quantize(0.0), LinearQuantizer::kUnpredictable);
}

TEST(Quantizer, InvalidRadiusThrows) {
  // Invalid-code checking moved out of the reconstruct hot loop: the decode
  // paths validate entropy-decoded codes against the radius up front (see
  // the sz2/sz3 corrupt-code tests), so reconstruct itself only carries a
  // debug assert and the constructor remains the only throwing entry point.
  EXPECT_THROW(LinearQuantizer(0.1, 1), InvalidArgument);
  // quantize_line computes codes up to 2*radius in int32.
  EXPECT_THROW(LinearQuantizer(0.1, 1u << 30), InvalidArgument);
  EXPECT_NO_THROW(LinearQuantizer(0.1, (1u << 30) - 1));
}

TEST(Quantizer, LineLoopsMatchPerElementQuantizer) {
  // quantize_line/reconstruct_line against quantize()/reconstruct() one
  // element at a time, at radii where the out-of-range code 2*radius sits
  // right above the valid ones, with residuals on +-0.5-bin ties, at the
  // range edge and far outside it.
  Rng rng(11);
  std::vector<double> index(300);
  for (std::size_t i = 0; i < index.size(); ++i)
    index[i] = static_cast<double>(i);
  for (const std::uint32_t radius :
       {2u, 16u, LinearQuantizer::kDefaultRadius}) {
    for (const double eps : {0.125, 1e-3}) {
      const LinearQuantizer q(eps, radius);
      // At eps 0.125 the line and the residuals are dyadic, so x holds
      // them exactly and every third residual is an exact +-0.5-bin tie.
      const bool exact = eps == 0.125;
      const double intercept =
          exact ? (static_cast<double>(rng.uniform_index(17)) - 8.0) / 8.0
                : rng.uniform(-1.0, 1.0);
      const double slope =
          exact ? (static_cast<double>(rng.uniform_index(9)) - 4.0) / 1024.0
                : rng.uniform(-1e-3, 1e-3);
      const std::size_t n = 1 + rng.uniform_index(index.size());
      std::vector<float> x(n);
      for (std::size_t i = 0; i < n; ++i) {
        // Every third residual sits on a tie, some of them out of range.
        const double bins =
            i % 3 == 0 ? std::round(rng.uniform(-1.5, 1.5) * radius) + 0.5
                       : rng.uniform(-1.2, 1.2) * radius;
        x[i] = static_cast<float>(intercept + slope * index[i] +
                                  bins * 2.0 * eps);
      }
      std::vector<std::uint32_t> codes(n);
      std::vector<float> verbatim;
      q.quantize_line({x.data(), n}, index.data(), intercept, slope,
                      codes.data(), verbatim);
      std::vector<float> expected_verbatim;
      for (std::size_t i = 0; i < n; ++i) {
        const double pred = intercept + slope * index[i];
        const std::uint32_t code =
            q.quantize(static_cast<double>(x[i]) - pred);
        ASSERT_EQ(codes[i], code) << "radius=" << radius << " i=" << i;
        if (code == LinearQuantizer::kUnpredictable)
          expected_verbatim.push_back(x[i]);
      }
      EXPECT_EQ(verbatim, expected_verbatim);
      std::vector<float> out(n);
      q.reconstruct_line({codes.data(), n}, index.data(), intercept, slope,
                         out.data());
      for (std::size_t i = 0; i < n; ++i) {
        if (codes[i] == LinearQuantizer::kUnpredictable) continue;
        const double pred = intercept + slope * index[i];
        ASSERT_EQ(out[i], static_cast<float>(pred + q.reconstruct(codes[i])))
            << "radius=" << radius << " i=" << i;
      }
    }
  }
}

TEST(Quantizer, PrecomputedStepMatchesHistoricalExpression) {
  // reconstruct() multiplies by a precomputed step = 2*eps; the historical
  // expression was (bin * 2.0) * eps. Both round the same exact product, so
  // every valid code must reconstruct bit-identically.
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double eps = std::exp(rng.uniform(-20.0, 2.0));
    const LinearQuantizer q(eps);
    const std::uint32_t code =
        1 + static_cast<std::uint32_t>(rng.uniform_index(2 * q.radius() - 1));
    const auto bin =
        static_cast<std::int64_t>(code) - static_cast<std::int64_t>(q.radius());
    const double historical = static_cast<double>(bin) * 2.0 * eps;
    EXPECT_EQ(q.reconstruct(code), historical);
  }
}

TEST(Quantizer, NegativePositiveSymmetry) {
  const LinearQuantizer q(0.05);
  const auto pos = q.quantize(0.123);
  const auto neg = q.quantize(-0.123);
  EXPECT_EQ(static_cast<std::int64_t>(pos) - q.radius(),
            -(static_cast<std::int64_t>(neg) - q.radius()));
}

TEST(ErrorBoundTest, AbsoluteModePassesThrough) {
  const std::vector<float> data{0.0f, 10.0f};
  EXPECT_DOUBLE_EQ(
      ErrorBound::absolute(0.5).absolute_for({data.data(), data.size()}), 0.5);
}

TEST(ErrorBoundTest, RelativeModeScalesByRange) {
  const std::vector<float> data{-1.0f, 3.0f};  // range 4
  EXPECT_DOUBLE_EQ(
      ErrorBound::relative(0.01).absolute_for({data.data(), data.size()}),
      0.04);
}

TEST(ErrorBoundTest, ConstantDataGivesZeroRelativeEps) {
  const std::vector<float> data(10, 2.0f);
  EXPECT_DOUBLE_EQ(
      ErrorBound::relative(0.01).absolute_for({data.data(), data.size()}),
      0.0);
}

TEST(ErrorBoundTest, InvalidValuesThrow) {
  const std::vector<float> data{0.0f, 1.0f};
  EXPECT_THROW(
      ErrorBound::relative(0.0).absolute_for({data.data(), data.size()}),
      InvalidArgument);
  EXPECT_THROW(
      ErrorBound::absolute(-1.0).absolute_for({data.data(), data.size()}),
      InvalidArgument);
  EXPECT_THROW(ErrorBound::relative(
                   std::numeric_limits<double>::infinity())
                   .validate(),
               InvalidArgument);
}

}  // namespace
}  // namespace fedsz::lossy
