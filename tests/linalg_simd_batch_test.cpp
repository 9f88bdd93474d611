// Per-lane differential suite for the batched SIMD kernel layer
// (linalg/simd_batch.hpp, linalg/batch_kernels.hpp) and the batch front
// end built on it (sim::detail::settle_batch, which the dwell/wait sweep
// runs).
//
// The layer's contract is BIT-identity per lane to the scalar kernels, so
// every comparison here is on exact bit patterns — including NaN payloads
// and signed zeros, which EXPECT_EQ on doubles cannot see (NaN != NaN,
// -0.0 == +0.0); we compare the raw 64-bit representations instead.
// Sizes run 1..12 (crossing the inline -> heap storage boundary of
// Matrix/Vector), batches run ragged (1..kSimdWidth lanes).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <vector>

#include "linalg/batch_kernels.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "linalg/simd_batch.hpp"
#include "linalg/vector.hpp"
#include "plants/servo_motor.hpp"
#include "sim/settling.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using namespace cps;
using namespace cps::linalg;

constexpr std::size_t W = kSimdWidth;

std::uint64_t bits_of(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

void expect_same_bits(double a, double b, const char* what) {
  EXPECT_EQ(bits_of(a), bits_of(b)) << what << ": " << a << " vs " << b;
}

Matrix random_matrix(Rng& rng, std::size_t rows, std::size_t cols, bool sprinkle_zeros = true) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      m(i, j) = (sprinkle_zeros && rng.bernoulli(0.2)) ? 0.0 : rng.uniform(-2.0, 2.0);
  return m;
}

// ---------------------------------------------------------------------------
// simd_batch value-type semantics.

TEST(SimdBatch, WidthAndIsaAgree) {
  EXPECT_GE(kSimdWidth, 2u);
  EXPECT_STREQ(simd_isa_name(), kSimdIsaName);
}

TEST(SimdBatch, LoadStoreRoundTripsBits) {
  double src[W], dst[W];
  src[0] = -0.0;
  src[1] = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t i = 2; i < W; ++i) src[i] = 1.25 * static_cast<double>(i);
  DoubleBatch::load(src).store(dst);
  for (std::size_t i = 0; i < W; ++i) expect_same_bits(src[i], dst[i], "roundtrip");
}

TEST(SimdBatch, MultiplyAddUsesTwoRoundings) {
  // Pick operands where fma(a, b, acc) != acc + a * b so a fused path
  // would be caught: a*b rounds away the low-order part that an FMA keeps.
  const double a = 1.0 + 0x1p-30, b = 1.0 + 0x1p-30, acc = -1.0 - 0x1p-29;
  const double two_rounding = acc + (a * b);
  const double fused = std::fma(a, b, acc);
  ASSERT_NE(bits_of(two_rounding), bits_of(fused)) << "probe operands too benign";
  double out[W];
  DoubleBatch::multiply_add(DoubleBatch::broadcast(a), DoubleBatch::broadcast(b),
                            DoubleBatch::broadcast(acc))
      .store(out);
  for (std::size_t i = 0; i < W; ++i) expect_same_bits(out[i], two_rounding, "multiply_add");
}

TEST(SimdBatch, SqrtIsCorrectlyRoundedPerLane) {
  Rng rng(0x51237ULL);
  for (int trial = 0; trial < 64; ++trial) {
    double src[W], out[W];
    for (std::size_t i = 0; i < W; ++i) src[i] = rng.uniform(0.0, 100.0);
    DoubleBatch::sqrt(DoubleBatch::load(src)).store(out);
    for (std::size_t i = 0; i < W; ++i) expect_same_bits(out[i], std::sqrt(src[i]), "sqrt");
  }
}

// ---------------------------------------------------------------------------
// The batched shared-matrix matvec vs its scalar counterpart.

TEST(BatchKernels, ApplySharedMatchesScalarPerLane) {
  Rng rng(0x54A3EDULL);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(0, 11));
    const Matrix a = random_matrix(rng, n, n);
    std::vector<Vector> xs;
    BatchVec bx(n), bout(n);
    for (std::size_t l = 0; l < W; ++l) {
      Vector x(n);
      for (std::size_t i = 0; i < n; ++i) x[i] = rng.uniform(-2.0, 2.0);
      xs.push_back(x);
      bx.load_lane(l, xs[l].data());
    }
    batch_apply_shared_into(a, bx, bout);
    for (std::size_t l = 0; l < W; ++l) {
      Vector expected, got(n);
      apply_into(a, xs[l], expected);
      bout.store_lane(l, got.data());
      for (std::size_t i = 0; i < n; ++i)
        expect_same_bits(got[i], expected[i], "batch_apply_shared_into");
    }
  }
}

TEST(BatchKernels, ApplySharedRejectsAliasAndMismatch) {
  const Matrix a(2, 2, 1.0);
  BatchVec x(2), out;
  EXPECT_THROW(batch_apply_shared_into(a, x, x), InvalidArgument);
  BatchVec wrong(3);
  EXPECT_THROW(batch_apply_shared_into(a, wrong, out), DimensionMismatch);
}

// ---------------------------------------------------------------------------
// Batched settle front end (the dwell/wait sweep's TT settles).

TEST(BatchFrontEnds, SettleBatchMatchesSettleInPlacePerLane) {
  const auto design = plants::design_servo_loops();
  const Matrix& a = design.a_tt;
  const std::size_t dim = a.rows();
  sim::SettlingOptions opts;
  opts.threshold = 0.1;
  Rng rng(0x5E77ULL);
  for (std::size_t active = 1; active <= W; ++active) {
    std::vector<std::vector<double>> x0s;
    for (std::size_t l = 0; l < W; ++l) {
      std::vector<double> x(dim);
      for (std::size_t i = 0; i < dim; ++i) x[i] = rng.uniform(-3.0, 3.0);
      x0s.push_back(x);
    }
    BatchVec state(dim), scratch(dim);
    for (std::size_t l = 0; l < W; ++l) state.load_lane(l, x0s[l].data());
    std::optional<std::size_t> results[W];
    sim::detail::settle_batch(a, state, scratch, design.state_dim, opts, active, results);
    for (std::size_t l = 0; l < active; ++l) {
      std::vector<double> s = x0s[l], sc;
      const auto expected =
          sim::detail::settle_in_place(a, s, sc, design.state_dim, opts);
      EXPECT_EQ(results[l], expected) << "lane " << l << " active " << active;
    }
  }
}

TEST(BatchFrontEnds, SettleBatchReportsNulloptAtTheCapLikeScalar) {
  const auto design = plants::design_servo_loops();
  const Matrix& a = design.a_et;  // slow loop + tiny threshold: hits the cap
  const std::size_t dim = a.rows();
  sim::SettlingOptions opts;
  opts.threshold = 1e-12;
  opts.max_steps = 200;
  BatchVec state(dim), scratch(dim);
  std::vector<double> x0(dim, 1.0);
  for (std::size_t l = 0; l < W; ++l) state.load_lane(l, x0.data());
  std::optional<std::size_t> results[W];
  sim::detail::settle_batch(a, state, scratch, design.state_dim, opts, W, results);
  std::vector<double> s = x0, sc;
  const auto expected = sim::detail::settle_in_place(a, s, sc, design.state_dim, opts);
  EXPECT_FALSE(expected.has_value());
  for (std::size_t l = 0; l < W; ++l) EXPECT_EQ(results[l], expected);
}

}  // namespace
