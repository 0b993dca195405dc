// Unit + property tests for pim::numeric — matrices, LU, banded LU,
// least squares, regression, optimization, interpolation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "numeric/banded.hpp"
#include "numeric/interp.hpp"
#include "numeric/leastsq.hpp"
#include "numeric/lu.hpp"
#include "numeric/matrix.hpp"
#include "numeric/regression.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pim {
namespace {

TEST(Matrix, MultiplyVector) {
  Matrix a(2, 3);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(0, 2) = 3;
  a(1, 0) = 4;
  a(1, 1) = 5;
  a(1, 2) = 6;
  const Vector y = a.multiply({1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
}

TEST(Matrix, MultiplyMatrixMatchesIdentity) {
  Matrix a(3, 3);
  Rng rng(5);
  for (size_t r = 0; r < 3; ++r)
    for (size_t c = 0; c < 3; ++c) a(r, c) = rng.uniform(-1, 1);
  const Matrix prod = a.multiply(Matrix::identity(3));
  for (size_t r = 0; r < 3; ++r)
    for (size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(prod(r, c), a(r, c));
}

TEST(VectorOps, Norms) {
  EXPECT_DOUBLE_EQ(norm2({3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(dot({1, 2}, {3, 4}), 11.0);
}

// Property: LU solve recovers x from b = A x for random well-conditioned A.
class LuRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(LuRandomTest, SolveRecoversKnownSolution) {
  const int n = GetParam();
  Rng rng(static_cast<uint64_t>(n) * 7919);
  Matrix a(n, n);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
    a(r, r) += n;  // diagonal dominance keeps it well-conditioned
  }
  Vector x_true(n);
  for (int i = 0; i < n; ++i) x_true[i] = rng.uniform(-10.0, 10.0);
  const Vector b = a.multiply(x_true);
  const Vector x = LuDecomposition(a).solve(b);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuRandomTest, ::testing::Values(1, 2, 3, 5, 10, 25, 60));

TEST(Lu, PivotingHandlesZeroDiagonal) {
  Matrix a(2, 2);
  a(0, 0) = 0.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 0.0;
  const Vector x = LuDecomposition(a).solve({2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, SingularThrows) {
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 4.0;
  EXPECT_THROW(LuDecomposition(a).solve({1.0, 1.0}), Error);
}

TEST(Lu, CreateReportsSingularityWithoutThrowing) {
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 4.0;  // rank 1
  const Expected<LuDecomposition> lu = LuDecomposition::create(a);
  ASSERT_FALSE(lu.ok());
  EXPECT_EQ(lu.error().code(), ErrorCode::singular_matrix);
  // The message names the failing pivot column and the retry context.
  EXPECT_NE(std::string(lu.error().what()).find("pivot"), std::string::npos);
  EXPECT_NE(std::string(lu.error().what()).find("equilibration"), std::string::npos);

  const Expected<Vector> x = try_solve_dense(a, {1.0, 1.0});
  EXPECT_FALSE(x.ok());
  EXPECT_EQ(x.error().code(), ErrorCode::singular_matrix);
}

// Property: banded solve agrees with dense solve on random banded systems.
class BandedTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BandedTest, MatchesDense) {
  const auto [n, band] = GetParam();
  Rng rng(static_cast<uint64_t>(n * 31 + band));
  BandedMatrix bm(n, band, band);
  Matrix dense(n, n);  // the same add() entries, densely stored
  const auto add = [&](int r, int c, double v) {
    bm.add(r, c, v);
    dense(r, c) += v;
  };
  for (int r = 0; r < n; ++r) {
    for (int c = std::max(0, r - band); c <= std::min(n - 1, r + band); ++c)
      add(r, c, rng.uniform(-1.0, 1.0));
    add(r, r, 2.0 * band + 3.0);  // diagonal dominance: safe without pivoting
  }
  Vector b(n);
  for (int i = 0; i < n; ++i) b[i] = rng.uniform(-5.0, 5.0);
  const Vector x_band = BandedLu(bm).solve(b);
  const Vector x_dense = LuDecomposition(dense).solve(b);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(x_band[i], x_dense[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Shapes, BandedTest,
                         ::testing::Values(std::make_tuple(1, 0), std::make_tuple(5, 1),
                                           std::make_tuple(20, 2), std::make_tuple(50, 4),
                                           std::make_tuple(120, 7), std::make_tuple(300, 3)));

TEST(Banded, RejectsOutOfBandEntry) {
  BandedMatrix bm(5, 1, 1);
  EXPECT_THROW(bm.add(0, 3, 1.0), Error);
  EXPECT_DOUBLE_EQ(bm.at(0, 3), 0.0);
}

TEST(Banded, MultiplyMatchesDense) {
  BandedMatrix bm(4, 1, 1);
  Matrix dense(4, 4);  // the same add() entries, densely stored
  const auto add = [&](size_t r, size_t c, double v) {
    bm.add(r, c, v);
    dense(r, c) += v;
  };
  add(0, 0, 2.0);
  add(0, 1, -1.0);
  add(1, 0, -1.0);
  add(1, 1, 2.0);
  add(2, 2, 1.5);
  add(3, 3, 1.0);
  const Vector x = {1.0, 2.0, 3.0, 4.0};
  const Vector y_band = bm.multiply(x);
  const Vector y_dense = dense.multiply(x);
  for (size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(y_band[i], y_dense[i]);
}

TEST(LeastSquares, ExactSystemSolvedExactly) {
  Matrix a(2, 2);
  a(0, 0) = 2.0;
  a(0, 1) = 0.0;
  a(1, 0) = 0.0;
  a(1, 1) = 4.0;
  const Vector x = least_squares(a, {2.0, 8.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(LeastSquares, OverdeterminedMinimizesResidual) {
  // y = 3 + 2x with symmetric noise; LS must recover the exact line
  // because the noise is orthogonal to the design by construction.
  Matrix a(4, 2);
  Vector b(4);
  const double xs[4] = {0, 1, 2, 3};
  const double noise[4] = {0.1, -0.1, -0.1, 0.1};
  for (int i = 0; i < 4; ++i) {
    a(i, 0) = 1.0;
    a(i, 1) = xs[i];
    b[i] = 3.0 + 2.0 * xs[i] + noise[i];
  }
  const Vector c = least_squares(a, b);
  EXPECT_NEAR(c[0], 3.0, 0.11);
  EXPECT_NEAR(c[1], 2.0, 0.11);
  // Residual must not exceed the noise norm.
  EXPECT_LE(residual_norm(a, c, b), norm2({0.1, 0.1, 0.1, 0.1}) + 1e-12);
}

TEST(LeastSquares, RankDeficientRecoveredByRegularization) {
  // Duplicate columns: classic rank deficiency. QR fails, the Tikhonov
  // fallback must still return a finite solution whose residual matches
  // the best single-column fit.
  Matrix a(4, 2);
  Vector b(4);
  const double col[] = {1.0, 2.0, 3.0, 4.0};
  for (size_t r = 0; r < 4; ++r) {
    a(r, 0) = col[r];
    a(r, 1) = col[r];
    b[r] = 2.0 * col[r] + ((r % 2 == 0) ? 0.01 : -0.01);
  }
  const Vector x = least_squares(a, b);
  ASSERT_EQ(x.size(), 2u);
  EXPECT_TRUE(std::isfinite(x[0]) && std::isfinite(x[1]));
  // Combined coefficient ~2 (the direction the data determines).
  EXPECT_NEAR(x[0] + x[1], 2.0, 1e-3);

  // Residual must match the well-posed one-column problem's.
  Matrix a1(4, 1);
  for (size_t r = 0; r < 4; ++r) a1(r, 0) = col[r];
  const Vector x1 = least_squares(a1, b);
  EXPECT_NEAR(residual_norm(a, x, b), residual_norm(a1, x1, b), 1e-6);

  const Expected<Vector> rx = try_least_squares(a, b);
  ASSERT_TRUE(rx.ok());
}

TEST(LeastSquares, ExplicitRidgeDampsTowardZero) {
  Matrix a(3, 1);
  Vector b(3);
  for (size_t r = 0; r < 3; ++r) {
    a(r, 0) = 1.0;
    b[r] = 6.0;
  }
  const Expected<Vector> light = least_squares_regularized(a, b, 1e-8);
  const Expected<Vector> heavy = least_squares_regularized(a, b, 10.0);
  ASSERT_TRUE(light.ok());
  ASSERT_TRUE(heavy.ok());
  EXPECT_NEAR(light.value()[0], 6.0, 1e-6);
  EXPECT_LT(heavy.value()[0], 6.0);  // damping shrinks the estimate
}

TEST(LeastSquares, DimensionMismatchRejected) {
  Matrix a(3, 2);
  for (int i = 0; i < 3; ++i) {
    a(i, 0) = 1.0;
    a(i, 1) = 2.0;
  }
  // Historically a rank-deficient system threw here; the regularized
  // fallback now handles it (see RankDeficientRecoveredByRegularization).
  // Caller mistakes still fail fast, and typed.
  try {
    least_squares(a, {1.0, 2.0});  // b has the wrong length
    FAIL() << "expected bad_input";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::bad_input);
  }
  EXPECT_THROW(least_squares(Matrix(2, 3), {1.0, 2.0}), Error);  // rows < cols
}

TEST(Regression, LinearRecoversLine) {
  const Vector x = {1, 2, 3, 4, 5};
  Vector y(5);
  for (size_t i = 0; i < 5; ++i) y[i] = -2.0 + 0.5 * x[i];
  const LinearFit fit = fit_linear(x, y);
  EXPECT_NEAR(fit.intercept, -2.0, 1e-10);
  EXPECT_NEAR(fit.slope, 0.5, 1e-10);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(Regression, ZeroInterceptForcedThroughOrigin) {
  const Vector x = {1, 2, 4};
  const Vector y = {3.1, 5.9, 12.1};  // roughly 3x
  const LinearFit fit = fit_linear_zero_intercept(x, y);
  EXPECT_DOUBLE_EQ(fit.intercept, 0.0);
  EXPECT_NEAR(fit.slope, 3.0, 0.05);
}

TEST(Regression, QuadraticRecoversParabola) {
  Vector x, y;
  for (int i = -5; i <= 5; ++i) {
    x.push_back(i);
    y.push_back(1.0 + 2.0 * i + 0.5 * i * i);
  }
  const PolynomialFit fit = fit_polynomial(x, y, 2);
  ASSERT_EQ(fit.coeff.size(), 3u);
  EXPECT_NEAR(fit.coeff[0], 1.0, 1e-9);
  EXPECT_NEAR(fit.coeff[1], 2.0, 1e-9);
  EXPECT_NEAR(fit.coeff[2], 0.5, 1e-9);
}

TEST(Regression, MultilinearRecoversPlane) {
  // y = 1 + 2 x1 - 3 x2 over a grid.
  std::vector<Vector> xs(2);
  Vector y;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      xs[0].push_back(i);
      xs[1].push_back(j);
      y.push_back(1.0 + 2.0 * i - 3.0 * j);
    }
  }
  const MultiLinearFit fit = fit_multilinear(xs, y);
  ASSERT_EQ(fit.coeff.size(), 3u);
  EXPECT_NEAR(fit.coeff[0], 1.0, 1e-9);
  EXPECT_NEAR(fit.coeff[1], 2.0, 1e-9);
  EXPECT_NEAR(fit.coeff[2], -3.0, 1e-9);
  EXPECT_NEAR(fit.eval({2.0, 1.0}), 2.0, 1e-9);
}

TEST(Regression, Stats) {
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(r_squared({1, 2, 3}, {1, 2, 3}), 1.0);
}

TEST(Interp, LinearInterpolatesAndExtrapolates) {
  const Vector xs = {0.0, 1.0, 2.0};
  const Vector ys = {0.0, 10.0, 40.0};
  EXPECT_DOUBLE_EQ(interp_linear(xs, ys, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(interp_linear(xs, ys, 1.5), 25.0);
  EXPECT_DOUBLE_EQ(interp_linear(xs, ys, 3.0), 70.0);   // extrapolation
  EXPECT_DOUBLE_EQ(interp_linear(xs, ys, -1.0), -10.0); // extrapolation
}

TEST(Interp, Grid2DBilinear) {
  Matrix v(2, 2);
  v(0, 0) = 0.0;
  v(0, 1) = 1.0;
  v(1, 0) = 2.0;
  v(1, 1) = 3.0;
  Grid2D g({0.0, 1.0}, {0.0, 1.0}, v);
  EXPECT_DOUBLE_EQ(g.eval(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(g.eval(1.0, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(g.eval(0.5, 0.5), 1.5);
  // Bilinear surface is exact for the plane z = 2r + c.
  EXPECT_DOUBLE_EQ(g.eval(0.25, 0.75), 2 * 0.25 + 0.75);
}

// Property: polynomial fitting recovers random polynomials exactly when
// the sample count exceeds the degree.
class PolyRecovery : public ::testing::TestWithParam<int> {};

TEST_P(PolyRecovery, RecoversRandomPolynomial) {
  const int degree = GetParam();
  Rng rng(static_cast<uint64_t>(degree) * 1337 + 7);
  Vector coeff(static_cast<size_t>(degree) + 1);
  for (double& c : coeff) c = rng.uniform(-3.0, 3.0);
  Vector x, y;
  for (int i = 0; i <= degree + 5; ++i) {
    const double xi = -1.0 + 2.0 * i / (degree + 5);
    double p = 0.0;
    for (size_t k = coeff.size(); k-- > 0;) p = p * xi + coeff[k];
    x.push_back(xi);
    y.push_back(p);
  }
  const PolynomialFit fit = fit_polynomial(x, y, degree);
  ASSERT_EQ(fit.coeff.size(), coeff.size());
  for (size_t k = 0; k < coeff.size(); ++k)
    EXPECT_NEAR(fit.coeff[k], coeff[k], 1e-7 * (1.0 + std::fabs(coeff[k]))) << k;
  EXPECT_GT(fit.r_squared, 1.0 - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Degrees, PolyRecovery, ::testing::Values(0, 1, 2, 3, 4, 6));

// Property: least squares on noisy data has residual no larger than any
// candidate solution we can construct.
TEST(LeastSquares, ResidualIsMinimalAgainstPerturbations) {
  Rng rng(99);
  Matrix a(12, 3);
  Vector b(12);
  for (size_t r = 0; r < 12; ++r) {
    for (size_t c = 0; c < 3; ++c) a(r, c) = rng.uniform(-2.0, 2.0);
    b[r] = rng.uniform(-5.0, 5.0);
  }
  const Vector x = least_squares(a, b);
  const double best = residual_norm(a, x, b);
  for (int trial = 0; trial < 50; ++trial) {
    Vector y = x;
    for (double& v : y) v += rng.uniform(-0.1, 0.1);
    EXPECT_GE(residual_norm(a, y, b), best - 1e-12);
  }
}

// Property: asymmetric banded systems (kl != ku) agree with dense.
class BandedAsymmetric
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BandedAsymmetric, MatchesDense) {
  const auto [n, kl, ku] = GetParam();
  Rng rng(static_cast<uint64_t>(n * 7 + kl * 3 + ku));
  BandedMatrix bm(n, kl, ku);
  Matrix dense(n, n);  // the same add() entries, densely stored
  const auto add = [&](int r, int c, double v) {
    bm.add(r, c, v);
    dense(r, c) += v;
  };
  for (int r = 0; r < n; ++r) {
    for (int c = std::max(0, r - kl); c <= std::min(n - 1, r + ku); ++c)
      add(r, c, rng.uniform(-1.0, 1.0));
    add(r, r, kl + ku + 3.0);
  }
  Vector b(n);
  for (int i = 0; i < n; ++i) b[i] = rng.uniform(-5.0, 5.0);
  const Vector xb = BandedLu(bm).solve(b);
  const Vector xd = LuDecomposition(dense).solve(b);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(xb[i], xd[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Shapes, BandedAsymmetric,
                         ::testing::Values(std::make_tuple(10, 0, 2),
                                           std::make_tuple(30, 3, 1),
                                           std::make_tuple(50, 1, 5),
                                           std::make_tuple(80, 6, 0)));

TEST(Interp, BadAxisRejected) {
  EXPECT_THROW(interp_linear({1.0, 1.0}, {0.0, 0.0}, 0.5), Error);
  EXPECT_THROW(interp_linear({1.0}, {0.0}, 0.5), Error);
}

// ------------------------------------------- symbolic/numeric LU reuse

// The batched transient engine leans on refactor() being *exactly* the
// fresh factorization (same elimination, same metric/fault draws), so
// these pin bitwise identity, not closeness.

BandedMatrix random_banded(size_t n, size_t band, uint64_t seed) {
  BandedMatrix a(n, band, band);
  Rng rng(seed);
  for (size_t r = 0; r < n; ++r)
    for (size_t c = 0; c < n; ++c)
      if (a.in_band(r, c)) a.add(r, c, r == c ? 8.0 + rng.uniform(0, 1) : rng.uniform(-1, 1));
  return a;
}

TEST(BandedLu, RefactorIsBitwiseIdenticalToFreshFactorization) {
  const size_t n = 24, band = 3;
  BandedLu reused(n, band, band);
  EXPECT_FALSE(reused.factored());
  // Two different value sets through the same symbolic shape: each
  // refactor must match a from-scratch BandedLu on the same matrix.
  for (uint64_t seed : {11u, 12u}) {
    const BandedMatrix a = random_banded(n, band, seed);
    ASSERT_TRUE(reused.refactor(a).ok());
    EXPECT_TRUE(reused.factored());
    const BandedLu fresh(a);
    Rng rng(99 + seed);
    Vector b(n);
    for (double& v : b) v = rng.uniform(-1, 1);
    const Vector x_fresh = fresh.solve(b);
    Vector x_reused = b;
    reused.solve_in_place(x_reused);
    for (size_t i = 0; i < n; ++i)
      EXPECT_EQ(std::memcmp(&x_fresh[i], &x_reused[i], sizeof(double)), 0) << i;
  }
}

TEST(BandedLu, RefactorRejectsShapeMismatchAndBatchedSolveMatches) {
  BandedLu lu(8, 2, 2);
  EXPECT_THROW(lu.refactor(random_banded(8, 1, 5)), Error);
  EXPECT_THROW(lu.refactor(random_banded(9, 2, 5)), Error);

  // Several right-hand sides through one factorization: each in-place
  // solve matches the allocating solve bit-for-bit.
  const BandedMatrix a = random_banded(8, 2, 21);
  ASSERT_TRUE(lu.refactor(a).ok());
  Rng rng(7);
  for (int k = 0; k < 3; ++k) {
    Vector b(8);
    for (double& v : b) v = rng.uniform(-1, 1);
    const Vector solo = lu.solve(b);
    lu.solve_in_place(b);
    for (size_t i = 0; i < 8; ++i) EXPECT_EQ(b[i], solo[i]);
  }
}

}  // namespace
}  // namespace pim
