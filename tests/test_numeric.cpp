// Unit + property tests for pim::numeric — matrices, LU, banded LU,
// least squares, regression, optimization, interpolation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "numeric/banded.hpp"
#include "numeric/interp.hpp"
#include "numeric/leastsq.hpp"
#include "numeric/lu.hpp"
#include "numeric/matrix.hpp"
#include "numeric/regression.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/rng.hpp"

namespace pim {
namespace {

// A x, for the least-squares checks below.
Vector matvec(const Matrix& a, const Vector& x) {
  Vector y(a.rows(), 0.0);
  for (size_t r = 0; r < a.rows(); ++r)
    for (size_t c = 0; c < a.cols(); ++c) y[r] += a(r, c) * x[c];
  return y;
}

// ||A x - b||_2.
double residual_norm(const Matrix& a, const Vector& x, const Vector& b) {
  const Vector ax = matvec(a, x);
  double acc = 0.0;
  for (size_t i = 0; i < b.size(); ++i) acc += (ax[i] - b[i]) * (ax[i] - b[i]);
  return std::sqrt(acc);
}

TEST(Matrix, MultiplyVector) {
  Matrix a(2, 3);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(0, 2) = 3;
  a(1, 0) = 4;
  a(1, 1) = 5;
  a(1, 2) = 6;
  const Vector y = matvec(a, {1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
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
  const Vector b = matvec(a, x_true);
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
  EXPECT_LE(residual_norm(a, c, b), 0.2 + 1e-12);  // ||noise||_2
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
  EXPECT_THROW(Grid2D({1.0, 1.0}, {0.0, 1.0}, Matrix(2, 2)), Error);
  EXPECT_THROW(Grid2D({0.0, 1.0}, {1.0}, Matrix(2, 1)), Error);
}

// ------------------------------------------- lane-interleaved cohort kernel

// The batched transient engine factors and solves its lanes through
// BandedCohort, so every lane must reproduce a solo BandedLu bit for bit:
// these compare bytes, not closeness.

BandedMatrix random_banded(size_t n, size_t kl, size_t ku, Rng& rng) {
  BandedMatrix a(n, kl, ku);
  for (size_t r = 0; r < n; ++r)
    for (size_t c = r > kl ? r - kl : 0; c <= std::min(n - 1, r + ku); ++c)
      a.add(r, c, r == c ? 2.0 * (kl + ku) + 1.0 + rng.uniform(0, 1) : rng.uniform(-1, 1));
  return a;
}

// A cohort loaded with one system per lane, interleaved.
BandedCohort make_cohort(const std::vector<BandedMatrix>& a, const std::vector<Vector>& b) {
  const size_t n = a[0].size(), kl = a[0].lower(), ku = a[0].upper(), lanes = a.size();
  BandedCohort cohort(n, kl, ku);
  cohort.set_lanes(lanes);
  for (size_t l = 0; l < lanes; ++l) {
    for (size_t s = 0; s < n * (kl + ku + 1); ++s) cohort.value(s, l) = 0.0;
    for (size_t r = 0; r < n; ++r) {
      for (size_t c = r > kl ? r - kl : 0; c <= std::min(n - 1, r + ku); ++c)
        cohort.value(band_slot(r, c, kl, ku), l) = a[l].at(r, c);
      cohort.rhs(r, l) = b[l][r];
    }
  }
  return cohort;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Factors and solves every lane of `cohort`; expects each lane to hold
// the bytes of BandedLu(a[l]).solve(b[l]).
void expect_lanes_match_solo(BandedCohort& cohort, const std::vector<BandedMatrix>& a,
                             const std::vector<Vector>& b) {
  const size_t lanes = a.size();
  std::vector<unsigned char> active(lanes, 1);
  cohort.factor(active);
  cohort.solve(active);
  for (size_t l = 0; l < lanes; ++l) {
    ASSERT_TRUE(active[l]) << "lane " << l;
    const Vector solo = BandedLu(a[l]).solve(b[l]);
    for (size_t r = 0; r < solo.size(); ++r)
      ASSERT_TRUE(same_bits(cohort.rhs(r, l), solo[r]))
          << "lane " << l << " of " << lanes << ", row " << r << ": " << cohort.rhs(r, l)
          << " vs " << solo[r];
  }
}

TEST(BandedCohort, RandomShapesMatchBandedLuBitForBit) {
  struct Shape {
    size_t n, kl, ku;
  };
  // The composition shapes first: the coupled bundle (35 and 140 rows at
  // half-bandwidth 5) and the shielded line (7 and 28 rows at 1).
  std::vector<Shape> shapes = {{35, 5, 5}, {140, 5, 5}, {7, 1, 1}, {28, 1, 1}, {1, 0, 0}};
  Rng pick(2026);
  for (int i = 0; i < 40; ++i)
    shapes.push_back({1 + pick.next_below(140), pick.next_below(7), pick.next_below(7)});
  for (const Shape& shape : shapes) {
    for (size_t lanes = 1; lanes <= 5; ++lanes) {
      SCOPED_TRACE(testing::Message() << "n " << shape.n << " kl " << shape.kl << " ku "
                                      << shape.ku << " lanes " << lanes);
      Rng rng(shape.n * 131 + shape.kl * 17 + shape.ku * 3 + lanes);
      std::vector<BandedMatrix> a;
      std::vector<Vector> b;
      for (size_t l = 0; l < lanes; ++l) {
        a.push_back(random_banded(shape.n, shape.kl, shape.ku, rng));
        b.emplace_back(shape.n);
        for (double& v : b.back()) v = rng.uniform(-1, 1);
      }
      BandedCohort cohort = make_cohort(a, b);
      expect_lanes_match_solo(cohort, a, b);
    }
  }
}

// Lane 0 of a pair skips updates that lane 1 performs. With an inf in
// lane 0's upper rows, an unconditional `old - 0 * inf` would turn an
// entry into a NaN (and a NaN pivot makes the lane singular).
TEST(BandedCohort, ZeroFactorInOneLaneOnlyKeepsThatLanesBits) {
  for (size_t band : {size_t{1}, size_t{2}, size_t{5}}) {
    const size_t n = 3 * band + 4;
    SCOPED_TRACE(testing::Message() << "half-bandwidth " << band);
    Rng rng(5 + band);
    BandedMatrix quiet(n, band, band);
    for (size_t r = 0; r < n; ++r) quiet.add(r, r, 4.0);
    quiet.add(0, 1, std::numeric_limits<double>::infinity());
    quiet.add(band + 1, band + 2, -std::numeric_limits<double>::infinity());
    std::vector<BandedMatrix> a = {quiet, random_banded(n, band, band, rng)};
    std::vector<Vector> b(2, Vector(n));
    for (auto& lane : b)
      for (double& v : lane) v = rng.uniform(-1, 1);
    BandedCohort cohort = make_cohort(a, b);
    expect_lanes_match_solo(cohort, a, b);
  }
}

// Lane 0's right-hand side is zero where lane 1's is not. Its forward
// substitution must skip those columns: with L(2, 0) < 0, an
// unconditional `-0.0 - L(2, 0) * 0.0` would turn its -0.0 into +0.0.
TEST(BandedCohort, ZeroRhsEntryInOneLaneOnlyKeepsSignedZeros) {
  const size_t n = 6, band = 2;
  Rng rng(9);
  BandedMatrix lower(n, band, band);
  for (size_t r = 0; r < n; ++r) lower.add(r, r, 3.0);
  lower.add(2, 0, -1.0);
  lower.add(1, 0, 0.5);
  std::vector<BandedMatrix> a = {lower, random_banded(n, band, band, rng)};
  std::vector<Vector> b = {{0.0, 0.0, -0.0, 0.0, 0.0, 0.0}, Vector(n)};
  for (double& v : b[1]) v = rng.uniform(-1, 1);
  const double inf = std::numeric_limits<double>::infinity();
  BandedCohort cohort = make_cohort(a, b);
  expect_lanes_match_solo(cohort, a, b);
  EXPECT_TRUE(std::signbit(BandedLu(a[0]).solve(b[0])[2]));

  // An inf in one lane's right-hand side stays in that lane.
  b[1][3] = inf;
  cohort = make_cohort(a, b);
  expect_lanes_match_solo(cohort, a, b);
  b[0][1] = inf;
  b[1][3] = 0.25;
  cohort = make_cohort(a, b);
  expect_lanes_match_solo(cohort, a, b);
}

// A zero pivot fails only its own lane, whichever position of the pair
// or the one-lane tail it sits in; every other lane matches its solo run.
TEST(BandedCohort, ZeroPivotFailsOnlyItsLane) {
  const size_t n = 12, band = 3;
  for (size_t bad = 0; bad < 3; ++bad) {
    SCOPED_TRACE(testing::Message() << "singular lane " << bad);
    Rng rng(77 + bad);
    std::vector<BandedMatrix> a;
    std::vector<Vector> b;
    for (size_t l = 0; l < 3; ++l) {
      a.push_back(random_banded(n, band, band, rng));
      b.emplace_back(n);
      for (double& v : b.back()) v = rng.uniform(-1, 1);
    }
    BandedMatrix singular(n, band, band);
    for (size_t r = 0; r < n; ++r)
      if (r != 6) singular.add(r, r, 2.0);
    a[bad] = singular;
    try {
      BandedLu solo(singular);
      FAIL() << "BandedLu accepted a zero pivot";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::singular_matrix);
    }
    BandedCohort cohort = make_cohort(a, b);
    std::vector<unsigned char> active(3, 1);
    cohort.factor(active);
    cohort.solve(active);
    for (size_t l = 0; l < 3; ++l) {
      EXPECT_EQ(active[l] != 0, l != bad) << "lane " << l;
      if (l == bad) continue;
      const Vector solo = BandedLu(a[l]).solve(b[l]);
      for (size_t r = 0; r < n; ++r)
        EXPECT_TRUE(same_bits(cohort.rhs(r, l), solo[r])) << "lane " << l << " row " << r;
    }
  }
}

// An inactive lane is neither factored nor counted, and the lu.singular
// fault draws once per active lane in lane order: the same draws a
// BandedLu per active lane makes under the same seed.
TEST(BandedCohort, FaultDrawsAreOnePerActiveLaneInLaneOrder) {
  const size_t n = 10, band = 2, lanes = 5;
  Rng rng(3);
  std::vector<BandedMatrix> a;
  std::vector<Vector> b;
  for (size_t l = 0; l < lanes; ++l) {
    a.push_back(random_banded(n, band, band, rng));
    b.emplace_back(n, 1.0);
  }
  const std::vector<unsigned char> armed = {1, 0, 1, 1, 1};

  fault::configure("lu.singular:0.5:11");
  std::vector<bool> solo_ok;
  for (size_t l = 0; l < lanes; ++l) {
    if (!armed[l]) {
      solo_ok.push_back(false);
      continue;
    }
    try {
      BandedLu lu(a[l]);
      solo_ok.push_back(true);
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::singular_matrix);
      solo_ok.push_back(false);
    }
  }
  const int64_t solo_fired = fault::fired_count(fault::kLuSingular);

  fault::configure("lu.singular:0.5:11");
  BandedCohort cohort = make_cohort(a, b);
  std::vector<unsigned char> active = armed;
  cohort.factor(active);
  fault::clear();
  EXPECT_GT(solo_fired, 0);
  EXPECT_LT(solo_fired, 4);
  for (size_t l = 0; l < lanes; ++l) EXPECT_EQ(active[l] != 0, solo_ok[l]) << "lane " << l;
}

}  // namespace
}  // namespace pim
