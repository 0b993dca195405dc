#include "numeric/leastsq.hpp"

#include <cmath>

#include "numeric/lu.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace pim {
namespace {

// Householder QR on working copies of [A | b]; returns the solution or a
// singular_matrix error naming the deficient column.
Expected<Vector> qr_solve(const Matrix& a, const Vector& b) {
  const size_t m = a.rows();
  const size_t n = a.cols();
  Matrix r = a;
  Vector y = b;
  for (size_t k = 0; k < n; ++k) {
    // Build the Householder vector for column k below the diagonal.
    double norm = 0.0;
    for (size_t i = k; i < m; ++i) norm += r(i, k) * r(i, k);
    norm = std::sqrt(norm);
    if (!(norm > 1e-300))
      return Error("least_squares: rank-deficient design matrix (column " +
                       std::to_string(k) + " of " + std::to_string(n) + ")",
                   ErrorCode::singular_matrix);
    const double alpha = (r(k, k) >= 0.0) ? -norm : norm;
    Vector v(m - k);
    v[0] = r(k, k) - alpha;
    for (size_t i = k + 1; i < m; ++i) v[i - k] = r(i, k);
    double vtv = 0.0;
    for (double vi : v) vtv += vi * vi;
    if (vtv > 0.0) {
      const double beta = 2.0 / vtv;
      // Apply the reflector to the remaining columns of R.
      for (size_t c = k; c < n; ++c) {
        double proj = 0.0;
        for (size_t i = k; i < m; ++i) proj += v[i - k] * r(i, c);
        proj *= beta;
        for (size_t i = k; i < m; ++i) r(i, c) -= proj * v[i - k];
      }
      // And to the right-hand side.
      double proj = 0.0;
      for (size_t i = k; i < m; ++i) proj += v[i - k] * y[i];
      proj *= beta;
      for (size_t i = k; i < m; ++i) y[i] -= proj * v[i - k];
    }
  }

  // Back-substitute the upper-triangular system R x = y.
  Vector x(n);
  for (size_t ki = n; ki-- > 0;) {
    double acc = y[ki];
    for (size_t c = ki + 1; c < n; ++c) acc -= r(ki, c) * x[c];
    if (!(std::fabs(r(ki, ki)) > 1e-300))
      return Error("least_squares: rank-deficient design matrix (column " +
                       std::to_string(ki) + " of " + std::to_string(n) + ")",
                   ErrorCode::singular_matrix);
    x[ki] = acc / r(ki, ki);
  }
  return x;
}

}  // namespace

Expected<Vector> least_squares_regularized(const Matrix& a, const Vector& b,
                                           double lambda) {
  const size_t m = a.rows();
  const size_t n = a.cols();
  if (!(m >= n && n > 0))
    return Error("least_squares_regularized: need rows >= cols >= 1",
                 ErrorCode::bad_input);
  if (b.size() != m)
    return Error("least_squares_regularized: dimension mismatch", ErrorCode::bad_input);
  // Normal equations with ridge damping: fine here because lambda bounds
  // the conditioning by construction.
  Matrix ata(n, n);
  Vector atb(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (size_t r = 0; r < m; ++r) acc += a(r, i) * a(r, j);
      ata(i, j) = acc;
    }
    ata(i, i) += lambda * lambda;
    double acc = 0.0;
    for (size_t r = 0; r < m; ++r) acc += a(r, i) * b[r];
    atb[i] = acc;
  }
  return try_solve_dense(std::move(ata), atb);
}

namespace {

// least_squares() without the throw: the solution or the error.
Expected<Vector> try_least_squares(const Matrix& a, const Vector& b) {
  PIM_COUNT("numeric.leastsq.solves");
  const size_t m = a.rows();
  const size_t n = a.cols();
  if (!(m >= n && n > 0))
    return Error("least_squares: need rows >= cols >= 1", ErrorCode::bad_input);
  if (b.size() != m)
    return Error("least_squares: dimension mismatch", ErrorCode::bad_input);

  Expected<Vector> direct = qr_solve(a, b);
  if (direct.ok()) return direct;

  // Guardrail: rank-deficient fits retry with Tikhonov damping sized to
  // the matrix scale, so a collapsed predictor column yields a usable
  // (damped) coefficient instead of aborting the whole fit.
  PIM_COUNT("numeric.leastsq.error");
  PIM_COUNT("numeric.leastsq.regularized");
  double frob = 0.0;
  for (size_t r = 0; r < m; ++r)
    for (size_t c = 0; c < n; ++c) frob += a(r, c) * a(r, c);
  const double lambda = 1e-7 * std::max(std::sqrt(frob), 1e-300);
  return least_squares_regularized(a, b, lambda)
      .with_context("retrying the rank-deficient system with Tikhonov "
                    "regularization (lambda = " +
                    std::to_string(lambda) + "): " + direct.error().message());
}

}  // namespace

Vector least_squares(const Matrix& a, const Vector& b) {
  return try_least_squares(a, b).take();
}

}  // namespace pim
