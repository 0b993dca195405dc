#include "numeric/regression.hpp"

#include <cmath>

#include "numeric/leastsq.hpp"
#include "util/error.hpp"

namespace pim {

double PolynomialFit::eval(double x) const {
  double acc = 0.0;
  for (size_t i = coeff.size(); i-- > 0;) acc = acc * x + coeff[i];
  return acc;
}

double MultiLinearFit::eval(const std::vector<double>& x) const {
  require(x.size() + 1 == coeff.size(), "MultiLinearFit::eval: arity mismatch");
  double acc = coeff[0];
  for (size_t i = 0; i < x.size(); ++i) acc += coeff[i + 1] * x[i];
  return acc;
}

LinearFit fit_linear(const Vector& x, const Vector& y) {
  require(x.size() == y.size(), "fit_linear: size mismatch");
  require(x.size() >= 2, "fit_linear: need at least two points");
  Matrix a(x.size(), 2);
  for (size_t i = 0; i < x.size(); ++i) {
    a(i, 0) = 1.0;
    a(i, 1) = x[i];
  }
  const Vector c = least_squares(a, y);
  LinearFit fit;
  fit.intercept = c[0];
  fit.slope = c[1];
  Vector pred(x.size());
  for (size_t i = 0; i < x.size(); ++i) pred[i] = fit.eval(x[i]);
  fit.r_squared = r_squared(pred, y);
  return fit;
}

LinearFit fit_linear_zero_intercept(const Vector& x, const Vector& y) {
  require(x.size() == y.size(), "fit_linear_zero_intercept: size mismatch");
  require(!x.empty(), "fit_linear_zero_intercept: need at least one point");
  double xty = 0.0;
  double xtx = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    xty += x[i] * y[i];
    xtx += x[i] * x[i];
  }
  require(xtx > 0.0, "fit_linear_zero_intercept: degenerate predictor");
  LinearFit fit;
  fit.intercept = 0.0;
  fit.slope = xty / xtx;
  Vector pred(x.size());
  for (size_t i = 0; i < x.size(); ++i) pred[i] = fit.eval(x[i]);
  fit.r_squared = r_squared(pred, y);
  return fit;
}

PolynomialFit fit_polynomial(const Vector& x, const Vector& y, int degree) {
  require(degree >= 0, "fit_polynomial: degree must be non-negative");
  require(x.size() == y.size(), "fit_polynomial: size mismatch");
  require(x.size() > static_cast<size_t>(degree), "fit_polynomial: not enough points");
  Matrix a(x.size(), static_cast<size_t>(degree) + 1);
  for (size_t i = 0; i < x.size(); ++i) {
    double p = 1.0;
    for (int d = 0; d <= degree; ++d) {
      a(i, static_cast<size_t>(d)) = p;
      p *= x[i];
    }
  }
  PolynomialFit fit;
  fit.coeff = least_squares(a, y);
  Vector pred(x.size());
  for (size_t i = 0; i < x.size(); ++i) pred[i] = fit.eval(x[i]);
  fit.r_squared = r_squared(pred, y);
  return fit;
}

MultiLinearFit fit_multilinear(const std::vector<Vector>& xs, const Vector& y) {
  require(!xs.empty(), "fit_multilinear: need at least one predictor");
  const size_t m = y.size();
  for (const auto& col : xs)
    require(col.size() == m, "fit_multilinear: predictor size mismatch");
  require(m >= xs.size() + 1, "fit_multilinear: not enough points");
  Matrix a(m, xs.size() + 1);
  for (size_t i = 0; i < m; ++i) {
    a(i, 0) = 1.0;
    for (size_t k = 0; k < xs.size(); ++k) a(i, k + 1) = xs[k][i];
  }
  MultiLinearFit fit;
  fit.coeff = least_squares(a, y);
  Vector pred(m);
  for (size_t i = 0; i < m; ++i) {
    std::vector<double> row(xs.size());
    for (size_t k = 0; k < xs.size(); ++k) row[k] = xs[k][i];
    pred[i] = fit.eval(row);
  }
  fit.r_squared = r_squared(pred, y);
  return fit;
}

double r_squared(const Vector& predicted, const Vector& observed) {
  require(predicted.size() == observed.size(), "r_squared: size mismatch");
  require(!observed.empty(), "r_squared: empty input");
  const double mu = mean(observed);
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (size_t i = 0; i < observed.size(); ++i) {
    const double r = observed[i] - predicted[i];
    const double d = observed[i] - mu;
    ss_res += r * r;
    ss_tot += d * d;
  }
  if (ss_tot <= 1e-300) {
    // Constant observations: perfect iff the residual is numerically zero
    // relative to the data's magnitude.
    return ss_res <= 1e-20 * (1.0 + mu * mu) ? 1.0 : 0.0;
  }
  return 1.0 - ss_res / ss_tot;
}

double mean(const Vector& v) {
  require(!v.empty(), "mean: empty input");
  double acc = 0.0;
  for (double x : v) acc += x;
  return acc / static_cast<double>(v.size());
}

}  // namespace pim
