// Regression helpers in the exact shapes the paper's methodology uses:
// linear, linear with zero intercept, quadratic (polynomial), and multiple
// linear regression, plus goodness-of-fit statistics.
#pragma once

#include <vector>

#include "numeric/matrix.hpp"

namespace pim {

/// y ~= intercept + slope * x.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r_squared = 0.0;

  double eval(double x) const { return intercept + slope * x; }
};

/// y ~= c[0] + c[1] x + ... + c[d] x^d.
struct PolynomialFit {
  std::vector<double> coeff;  // lowest order first
  double r_squared = 0.0;

  double eval(double x) const;
};

/// y ~= c[0] + c[1] x1 + c[2] x2 + ... (c[0] is the intercept).
struct MultiLinearFit {
  std::vector<double> coeff;  // coeff[0] = intercept
  double r_squared = 0.0;

  double eval(const std::vector<double>& x) const;
};

/// Ordinary least squares line; needs >= 2 points.
LinearFit fit_linear(const Vector& x, const Vector& y);

/// Least squares line forced through the origin (y ~= slope * x), the form
/// the paper uses for 1/size-proportional coefficients; needs >= 1 point.
LinearFit fit_linear_zero_intercept(const Vector& x, const Vector& y);

/// Least squares polynomial of the given degree; needs > degree points.
PolynomialFit fit_polynomial(const Vector& x, const Vector& y, int degree);

/// Multiple linear regression on predictor columns xs[0..k-1];
/// needs >= k + 1 points.
MultiLinearFit fit_multilinear(const std::vector<Vector>& xs, const Vector& y);

/// Coefficient of determination of predictions vs. observations.
double r_squared(const Vector& predicted, const Vector& observed);

/// Mean of a sample; throws on empty input.
double mean(const Vector& v);

}  // namespace pim
