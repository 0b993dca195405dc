// Linear least-squares via Householder QR.
//
// All model-fitting in pim::charlib reduces to min ||A x - b||_2 for small
// dense A (tens to hundreds of rows, <= 4 columns). QR is preferred over
// normal equations for its numerical robustness at negligible cost.
//
// Robustness: a rank-deficient system does not immediately fail. The
// solver retries with Tikhonov regularization — solving
// (A^T A + lambda^2 I) x = A^T b for a small lambda scaled to ||A|| —
// which returns the minimum-norm-flavored solution the fitting flows can
// keep working with. A system that is still unsolvable surfaces as
// ErrorCode::singular_matrix.
#pragma once

#include "numeric/matrix.hpp"
#include "util/expected.hpp"

namespace pim {

/// Solves min ||A x - b||_2 (rows >= cols). Falls back to Tikhonov
/// regularization when A is rank-deficient to working precision; throws
/// pim::Error only when even the regularized system cannot be solved.
Vector least_squares(const Matrix& a, const Vector& b);

/// Ridge solve (A^T A + lambda^2 I) x = A^T b — the fallback
/// least_squares() uses, exposed for callers that want explicit damping.
Expected<Vector> least_squares_regularized(const Matrix& a, const Vector& b,
                                           double lambda);

}  // namespace pim
