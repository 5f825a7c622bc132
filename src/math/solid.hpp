#pragma once

#include "geom/vec3.hpp"
#include "math/coeffs.hpp"

namespace amtfmm {

/// Normalized solid harmonics in the White & Head-Gordon convention:
///
///   R_n^m(v) = rho^n  P_n^m(cos th) e^{i m phi} / (n+m)!      (regular)
///   S_n^m(v) = (n-m)! P_n^m(cos th) e^{i m phi} / rho^{n+1}   (irregular)
///
/// for m >= 0, extended to m < 0 by X_n^{-m} = (-1)^m conj(X_n^m).
/// With this normalization the Laplace expansion identities are clean
/// convolutions (all verified by tests/math/solid_test.cpp):
///
///   1/|x-y|      = sum_{n,m} conj(R_n^m(y)) S_n^m(x)        (|y| < |x|)
///   R_n^m(a+b)   = sum_{j,k} R_j^k(a) R_{n-j}^{m-k}(b)
///   S_n^m(x-a)   = sum_{j,k} conj(R_j^k(a)) S_{n+j}^{m+k}(x) (|a| < |x|)
///
/// Gradient ladder identities (used for forces):
///   d/dz R_n^m = R_{n-1}^m         (dx - i dy) R_n^m =  R_{n-1}^{m-1}
///   (dx + i dy) R_n^m = -R_{n-1}^{m+1}
///   d/dz S_n^m = -S_{n+1}^m        (dx - i dy) S_n^m =  S_{n+1}^{m-1}
///   (dx + i dy) S_n^m = -S_{n+1}^{m+1}
///
/// An optional `scale` parameter (characteristic box radius) rescales the
/// bases as R_n^m * scale^-n and S_n^m * scale^{n+1} so coefficient
/// magnitudes stay O(1) across tree levels.
void regular_solid(int p, const Vec3& v, double scale, CoeffVec& out);
void irregular_solid(int p, const Vec3& v, double scale, CoeffVec& out);

/// Evaluates sum_{n,m} c_n^m conj(R_n^m(v)) (local-expansion evaluation).
double eval_conj_regular(int p, CoeffSpan c, const Vec3& v, double scale);

/// Evaluates sum_{n,m} c_n^m S_n^m(v) (multipole far-field evaluation).
double eval_irregular(int p, CoeffSpan c, const Vec3& v, double scale);

/// Gradient versions of the two evaluators (for force computation).
Vec3 grad_conj_regular(int p, CoeffSpan c, const Vec3& v, double scale);
Vec3 grad_irregular(int p, CoeffSpan c, const Vec3& v, double scale);

}  // namespace amtfmm
