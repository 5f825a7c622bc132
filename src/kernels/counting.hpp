#pragma once

#include "kernels/kernel.hpp"

namespace amtfmm {

/// Structural validation kernel: the "potential" of a unit charge is 1, and
/// every operator is an exact pass-through sum.  A correct tree/list/DAG
/// decomposition therefore delivers exactly sum(q) (= N for unit charges)
/// to every target, with zero approximation error.  Any double-counted or
/// dropped interaction shows up as an integer discrepancy, making this the
/// sharpest possible test of list construction and DAG wiring — at any
/// problem size, independent of floating-point tolerance.
class CountingKernel final : public Kernel {
 public:
  std::string name() const override { return "counting"; }
  void setup(double, int, int) override {}

  std::size_t m_count(int) const override { return 1; }
  std::size_t l_count(int) const override { return 1; }
  std::size_t x_count(int) const override { return 1; }
  bool supports_merge_and_shift() const override { return true; }

  double direct(const Vec3&, const Vec3&) const override { return 1.0; }

  /// direct() is exactly 1, so every target of the batch gains the batch's
  /// summed charge.  Summed once, in source order from 0.0 as the base
  /// loop sums it for each target, the result is bit-identical to
  /// Kernel::s2t_batch without its ns * nt virtual direct() calls.
  void s2t_batch(const simd::P2PBatch& b) const override {
    double q = 0.0;
    for (std::size_t j = 0; j < b.ns; ++j) q += b.sq[j];
    for (std::size_t i = 0; i < b.nt; ++i) b.phi[i] += q;
    if (b.ax != nullptr) {
      // No gradient: the base loop adds a zero acceleration.
      for (std::size_t i = 0; i < b.nt; ++i) {
        b.ax[i] += 0.0;
        b.ay[i] += 0.0;
        b.az[i] += 0.0;
      }
    }
  }

  void s2m(std::span<const Vec3> pts, std::span<const double> q, const Vec3&,
           int, CoeffVec& out) const override {
    out.assign(1, cdouble{});
    for (std::size_t i = 0; i < pts.size(); ++i) out[0] += q[i];
  }
  void m2m_acc(CoeffSpan in, const Vec3&, const Vec3&, int,
               CoeffVec& inout) const override {
    inout[0] += in[0];
  }
  void m2l_acc(CoeffSpan in, const Vec3&, const Vec3&, int,
               CoeffVec& inout) const override {
    inout[0] += in[0];
  }
  void s2l_acc(std::span<const Vec3> pts, std::span<const double> q,
               const Vec3&, int, CoeffVec& inout) const override {
    for (std::size_t i = 0; i < pts.size(); ++i) inout[0] += q[i];
  }
  double m2t(CoeffSpan in, const Vec3&, int, const Vec3&) const override {
    return in[0].real();
  }
  void l2l_acc(CoeffSpan in, const Vec3&, const Vec3&, int,
               CoeffVec& inout) const override {
    inout[0] += in[0];
  }
  double l2t(CoeffSpan in, const Vec3&, int, const Vec3&) const override {
    return in[0].real();
  }
  void m2i(CoeffSpan m, int, Axis, CoeffVec& out) const override {
    out.assign(1, m[0]);
  }
  void i2i_acc(CoeffSpan in, Axis, const Vec3&, int,
               CoeffVec& inout) const override {
    inout[0] += in[0];
  }
  void i2l_acc(CoeffSpan in, Axis, int, CoeffVec& inout) const override {
    inout[0] += in[0];
  }
};

}  // namespace amtfmm
