#include "core/cost_model.hpp"

#include "geom/vec3.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

namespace amtfmm {
namespace {

double us(double v) { return v * 1e-6; }

/// Fastest of `repeats` timings of a callable (the minimum, not a
/// median: the least-disturbed run).
template <typename F>
double time_op(F&& f, int repeats = 9) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    Timer t;
    f();
    best = std::min(best, t.seconds());
  }
  return best;
}

}  // namespace

CostModel CostModel::paper(const std::string& kernel_name) {
  CostModel m;
  auto set = [&](Operator op, double micros) {
    m.base[static_cast<std::size_t>(op)] = us(micros);
  };
  // Table II of the paper (cube Laplace, 128-core run, threshold 60).
  set(Operator::kS2T, 1.89);
  set(Operator::kS2M, 10.9);
  set(Operator::kM2M, 4.60);
  set(Operator::kM2I, 29.6);
  set(Operator::kI2I, 1.75);
  set(Operator::kI2L, 38.4);
  set(Operator::kL2L, 4.45);
  set(Operator::kL2T, 13.5);
  // Not exercised by the paper's cube runs (lists 3/4 empty on uniform
  // data) or by the advanced method; estimates consistent with the above.
  set(Operator::kM2L, 15.0);
  set(Operator::kM2T, 5.0);
  set(Operator::kS2L, 10.0);
  if (kernel_name == "yukawa") {
    // "the specific operations for the Yukawa kernel are heavier than the
    // equivalent for the Laplace kernel" — grain-size multiplier.
    for (auto& b : m.base) b *= 3.0;
  }
  return m;
}

CostModel CostModel::measured(const Kernel& kernel, int level,
                              int points_per_box, double domain_size) {
  CostModel m;
  const double w = domain_size / static_cast<double>(1 << level);
  const double c = 0.5 * (domain_size + w);
  const Vec3 cs{c, c, c};
  const Vec3 ct = cs + Vec3{2.0 * w, 0, 0};
  Rng rng(1234);
  std::vector<Vec3> spts, tpts;
  std::vector<double> q;
  for (int i = 0; i < points_per_box; ++i) {
    spts.push_back(cs + Vec3{rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                             rng.uniform(-0.5, 0.5)} *
                            w);
    tpts.push_back(ct + Vec3{rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                             rng.uniform(-0.5, 0.5)} *
                            w);
    q.push_back(rng.uniform(0.1, 1.0));
  }
  const double n = points_per_box;

  CoeffVec mm, ll(kernel.l_count(level));
  kernel.s2m(spts, q, cs, level, mm);
  auto per = [&](Operator op, double v) {
    m.per_unit[static_cast<std::size_t>(op)] = v;
  };
  auto base = [&](Operator op, double v) {
    m.base[static_cast<std::size_t>(op)] = v;
  };

  per(Operator::kS2M, time_op([&] { kernel.s2m(spts, q, cs, level, mm); }) / n);
  base(Operator::kM2M, time_op([&] {
         CoeffVec up(kernel.m_count(level - 1));
         kernel.m2m_acc(mm, cs, cs + Vec3{w / 2, w / 2, w / 2}, level, up);
       }));
  // ct - cs is the integer offset (2, 0, 0), so this times whichever M2L
  // path the kernel is configured for (rotation by default, naive when the
  // kernel's m2l_mode says so).
  base(Operator::kM2L,
       time_op([&] { kernel.m2l_acc(mm, cs, ct, level, ll); }));
  per(Operator::kM2T, time_op([&] {
        double sink = 0;
        for (const auto& t : tpts) sink += kernel.m2t(mm, cs, level, t);
        (void)sink;
      }) / n);
  per(Operator::kS2L,
      time_op([&] { kernel.s2l_acc(spts, q, ct, level, ll); }) / n);
  base(Operator::kL2L, time_op([&] {
         CoeffVec down(kernel.l_count(level + 1));
         kernel.l2l_acc(ll, ct, ct + Vec3{w / 4, w / 4, w / 4}, level + 1,
                        down);
       }));
  per(Operator::kL2T, time_op([&] {
        double sink = 0;
        for (const auto& t : tpts) sink += kernel.l2t(ll, ct, level, t);
        (void)sink;
      }) / n);
  per(Operator::kS2T, time_op([&] {
        double sink = 0;
        for (const auto& t : tpts)
          for (std::size_t i = 0; i < spts.size(); ++i)
            sink += q[i] * kernel.direct(t, spts[i]);
        (void)sink;
      }) / (n * n));

  if (kernel.supports_merge_and_shift() && kernel.x_count(level) > 0) {
    CoeffVec x;
    base(Operator::kM2I, 6.0 * time_op([&] {
           kernel.m2i(mm, level, Axis::kPlusX, x);
         }));
    kernel.m2i(mm, level, Axis::kPlusZ, x);
    CoeffVec xin(kernel.x_count(level), cdouble{});
    per(Operator::kI2I, time_op([&] {
          kernel.i2i_acc(x, Axis::kPlusZ, ct - cs, level, xin);
        }) / static_cast<double>(kernel.x_count(level)));
    per(Operator::kI2L, time_op([&] {
          kernel.i2l_acc(xin, Axis::kPlusZ, level, ll);
        }));  // metric is the number of active directions
  }
  return m;
}

}  // namespace amtfmm
