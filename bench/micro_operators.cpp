// Micro-benchmarks of the eleven DAG operators for both kernels — the
// native equivalent of the paper's Table II t_avg column, and the input to
// the "host" cost profile of the scaling simulation.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "kernels/kernel.hpp"
#include "kernels/simd/simd.hpp"
#include "support/rng.hpp"

namespace {

using namespace amtfmm;

constexpr int kLevel = 3;
constexpr double kW = 1.0 / 8;

struct Fixture {
  std::unique_ptr<Kernel> kernel;
  std::vector<Vec3> spts, tpts;
  std::vector<double> q;
  Vec3 cs{0.5625, 0.5625, 0.5625};
  Vec3 ct;
  CoeffVec m, l, x, xin;

  explicit Fixture(const std::string& name, int pts = 60) {
    kernel = make_kernel(name, 2.0);
    kernel->setup(1.0, 8, 3);
    ct = cs + Vec3{2 * kW, 0, kW};
    Rng rng(99);
    for (int i = 0; i < pts; ++i) {
      spts.push_back(cs + Vec3{rng.uniform(-.5, .5), rng.uniform(-.5, .5),
                               rng.uniform(-.5, .5)} * kW);
      tpts.push_back(ct + Vec3{rng.uniform(-.5, .5), rng.uniform(-.5, .5),
                               rng.uniform(-.5, .5)} * kW);
      q.push_back(rng.uniform(0.1, 1.0));
    }
    kernel->s2m(spts, q, cs, kLevel, m);
    l.assign(kernel->l_count(kLevel), cdouble{});
    if (kernel->supports_merge_and_shift()) {
      kernel->m2i(m, kLevel, Axis::kPlusZ, x);
      xin.assign(kernel->x_count(kLevel), cdouble{});
      kernel->i2i_acc(x, Axis::kPlusZ, ct - cs, kLevel, xin);
    }
  }
};

Fixture& fx(const std::string& name) {
  static Fixture laplace("laplace");
  static Fixture yukawa("yukawa");
  return name == "laplace" ? laplace : yukawa;
}

void BM_S2M(benchmark::State& state, const std::string& k) {
  auto& f = fx(k);
  CoeffVec out;
  for (auto _ : state) {
    f.kernel->s2m(f.spts, f.q, f.cs, kLevel, out);
    benchmark::DoNotOptimize(out.data());
  }
}
void BM_M2M(benchmark::State& state, const std::string& k) {
  auto& f = fx(k);
  CoeffVec out(f.kernel->m_count(kLevel - 1), cdouble{});
  const Vec3 cp = f.cs + Vec3{kW / 2, kW / 2, kW / 2};
  for (auto _ : state) {
    f.kernel->m2m_acc(f.m, f.cs, cp, kLevel, out);
    benchmark::DoNotOptimize(out.data());
  }
}
void BM_M2L(benchmark::State& state, const std::string& k) {
  auto& f = fx(k);
  CoeffVec out(f.kernel->l_count(kLevel), cdouble{});
  for (auto _ : state) {
    f.kernel->m2l_acc(f.m, f.cs, f.ct, kLevel, out);
    benchmark::DoNotOptimize(out.data());
  }
}
// The O(p^4) reference path, kept for the rotation-vs-naive comparison
// (Table II note in EXPERIMENTS.md).  The fixture kernel is shared, so the
// mode is flipped around the timing loop and restored afterwards.
void BM_M2L_naive(benchmark::State& state, const std::string& k) {
  auto& f = fx(k);
  CoeffVec out(f.kernel->l_count(kLevel), cdouble{});
  const M2LMode prev = f.kernel->m2l_mode();
  f.kernel->set_m2l_mode(M2LMode::kNaive);
  for (auto _ : state) {
    f.kernel->m2l_acc(f.m, f.cs, f.ct, kLevel, out);
    benchmark::DoNotOptimize(out.data());
  }
  f.kernel->set_m2l_mode(prev);
}
void BM_M2T(benchmark::State& state, const std::string& k) {
  auto& f = fx(k);
  for (auto _ : state) {
    double acc = 0;
    for (const auto& t : f.tpts) acc += f.kernel->m2t(f.m, f.cs, kLevel, t);
    benchmark::DoNotOptimize(acc);
  }
}
void BM_S2L(benchmark::State& state, const std::string& k) {
  auto& f = fx(k);
  CoeffVec out(f.kernel->l_count(kLevel), cdouble{});
  for (auto _ : state) {
    f.kernel->s2l_acc(f.spts, f.q, f.ct, kLevel, out);
    benchmark::DoNotOptimize(out.data());
  }
}
void BM_L2L(benchmark::State& state, const std::string& k) {
  auto& f = fx(k);
  CoeffVec out(f.kernel->l_count(kLevel + 1), cdouble{});
  const Vec3 cc = f.ct + Vec3{kW / 4, kW / 4, kW / 4};
  for (auto _ : state) {
    f.kernel->l2l_acc(f.l, f.ct, cc, kLevel + 1, out);
    benchmark::DoNotOptimize(out.data());
  }
}
void BM_L2T(benchmark::State& state, const std::string& k) {
  auto& f = fx(k);
  for (auto _ : state) {
    double acc = 0;
    for (const auto& t : f.tpts) acc += f.kernel->l2t(f.l, f.ct, kLevel, t);
    benchmark::DoNotOptimize(acc);
  }
}
void BM_S2T(benchmark::State& state, const std::string& k) {
  auto& f = fx(k);
  for (auto _ : state) {
    double acc = 0;
    for (const auto& t : f.tpts)
      for (std::size_t i = 0; i < f.spts.size(); ++i)
        acc += f.q[i] * f.kernel->direct(t, f.spts[i]);
    benchmark::DoNotOptimize(acc);
  }
}
void BM_M2I(benchmark::State& state, const std::string& k) {
  auto& f = fx(k);
  CoeffVec out;
  for (auto _ : state) {
    for (Axis d : kAllAxes) {
      f.kernel->m2i(f.m, kLevel, d, out);
      benchmark::DoNotOptimize(out.data());
    }
  }
}
void BM_I2I(benchmark::State& state, const std::string& k) {
  auto& f = fx(k);
  CoeffVec out(f.kernel->x_count(kLevel), cdouble{});
  for (auto _ : state) {
    f.kernel->i2i_acc(f.x, Axis::kPlusZ, f.ct - f.cs, kLevel, out);
    benchmark::DoNotOptimize(out.data());
  }
}
void BM_I2L(benchmark::State& state, const std::string& k) {
  auto& f = fx(k);
  CoeffVec out(f.kernel->l_count(kLevel), cdouble{});
  for (auto _ : state) {
    f.kernel->i2l_acc(f.xin, Axis::kPlusZ, kLevel, out);
    benchmark::DoNotOptimize(out.data());
  }
}

#define REGISTER(op)                                              \
  BENCHMARK_CAPTURE(BM_##op, laplace, std::string("laplace"));    \
  BENCHMARK_CAPTURE(BM_##op, yukawa, std::string("yukawa"))

REGISTER(S2M);
REGISTER(M2M);
REGISTER(M2L);
REGISTER(M2L_naive);
REGISTER(M2T);
REGISTER(S2L);
REGISTER(L2L);
REGISTER(L2T);
REGISTER(S2T);
REGISTER(M2I);
REGISTER(I2I);
REGISTER(I2L);

// ---------------------------------------------------------------------------
// Per-ISA sweep of the SIMD batch kernels (--kernels-json): times each op
// under every runner-supported ISA, records ns/interaction, speedup over the
// scalar reference, and a result checksum (the cross-ISA parity gate for
// scripts/check_bench_kernels.py).

/// Best-of-three ns per call, each sample auto-scaled to >= ~20 ms.
template <typename F>
double best_ns_per_call(F&& run) {
  using clock = std::chrono::steady_clock;
  run();  // warm-up (pools, tables, frequency)
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    long iters = 1;
    for (;;) {
      const auto t0 = clock::now();
      for (long i = 0; i < iters; ++i) run();
      const double ns = static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                               t0)
              .count());
      if (ns > 2e7 || iters >= (1L << 22)) {
        const double per_call = ns / static_cast<double>(iters);
        if (best == 0.0 || per_call < best) best = per_call;
        break;
      }
      iters *= 4;
    }
  }
  return best;
}

/// SoA batch for the P2P sweep rows.
struct SweepBatch {
  std::vector<double> tx, ty, tz, sx, sy, sz, sq, phi, ax, ay, az;
  std::size_t nt, ns;

  SweepBatch(std::size_t nt_, std::size_t ns_) : nt(nt_), ns(ns_) {
    Rng rng(2024);
    auto fill = [&](std::vector<double>& v, std::size_t n) {
      v.resize(n);
      for (auto& x : v) x = rng.uniform(-1.0, 1.0);
    };
    fill(tx, nt);
    fill(ty, nt);
    fill(tz, nt);
    fill(sx, ns);
    fill(sy, ns);
    fill(sz, ns);
    fill(sq, ns);
    phi.resize(nt);
    ax.resize(nt);
    ay.resize(nt);
    az.resize(nt);
  }

  simd::P2PBatch view(bool grad) {
    simd::P2PBatch b;
    b.tx = tx.data();
    b.ty = ty.data();
    b.tz = tz.data();
    b.nt = nt;
    b.sx = sx.data();
    b.sy = sy.data();
    b.sz = sz.data();
    b.sq = sq.data();
    b.ns = ns;
    b.phi = phi.data();
    if (grad) {
      b.ax = ax.data();
      b.ay = ay.data();
      b.az = az.data();
    }
    return b;
  }

  double checksum(bool grad) const {
    double s = 0;
    for (std::size_t i = 0; i < nt; ++i) {
      s += phi[i];
      if (grad) s += ax[i] + ay[i] + az[i];
    }
    return s;
  }
};

/// One sweep row: `run()` computes the op once and returns its checksum.
/// `interactions` converts ns/call into ns/interaction (1 for whole-op rows
/// like M2L, where per-interaction has no natural meaning).
struct SweepOp {
  std::string name;
  double interactions;
  std::function<double()> run;
};

int run_kernel_sweep(const std::string& path, bool forced) {
  constexpr std::size_t kNt = 256, kNs = 256;
  static SweepBatch sb(kNt, kNs);
  const double p2p_inter = static_cast<double>(kNt * kNs);

  auto p2p = [&](bool yukawa, bool grad) {
    return [yukawa, grad] {
      std::fill(sb.phi.begin(), sb.phi.end(), 0.0);
      if (grad) {
        std::fill(sb.ax.begin(), sb.ax.end(), 0.0);
        std::fill(sb.ay.begin(), sb.ay.end(), 0.0);
        std::fill(sb.az.begin(), sb.az.end(), 0.0);
      }
      const simd::P2PBatch b = sb.view(grad);
      if (yukawa) {
        simd::p2p_yukawa(b, 2.0);
      } else {
        simd::p2p_laplace(b);
      }
      return sb.checksum(grad);
    };
  };
  auto m2l = [&](const std::string& kernel) {
    return [kernel] {
      auto& f = fx(kernel);
      CoeffVec out(f.kernel->l_count(kLevel), cdouble{});
      f.kernel->m2l_acc(f.m, f.cs, f.ct, kLevel, out);
      double s = 0;
      for (const cdouble& c : out) s += std::abs(c);
      return s;
    };
  };

  const SweepOp ops[] = {
      {"P2P_laplace", p2p_inter, p2p(false, false)},
      {"P2P_laplace_grad", p2p_inter, p2p(false, true)},
      {"P2P_yukawa", p2p_inter, p2p(true, false)},
      {"P2P_yukawa_grad", p2p_inter, p2p(true, true)},
      {"M2L_laplace", 1.0, m2l("laplace")},
      {"M2L_yukawa", 1.0, m2l("yukawa")},
  };

  // When an ISA was forced via --isa (or AMTFMM_FORCE_ISA), sweep only that
  // variant — the CI forced-scalar leg diffs such a file against the scalar
  // rows of a full sweep.  Otherwise sweep everything the host supports
  // (scalar always comes first, providing the speedup baseline).
  const simd::Isa entry = simd::active_isa();
  std::vector<simd::Isa> isas = simd::supported_isas();
  if (forced) isas = {entry};

  std::vector<bench::BenchEntry> entries;
  std::printf("%-22s %-8s %14s %10s\n", "op", "isa", "ns/interaction",
              "speedup");
  for (const SweepOp& op : ops) {
    double scalar_ns = 0.0;
    for (const simd::Isa isa : isas) {
      if (!simd::set_active_isa(isa)) continue;
      const double checksum = op.run();
      const double ns = best_ns_per_call(op.run) / op.interactions;
      if (isa == simd::Isa::kScalar) scalar_ns = ns;
      const double speedup = scalar_ns > 0.0 ? scalar_ns / ns : 0.0;
      std::printf("%-22s %-8s %14.3f %9.2fx\n", op.name.c_str(),
                  simd::to_string(isa), ns, speedup);
      entries.push_back({op.name + "/" + simd::to_string(isa),
                         ns,
                         {{"ns_per_interaction", ns},
                          {"speedup_vs_scalar", speedup},
                          {"checksum", checksum}}});
    }
  }
  simd::set_active_isa(entry);

  if (!bench::write_bench_json(path, entries)) {
    std::fprintf(stderr, "micro_operators: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("\nkernel sweep written to %s\n", path.c_str());
  return 0;
}

}  // namespace

// BENCHMARK_MAIN() plus two flags stripped before the remaining argv is
// handed to the benchmark library (whose own --benchmark_format and
// --benchmark_out=PATH --benchmark_out_format=json give JSON output):
//   --isa <name>           force the SIMD dispatch ISA (scalar|neon|avx2|
//                          avx512); errors out if unsupported on this host
//   --kernels-json <path>  run the per-ISA SIMD kernel sweep instead of the
//                          operator benchmarks and write BENCH_kernels.json
int main(int argc, char** argv) {
  std::string kernels_json, isa_name;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--kernels-json" && i + 1 < argc) {
      kernels_json = argv[++i];
    } else if (std::string(argv[i]) == "--isa" && i + 1 < argc) {
      isa_name = argv[++i];
    } else {
      args.push_back(argv[i]);
    }
  }
  if (!isa_name.empty()) {
    simd::Isa isa{};
    if (!simd::parse_isa(isa_name, isa) || !simd::set_active_isa(isa)) {
      std::fprintf(stderr,
                   "micro_operators: --isa '%s' unknown or unsupported on "
                   "this host\n",
                   isa_name.c_str());
      return 1;
    }
  }
  if (!kernels_json.empty()) {
    const bool forced =
        !isa_name.empty() || std::getenv("AMTFMM_FORCE_ISA") != nullptr;
    return run_kernel_sweep(kernels_json, forced);
  }

  int filtered = static_cast<int>(args.size());
  benchmark::Initialize(&filtered, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered, args.data())) return 1;

  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
