// fmmbench: the repository benchmark program.
//
// Runs one workload through the public amtfmm API only (EvalPipeline,
// Evaluator, build_dual_tree / Kernel::setup / build_lists / build_dag,
// net::NetExecutor) and prints its metrics.  fmmbench/run.py builds and
// invokes it:
//
//   fmmbench --workload=paper_laplace --seed=1 --seconds=15 --trace=0
//            --out-dir=.bench_build/out
//
// mesh_2rank runs as one SPMD rank of a 2-process world started by
// tools/amtfmm_launch; rank 0 reports.  Every workload is a closed loop
// with one caller: an epoch starts only when the previous call returned.
//
//  --trace=0  end-to-end metrics (setup_s, solve_s, evals_per_s,
//             epoch_p50_s, epoch_tail_s, peak_rss_mb) from untraced runs.
//  --trace=1  per-layer metrics: outside-in layer timings, a traced
//             epoch sequence run twice (exact-count self-test), an
//             untraced twin for the tracing overhead, a single-worker
//             baseline, and the worker-time reconciliation.
//
// Every evaluation is checked; a failed check fails that epoch.  stdout
// carries one "E <n> ok|fail <seconds>" line per checked evaluation (so a
// crash still leaves a count), then {"report": ...} with the details, then
// the result object {"correct", "attempted", "failed", "metrics"}.  The
// program's own spans (name, start, end, parent, epoch) are kept in memory
// and written to --out-dir at exit.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dag.hpp"
#include "core/evaluator.hpp"
#include "core/pipeline.hpp"
#include "geom/distributions.hpp"
#include "kernels/kernel.hpp"
#include "runtime/counters.hpp"
#include "runtime/net/net_executor.hpp"
#include "runtime/trace.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "tree/lists.hpp"
#include "tree/tree.hpp"

namespace {

using namespace amtfmm;
using Clock = std::chrono::steady_clock;
using Stats = std::map<std::string, double>;

constexpr int kDigits = 3;
/// Steady epochs a window needs at least: the tail statistic (the highest
/// percentile with 10 epochs beyond it) then sits at or above the median.
constexpr std::size_t kMinSteady = 21;
/// timestep: every 8th step moves a cluster that forces a rebuild, every
/// other step moves points inside their own leaf (incremental update).
constexpr std::size_t kRebuildEvery = 8;
/// Repetitions of the constructor and of the one-shot solve (median).
constexpr int kReps = 5;
/// Steady epochs per sequence in the traced run.
constexpr std::size_t kTracedSteady = 3;
/// Targets sampled for the Laplace direct-sum accuracy check.
constexpr std::size_t kLaplaceSample = 100;
/// Reconciliation tolerance: spans plus park time may exceed
/// workers x makespan by this share before the ledger is flagged.
constexpr double kReconcileTol = 0.05;

/// Operators of the merge-and-shift FMM (it never emits M->L).
constexpr std::array<std::pair<Operator, const char*>, 10> kOps{{
    {Operator::kS2T, "s2t"},
    {Operator::kS2M, "s2m"},
    {Operator::kS2L, "s2l"},
    {Operator::kM2M, "m2m"},
    {Operator::kM2T, "m2t"},
    {Operator::kL2L, "l2l"},
    {Operator::kL2T, "l2t"},
    {Operator::kM2I, "m2i"},
    {Operator::kI2I, "i2i"},
    {Operator::kI2L, "i2l"},
}};

// --- Workloads --------------------------------------------------------------

struct Spec {
  const char* name;
  const char* kernel;
  std::size_t n;
  int threshold;
  int localities;  ///< in-process localities, or ranks on the mesh
  int cores;       ///< workers per locality / rank
  bool mesh;
  bool moves;
};

/// Thread budgets on a 4-vCPU host.  paper_laplace's coarse operator tasks
/// keep 2 x 2 workers busy.  The fine-grain Counting DAGs run 2 x 1: with
/// 2 x 2 workers plus the seeding caller, five threads share four vCPUs,
/// and their epoch medians spread twice as wide from run to run.
constexpr std::array<Spec, 4> kSpecs{{
    {"paper_laplace", "laplace", 8000, 60, 2, 2, false, false},
    {"dataflow_counting", "counting", 100000, 10, 2, 1, false, false},
    {"mesh_2rank", "counting", 100000, 10, 2, 1, true, false},
    {"timestep", "counting", 100000, 10, 2, 1, false, true},
}};

bool counting(const Spec& s) { return std::strcmp(s.kernel, "counting") == 0; }
int workers(const Spec& s) { return s.localities * s.cores; }

EvalConfig make_config(const Spec& s, std::uint64_t seed, bool traced) {
  EvalConfig c;
  c.method = Method::kFmmAdvanced;
  c.threshold = s.threshold;
  c.digits = kDigits;
  c.localities = s.localities;
  c.cores_per_locality = s.cores;
  c.coalesce.enabled = true;
  c.trace = traced;
  c.counters = traced;
  c.seed = seed;
  return c;
}

std::unique_ptr<Kernel> new_kernel(const Spec& s, const EvalConfig& cfg) {
  auto k = make_kernel(s.kernel);
  k->set_m2l_mode(cfg.m2l_mode);
  return k;
}

// --- Seeded inputs ------------------------------------------------------------

struct Problem {
  std::vector<Vec3> sources;
  std::vector<Vec3> targets;
};

Problem make_problem(const Spec& s, std::uint64_t seed) {
  Rng rs(seed * 8 + 1), rt(seed * 8 + 2);
  return {generate_points(Distribution::kCube, s.n, rs),
          generate_points(Distribution::kCube, s.n, rt)};
}

/// Fresh charges for every epoch.  Counting workloads use small integers,
/// so every potential (a sum of charges) is exact in double precision.
class Charges {
 public:
  Charges(const Spec& s, std::uint64_t seed)
      : counting_(counting(s)), n_(s.n), rng_(seed * 8 + 3) {}
  std::vector<double> next() {
    if (!counting_) return generate_charges(n_, rng_);
    std::vector<double> q(n_);
    for (double& v : q) v = static_cast<double>(1 + rng_.below(8));
    return q;
  }

 private:
  bool counting_;
  std::size_t n_;
  Rng rng_;
};

/// Seeded geometry updates for timestep, computed from the pipeline's
/// current source tree.  Ordinary steps move 0.1% of the sources by up to
/// 5e-4 of the domain, clamped inside each point's own leaf, so the tree
/// structure is kept and the update is incremental.  The last step of
/// every `period` moves threshold+1 points from other leaves into one leaf,
/// which pushes it over the refinement threshold and forces a rebuild.
/// Rebuilds are thus a fixed minority (1 in `period`) on known steps.
class Mover {
 public:
  Mover(std::uint64_t seed, int threshold, std::size_t period)
      : rng_(seed * 8 + 4), threshold_(threshold), period_(period) {}

  bool rebuild_step(std::size_t step) const {
    return step % period_ == period_ - 1;
  }

  PipelineUpdate next(const Tree& t, std::size_t step) {
    const std::size_t n = t.num_points();
    const auto& perm = t.original_index();
    const auto& pts = t.sorted_points();
    std::vector<std::uint32_t> sorted_of(n);
    for (std::size_t i = 0; i < n; ++i) {
      sorted_of[perm[i]] = static_cast<std::uint32_t>(i);
    }
    std::vector<BoxIndex> leaf_of(n, kNoBox);
    for (BoxIndex b = 0; b < t.boxes().size(); ++b) {
      const TreeBox& bx = t.box(b);
      if (!bx.is_leaf()) continue;
      for (std::uint32_t i = bx.first; i < bx.first + bx.count; ++i) {
        leaf_of[i] = b;
      }
    }
    std::vector<bool> used(n, false);
    PipelineUpdate u;
    const auto leaf_cube = [&](std::uint32_t orig) -> const Cube& {
      return t.box(leaf_of[sorted_of[orig]]).cube;
    };
    if (rebuild_step(step)) {
      const auto anchor = static_cast<std::uint32_t>(rng_.below(n));
      const BoxIndex leaf = leaf_of[sorted_of[anchor]];
      const Cube& c = t.box(leaf).cube;
      const Vec3 centre = inside(c, pts[sorted_of[anchor]]);
      used[anchor] = true;
      while (u.moves.size() < static_cast<std::size_t>(threshold_) + 1) {
        const auto o = static_cast<std::uint32_t>(rng_.below(n));
        if (used[o] || leaf_of[sorted_of[o]] == leaf) continue;
        used[o] = true;
        u.moves.push_back({o, inside(c, centre + jitter(1e-4 * c.size))});
      }
    } else {
      const std::size_t m = std::max<std::size_t>(1, n / 1000);
      const double reach = 5e-4 * t.domain().size;
      while (u.moves.size() < m) {
        const auto o = static_cast<std::uint32_t>(rng_.below(n));
        if (used[o]) continue;
        used[o] = true;
        u.moves.push_back(
            {o, inside(leaf_cube(o), pts[sorted_of[o]] + jitter(reach))});
      }
    }
    return u;
  }

 private:
  Vec3 jitter(double r) {
    return {rng_.uniform(-r, r), rng_.uniform(-r, r), rng_.uniform(-r, r)};
  }
  /// Clamps p into the cube with a margin of 1e-3 of its edge.
  static Vec3 inside(const Cube& c, Vec3 p) {
    const double m = 1e-3 * c.size;
    const Vec3 hi = c.high();
    p.x = std::clamp(p.x, c.low.x + m, hi.x - m);
    p.y = std::clamp(p.y, c.low.y + m, hi.y - m);
    p.z = std::clamp(p.z, c.low.z + m, hi.z - m);
    return p;
  }

  Rng rng_;
  int threshold_;
  std::size_t period_;
};

// --- Benchmark spans --------------------------------------------------------

/// The benchmark's own spans around every public call it makes, kept in
/// memory and written at exit.  Self time = span minus its child spans.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double t0 = 0.0;
    double t1 = 0.0;
    int parent = -1;
    std::int64_t epoch = -1;
  };

  int open(const char* name, std::int64_t epoch) {
    Span s;
    s.name = name;
    s.t0 = now();
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.epoch = epoch;
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  double close(int id) {
    AMTFMM_ASSERT(!stack_.empty() && stack_.back() == id);
    stack_.pop_back();
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.t1 = now();
    return s.t1 - s.t0;
  }

  /// Per span name: {count, total seconds, self seconds}.
  std::map<std::string, std::array<double, 3>> totals() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
    }
    std::map<std::string, std::array<double, 3>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& a = out[spans_[i].name];
      const double d = spans_[i].t1 - spans_[i].t0;
      a[0] += 1.0;
      a[1] += d;
      a[2] += d - child[i];
    }
    return out;
  }

  bool write(const std::string& path) const {
    JsonWriter w;
    w.begin_array();
    for (const Span& s : spans_) {
      w.begin_object();
      w.kv("name", s.name);
      w.kv("start_s", s.t0);
      w.kv("end_s", s.t1);
      w.kv("parent", static_cast<std::int64_t>(s.parent));
      w.kv("epoch", s.epoch);
      w.end_object();
    }
    w.end_array();
    return w.write_file(path);
  }

 private:
  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

SpanLog g_spans;

/// RAII span; stop() closes it early and returns its duration.
class Scoped {
 public:
  explicit Scoped(const char* name, std::int64_t epoch = -1)
      : id_(g_spans.open(name, epoch)) {}
  ~Scoped() {
    if (!closed_) g_spans.close(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  double stop() {
    closed_ = true;
    return g_spans.close(id_);
  }

 private:
  int id_;
  bool closed_ = false;
};

// --- Statistics -------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 != 0 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// The highest percentile of the samples that still has at least 10
/// samples beyond it: the 11th largest (nearest rank (n-10)/n).  Below 21
/// samples that percentile would fall under the median, so the maximum is
/// reported instead (percentile 100, no samples beyond).
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t beyond = 0;
};

Tail tail_of(std::vector<double> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n < 2 * 10 + 1) {
    t.value = v.back();
    return t;
  }
  t.value = v[n - 11];
  t.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  t.beyond = 10;
  return t;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- Output checks ----------------------------------------------------------

/// Tally of checked evaluations ("epochs attempted" and "failed").
class Tally {
 public:
  explicit Tally(bool print) : print_(print) {}
  /// Records one checked evaluation; `why` is empty when it passed.
  void record(const std::string& why, double seconds) {
    ++attempted_;
    if (!why.empty()) {
      failed_ids_.push_back(attempted_);
      if (reasons_.size() < 8) {
        reasons_.push_back("epoch " + std::to_string(attempted_) + ": " + why);
      }
    }
    if (print_) {
      std::printf("E %" PRIu64 " %s %.6f\n", attempted_,
                  why.empty() ? "ok" : "fail", seconds);
      std::fflush(stdout);
    }
  }
  /// Folds another rank's failed evaluations in (same numbering).
  void merge_failed(const std::vector<std::uint64_t>& ids,
                    const std::vector<std::string>& reasons) {
    for (std::uint64_t id : ids) {
      if (std::find(failed_ids_.begin(), failed_ids_.end(), id) ==
          failed_ids_.end()) {
        failed_ids_.push_back(id);
      }
    }
    for (const std::string& r : reasons) {
      if (reasons_.size() < 8) reasons_.push_back(r);
    }
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_ids_.size(); }
  const std::vector<std::uint64_t>& failed_ids() const { return failed_ids_; }
  const std::vector<std::string>& reasons() const { return reasons_; }

 private:
  bool print_;
  std::uint64_t attempted_ = 0;
  std::vector<std::uint64_t> failed_ids_;
  std::vector<std::string> reasons_;
};

/// Checks one evaluation's potentials against what the inputs imply.
class Verifier {
 public:
  Verifier(const Spec& s, const Problem& p, std::uint64_t seed, bool partial)
      : spec_(s), prob_(p), partial_(partial) {
    if (!counting(s)) {
      kernel_ = make_kernel(s.kernel);
      Rng r(seed * 8 + 5);
      for (std::size_t i = 0; i < kLaplaceSample; ++i) {
        sample_.push_back(static_cast<std::uint32_t>(r.below(s.n)));
      }
      for (std::uint32_t i : sample_) sample_pts_.push_back(p.targets[i]);
    }
  }

  /// Empty when `phi` is right for charges `q`.  Laplace: relative L2
  /// error against direct_sum on the seeded target sample must be at most
  /// 10^-digits.  Counting: every potential equals sum(q) exactly (on a
  /// mesh rank, every entry is sum(q) or 0 and the home set is fixed).
  std::string potentials(std::span<const double> q,
                         std::span<const double> phi) {
    if (phi.size() != spec_.n) return "wrong potential count";
    if (!counting(spec_)) {
      const auto ref = direct_sum(*kernel_, prob_.sources, q, sample_pts_);
      double num = 0.0, den = 0.0;
      for (std::size_t i = 0; i < sample_.size(); ++i) {
        const double d = phi[sample_[i]] - ref[i];
        num += d * d;
        den += ref[i] * ref[i];
      }
      const double err = std::sqrt(num / den);
      errs_.push_back(err);
      if (!(err <= std::pow(10.0, -kDigits))) {
        return "relative L2 error " + std::to_string(err) +
               " exceeds 1e-3";
      }
      return {};
    }
    double qsum = 0.0;
    for (double v : q) qsum += v;
    std::size_t home = 0;
    for (double v : phi) {
      if (v == qsum) {
        ++home;
      } else if (!(partial_ && v == 0.0)) {
        return "potential " + std::to_string(v) + " != sum(q) " +
               std::to_string(qsum);
      }
    }
    if (partial_) {
      if (home_ && *home_ != home) return "home target set changed";
      home_ = home;
    }
    return {};
  }

  /// Potentials, the per-epoch transport identity, and (when the epoch
  /// re-used the resident arena) zero GAS allocations.
  std::string epoch(std::span<const double> q, const EvalResult& r,
                    const EvalPipeline* steady) {
    std::string why = potentials(q, r.potentials);
    if (why.empty() && r.wire_bytes != r.bytes_sent) {
      why = "wire_bytes " + std::to_string(r.wire_bytes) + " != bytes_sent " +
            std::to_string(r.bytes_sent);
    }
    if (why.empty() && steady != nullptr && steady->gas_allocs_last_epoch() != 0) {
      why = std::to_string(steady->gas_allocs_last_epoch()) +
            " GAS allocations in a steady epoch";
    }
    return why;
  }

  double median_err() const { return median(errs_); }

 private:
  const Spec& spec_;
  const Problem& prob_;
  bool partial_;
  std::unique_ptr<Kernel> kernel_;
  std::vector<std::uint32_t> sample_;
  std::vector<Vec3> sample_pts_;
  std::optional<std::size_t> home_;
  std::vector<double> errs_;
};

std::string match_1e12(std::span<const double> a, std::span<const double> b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]) / std::max(1.0, std::abs(b[i])));
  }
  if (m > 1e-12) return "replay differs from epoch 1 by " + std::to_string(m);
  return {};
}

// --- Socket mesh --------------------------------------------------------------

/// One rank of the 2-process world: the NetExecutor plus two small
/// collectives over kNetKindUser parcels — a broadcast from rank 0 (the
/// agreed epoch count) and the amtfmm_loopback-style gather that sums the
/// ranks' partial potentials on rank 0 and carries each rank's stats.
class Mesh {
 public:
  explicit Mesh(int cores) {
    const auto env = net::net_config_from_env();
    if (!env || env->world != 2) {
      throw std::runtime_error(
          "mesh_2rank must run as 2 ranks under amtfmm_launch");
    }
    CoalesceConfig co;
    co.enabled = true;
    Scoped s("net::NetExecutor::NetExecutor");
    ex_ = std::make_unique<net::NetExecutor>(*env, cores, co);
    connect_s_ = s.stop();
    ex_->register_net_handler(
        kNetKindUser, [this](const std::vector<std::byte>& b) { receive(b); });
  }
  ~Mesh() { ex_->unregister_net_handler(kNetKindUser); }
  Mesh(const Mesh&) = delete;
  Mesh& operator=(const Mesh&) = delete;

  net::NetExecutor& ex() { return *ex_; }
  std::uint32_t rank() const { return ex_->rank(); }
  double connect_s() const { return connect_s_; }

  std::uint64_t broadcast(std::uint64_t v) {
    if (rank() == 0) {
      for (std::uint32_t r = 1; r < ex_->world(); ++r) {
        send(r, kBroadcast, {}, std::to_string(v));
      }
    }
    Scoped s("net::NetExecutor::drain");
    ex_->drain();
    std::lock_guard<std::mutex> lk(mu_);
    return rank() == 0 ? v : bcast_;
  }

  /// Rank 0 returns the element-wise sum of every rank's `mine` and the
  /// other ranks' blobs; other ranks return empty.
  std::vector<double> gather(const std::vector<double>& mine,
                             const std::string& blob,
                             std::vector<std::string>* blobs) {
    if (rank() != 0) send(0, kGather, mine, blob);
    {
      Scoped s("net::NetExecutor::drain");
      ex_->drain();
    }
    if (rank() != 0) return {};
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<double> sum = mine;
    if (sum_.size() == sum.size()) {
      for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += sum_[i];
    } else {
      sum.clear();  // a rank's partial went missing: fails the check
    }
    if (blobs != nullptr) *blobs = blobs_;
    sum_.clear();
    blobs_.clear();
    return sum;
  }

 private:
  static constexpr std::uint64_t kBroadcast = 1;
  static constexpr std::uint64_t kGather = 2;

  void send(std::uint32_t dst, std::uint64_t type,
            const std::vector<double>& vals, const std::string& text) {
    const std::uint64_t hdr[3] = {type, vals.size(), text.size()};
    auto buf = std::make_shared<std::vector<std::byte>>(
        sizeof(hdr) + vals.size() * sizeof(double) + text.size());
    std::memcpy(buf->data(), hdr, sizeof(hdr));
    std::memcpy(buf->data() + sizeof(hdr), vals.data(),
                vals.size() * sizeof(double));
    std::memcpy(buf->data() + sizeof(hdr) + vals.size() * sizeof(double),
                text.data(), text.size());
    Task t;
    t.locality = dst;
    t.net_kind = kNetKindUser;
    t.net_payload = buf;
    t.fn = [] {};
    ex_->send(rank(), dst, buf->size(), t);
  }

  void receive(const std::vector<std::byte>& b) {
    std::uint64_t hdr[3];
    if (b.size() < sizeof(hdr)) return;
    std::memcpy(hdr, b.data(), sizeof(hdr));
    if (b.size() != sizeof(hdr) + hdr[1] * sizeof(double) + hdr[2]) return;
    std::vector<double> vals(hdr[1]);
    std::memcpy(vals.data(), b.data() + sizeof(hdr), hdr[1] * sizeof(double));
    std::string text(reinterpret_cast<const char*>(b.data()) + sizeof(hdr) +
                         hdr[1] * sizeof(double),
                     hdr[2]);
    std::lock_guard<std::mutex> lk(mu_);
    if (hdr[0] == kBroadcast) {
      bcast_ = std::stoull(text);
    } else if (hdr[0] == kGather) {
      if (sum_.empty()) sum_.assign(vals.size(), 0.0);
      if (sum_.size() == vals.size()) {
        for (std::size_t i = 0; i < vals.size(); ++i) sum_[i] += vals[i];
      }
      blobs_.push_back(std::move(text));
    }
  }

  std::unique_ptr<net::NetExecutor> ex_;
  double connect_s_ = 0.0;
  std::mutex mu_;
  std::uint64_t bcast_ = 0;
  std::vector<double> sum_;
  std::vector<std::string> blobs_;
};

/// Rank blobs: "k <name> <value>" stats lines and "f <id> <reason>"
/// failed-evaluation lines.
std::string encode_blob(const Stats& st, const Tally& tally) {
  std::ostringstream os;
  os.precision(17);
  for (const auto& [k, v] : st) os << "k " << k << ' ' << v << '\n';
  for (std::size_t i = 0; i < tally.failed_ids().size(); ++i) {
    os << "f " << tally.failed_ids()[i] << ' '
       << (i < tally.reasons().size() ? tally.reasons()[i] : "") << '\n';
  }
  return os.str();
}

void decode_blob(const std::string& blob, Stats* st, Tally* tally) {
  std::istringstream is(blob);
  std::string line;
  std::vector<std::uint64_t> ids;
  std::vector<std::string> reasons;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::string tag, key;
    ls >> tag >> key;
    if (tag == "k") {
      double v = 0.0;
      ls >> v;
      (*st)[key] = v;
    } else if (tag == "f") {
      ids.push_back(std::stoull(key));
      std::string rest;
      std::getline(ls, rest);
      reasons.push_back("rank 1 " + rest);
    }
  }
  tally->merge_failed(ids, reasons);
}

// --- Running epochs -----------------------------------------------------------

/// What one workload run needs: inputs, the optional mesh, the tally.
struct Ctx {
  const Spec& spec;
  std::uint64_t seed;
  double seconds;
  const Problem& prob;
  Mesh* mesh;  ///< null in process
  Tally& tally;
};

std::unique_ptr<EvalPipeline> new_pipeline(Ctx& c, Kernel& k,
                                           const EvalConfig& cfg,
                                           double* seconds = nullptr) {
  Scoped s("EvalPipeline::EvalPipeline");
  std::unique_ptr<EvalPipeline> p;
  if (c.mesh != nullptr) {
    p = std::make_unique<EvalPipeline>(k, cfg, c.prob.sources, c.prob.targets,
                                       c.mesh->ex());
  } else {
    p = std::make_unique<EvalPipeline>(k, cfg, c.prob.sources,
                                       c.prob.targets);
  }
  const double t = s.stop();
  if (seconds != nullptr) *seconds = t;
  return p;
}

/// One resident epoch: (timestep) the geometry update, then evaluate.
struct Step {
  EvalResult r;
  double seconds = 0.0;  ///< update + evaluate
  double update_s = 0.0;
  bool rebuilt = false;
  std::size_t dirty = 0;
};

Step run_step(EvalPipeline& p, std::span<const double> q, Mover* mover,
              std::size_t step, std::int64_t epoch) {
  Step st;
  if (mover != nullptr) {
    const PipelineUpdate u = mover->next(p.model().tree.source, step);
    Scoped s("EvalPipeline::update_sources", epoch);
    const PipelineUpdateStats us = p.update_sources(u);
    st.update_s = s.stop();
    st.rebuilt = us.rebuilt;
    st.dirty = us.dirty_leaves;
  }
  Scoped s("EvalPipeline::evaluate", epoch);
  st.r = p.evaluate(q);
  st.seconds = st.update_s + s.stop();
  return st;
}

/// Checks a mesh evaluation globally: the ranks' partials must sum to the
/// full answer on rank 0 (as amtfmm_loopback does).
std::string global_check(Ctx& c, Verifier& global,
                         std::span<const double> q,
                         const std::vector<double>& partial) {
  const auto sum = c.mesh->gather(partial, {}, nullptr);
  if (c.mesh->rank() != 0) return {};
  return global.potentials(q, sum);
}

struct EndToEnd {
  std::vector<double> setup, solve, lat, update_lat, rebuild_lat;
  double window_s = 0.0;
  std::size_t rebuilds = 0;
};

/// The untraced run: kReps fresh one-shot solutions, then the timed steady
/// window on the last of their pipelines.
EndToEnd run_end_to_end(Ctx& c) {
  EndToEnd e;
  const EvalConfig cfg = make_config(c.spec, c.seed, false);
  Charges charges(c.spec, c.seed);
  Verifier verify(c.spec, c.prob, c.seed, c.mesh != nullptr);
  Verifier global(c.spec, c.prob, c.seed, false);
  // The window stretches to kMinSteady epochs, but never past 3 windows:
  // a slow host must not push the run past its time limit.
  const double cap = std::min(3.0 * c.seconds, 110.0);

  // Each solution constructs a resident pipeline (one setup_s sample) and
  // runs its first epoch; solve_s is the two together: the work of one
  // Evaluator::evaluate (or evaluate_distributed), without the teardown.
  std::unique_ptr<Evaluator> owner;  // in process: Evaluator::prepare()
  std::unique_ptr<Kernel> kernel;    // mesh: a pipeline on the NetExecutor
  std::unique_ptr<EvalPipeline> mesh_pipe;
  EvalPipeline* pipe = nullptr;
  std::vector<double> q1;
  Step first;
  std::size_t target = 0;  // mesh: the agreed steady epoch count
  for (int rep = 0; rep < kReps; ++rep) {
    if (pipe != nullptr) {  // one resident pipeline at a time
      Scoped s("teardown");
      owner.reset();
      mesh_pipe.reset();
    }
    q1 = charges.next();
    double setup = 0.0;
    if (c.mesh != nullptr) {
      kernel = new_kernel(c.spec, cfg);
      mesh_pipe = new_pipeline(c, *kernel, cfg, &setup);
      pipe = mesh_pipe.get();
    } else {
      owner = std::make_unique<Evaluator>(new_kernel(c.spec, cfg), cfg);
      Scoped s("Evaluator::prepare");
      owner->prepare(c.prob.sources, c.prob.targets);
      setup = s.stop();
      pipe = owner->pipeline();
    }
    first = run_step(*pipe, q1, nullptr, 0, 0);
    e.setup.push_back(setup);
    e.solve.push_back(setup + first.seconds);
    std::string why = verify.epoch(q1, first.r, nullptr);
    if (c.mesh != nullptr && rep == 0) {
      const std::string g = global_check(c, global, q1, first.r.potentials);
      if (why.empty()) why = g;
      // Both ranks must run the same number of epochs: rank 0 sizes the
      // window from this makespan and broadcasts it now, before the
      // resident pipeline exists (a parcel sent while one lives would
      // count in its next epoch's transport delta).
      const double m = std::max(first.r.makespan, 1e-3);
      const auto want = static_cast<std::size_t>(std::ceil(c.seconds / m));
      const auto most = static_cast<std::size_t>(cap / m);
      target = c.mesh->broadcast(
          std::max<std::size_t>(3, std::min(std::max(want, kMinSteady), most)));
    }
    c.tally.record(why, e.solve.back());
  }

  std::unique_ptr<Mover> mover;
  if (c.spec.moves) {
    mover = std::make_unique<Mover>(c.seed, c.spec.threshold, kRebuildEvery);
  }
  const auto wall0 = Clock::now();
  std::vector<double> last_q;
  EvalResult last;
  for (std::size_t n = 0;; ++n) {
    if (c.mesh != nullptr) {
      if (n >= target) break;
    } else {
      const double wall =
          std::chrono::duration<double>(Clock::now() - wall0).count();
      const bool whole = c.spec.moves ? n % kRebuildEvery == 0 : true;
      if ((e.window_s >= c.seconds && n >= kMinSteady && whole) || wall > cap) {
        break;
      }
    }
    const auto q = charges.next();
    Step st = run_step(*pipe, q, mover.get(), n, static_cast<std::int64_t>(n + 1));
    c.tally.record(verify.epoch(q, st.r, st.rebuilt ? nullptr : pipe),
                   st.seconds);
    e.lat.push_back(st.seconds);
    e.window_s += st.seconds;
    if (mover) {
      (st.rebuilt ? e.rebuild_lat : e.update_lat).push_back(st.update_s);
      e.rebuilds += st.rebuilt ? 1 : 0;
    }
    last = std::move(st.r);
    last_q = q;
  }

  if (!counting(c.spec)) {
    // Determinism: after the whole window the resident arena must still
    // reproduce epoch 1 for epoch 1's charges.
    Step again = run_step(*pipe, q1, nullptr, 0, -1);
    std::string why = verify.epoch(q1, again.r, pipe);
    if (why.empty()) why = match_1e12(again.r.potentials, first.r.potentials);
    c.tally.record(why, again.seconds);
  }
  if (c.mesh != nullptr) {
    const std::string g = global_check(c, global, last_q, last.potentials);
    if (!g.empty() && c.mesh->rank() == 0) {
      c.tally.merge_failed({c.tally.attempted()}, {"global sum: " + g});
    }
  }
  return e;
}

// --- Traced run -----------------------------------------------------------------

/// End of the last traced span that started in the current epoch: the
/// epoch's drain returns right after it.
double epoch_end(const EvalResult& r, const EvalPipeline& p) {
  const double epoch0 = p.epoch_start_times().back();
  double end = epoch0 + r.makespan;
  bool any = false;
  for (const TraceEvent& ev : r.trace) {
    if (ev.t0 < epoch0) continue;
    end = any ? std::max(end, ev.t1) : ev.t1;
    any = true;
  }
  return end;
}

/// Per-epoch quantities of one traced steady epoch on one rank.  All are
/// additive across ranks except the *.p50 quantile (max across ranks).
/// `prev_end` is the previous epoch's epoch_end(); it is advanced.
Stats epoch_stats(const EvalResult& r, const CounterSnapshot& before,
                  EvalPipeline& p, int local_workers, double* prev_end) {
  Stats v;
  // The engine's makespan window [end - makespan, end].
  const double end = epoch_end(r, p);
  const double start = end - r.makespan;
  // Idle workers park between epochs and the park counter books a park
  // when it ends, so this epoch's park delta also holds the gap since the
  // previous epoch (while the caller collected traces or re-armed).  That
  // gap is taken off to keep park time inside the window.
  const double gap = std::max(0.0, start - *prev_end);
  *prev_end = end;
  std::array<double, kNumTraceClasses> busy{};
  for (const TraceEvent& ev : r.trace) {
    const double a = std::max(ev.t0, start), b = std::min(ev.t1, end);
    if (b > a && ev.cls < kNumTraceClasses) busy[ev.cls] += b - a;
  }
  const auto delta = [&](const std::string& name) {
    return static_cast<double>(r.counters.value(name) - before.value(name));
  };
  for (const auto& [op, name] : kOps) {
    const auto i = static_cast<std::size_t>(op);
    v[std::string("op.") + name + ".busy_s"] = busy[i];
    v[std::string("op.") + name + ".tasks"] =
        delta(std::string("op.") + to_string(op) + ".tasks");
  }
  double runtime_busy = 0.0;
  for (std::size_t i = kNumOperators; i < kNumTraceClasses; ++i) {
    runtime_busy += busy[i];
  }
  v["runtime.busy_s"] = runtime_busy;
  v["base_s"] = local_workers * r.makespan;
  v["makespan_s"] = r.makespan;
  v["sched.tasks_run"] = delta("sched.tasks_run");
  v["sched.steal_attempts"] = delta("sched.steal_attempts");
  v["sched.steal_success"] = delta("sched.steal_success");
  v["sched.park_s"] =
      std::max(0.0, delta("sched.park_time_us") * 1e-6 - local_workers * gap);
  v["comm.parcels"] = static_cast<double>(r.comm.parcels);
  v["comm.batches"] = static_cast<double>(r.comm.batches);
  v["comm.flush_threshold"] = static_cast<double>(r.comm.flush_threshold);
  v["comm.flush_deadline"] = static_cast<double>(r.comm.flush_deadline);
  v["comm.flush_quiescence"] = static_cast<double>(r.comm.flush_quiescence);
  v["engine.wire_bytes"] = static_cast<double>(r.wire_bytes);
  v["engine.parcels"] = static_cast<double>(r.parcels_sent);
  double gas = 0.0;  // this process's localities only (summed over ranks)
  for (int l = 0; l < p.executor().num_localities(); ++l) {
    const auto loc = static_cast<std::uint32_t>(l);
    if (p.executor().locality_is_local(loc)) {
      gas += static_cast<double>(p.gas_objects_on(loc));
    }
  }
  v["gas.objects"] = gas;
  // Every LCO fire observes one input-wait sample, so the histogram's count
  // is the epoch's fire count, kept in atomic counter shards.  The traced
  // lco_fire instants should agree; they are tallied apart because a
  // non-worker thread (the caller flushing parcels in drain) records its
  // instants into worker 0's unsynchronized buffer and can lose some.
  for (const auto& h : r.counters.histograms) {
    if (h.name != "lco.input_wait_us") continue;
    CounterSnapshot::Histogram d = h;
    for (const auto& hb : before.histograms) {
      if (hb.name != h.name) continue;
      d.count -= hb.count;
      d.sum -= hb.sum;
      for (std::size_t i = 0; i < d.buckets.size(); ++i) {
        d.buckets[i] -= hb.buckets[i];
      }
    }
    v["lco.fires"] = static_cast<double>(d.count);
    v["lco.input_wait_us.p50"] = histogram_quantile(d, 0.5);
  }
  double instants = 0.0;
  const double epoch0 = p.epoch_start_times().back();
  for (const InstantEvent& ie : r.instants) {
    if (ie.kind == InstantKind::kLcoFire && ie.t >= epoch0) instants += 1.0;
  }
  v["trace.lco_fire_instants"] = instants;
  for (const char* k : {"net.msgs_sent", "net.wire_bytes_sent",
                        "net.backpressure_stall_us", "net.termination_rounds",
                        "net.idle_polls", "net.progress_iters",
                        "net.partial_writes"}) {
    v[k] = delta(k);
  }
  return v;
}

/// Gives worker 0's instant buffer room for every epoch of a traced run.
/// The caller's thread records the instants of the parcels it sends
/// (seeding) and flushes (drain) into worker 0's single-writer buffer while
/// the workers run.  If worker 0 grows that buffer at the same moment, the
/// two threads reallocate it together and corrupt the heap ("double free
/// or corruption" at the next free).  With room reserved here and the
/// trace emptied after every epoch (clear() keeps the capacity), no traced
/// epoch grows it; the race can still lose an instant, which the report's
/// trace_integrity counts.  Runs while the executor is idle.
void reserve_trace(EvalPipeline& p) {
  TraceSink& ts = p.executor().trace();
  const std::size_t room = 2 * p.model().dag.nodes.size() + (1u << 16);
  for (std::size_t i = 0; i < room; ++i) {
    ts.record_instant(0, InstantKind::kSteal, -1.0);
  }
  ts.clear();
}

/// Counts that must repeat exactly for one seed; everything else in the
/// traced stats depends on timing (steals, parks, batches, flush causes,
/// net polls and message counts, all busy/park seconds).
bool exact_key(const std::string& k) {
  if (k.rfind("op.", 0) == 0) return k.size() > 6 && k.ends_with(".tasks");
  return k == "engine.parcels" || k == "engine.wire_bytes" ||
         k == "gas.objects" || k == "lco.fires" || k == "comm.parcels";
}

struct TracedSeq {
  std::vector<Stats> epochs;  ///< steady epochs, this rank
  std::vector<double> lat;    ///< steady epochs without a rebuild
  double epoch1_s = 0.0;
  std::vector<double> reset_s, update_s, rebuild_s;
  double rebuilds = 0.0;
  double dirty = 0.0;
  double err = 0.0;
};

/// One pipeline, epoch 1 and kTracedSteady steady epochs (timestep: the
/// last of them rebuilds), with or without tracing.  Same seed → same charges and
/// moves, so two traced sequences must agree on every exact count.
TracedSeq run_sequence(Ctx& c, bool traced) {
  TracedSeq out;
  const EvalConfig cfg = make_config(c.spec, c.seed, traced);
  Charges charges(c.spec, c.seed);
  Verifier verify(c.spec, c.prob, c.seed, c.mesh != nullptr);
  auto kernel = new_kernel(c.spec, cfg);
  auto pipe = new_pipeline(c, *kernel, cfg);
  if (traced) reserve_trace(*pipe);
  // Each EvalResult holds its own copy of the trace, so the executor's
  // buffers are emptied after every epoch (see reserve_trace).
  const auto clear_trace = [&] {
    if (traced) pipe->executor().trace().clear();
  };
  std::unique_ptr<Mover> mover;
  if (c.spec.moves) {
    mover = std::make_unique<Mover>(c.seed, c.spec.threshold, kTracedSteady);
  }

  const auto q1 = charges.next();
  Step first = run_step(*pipe, q1, nullptr, 0, 0);
  clear_trace();
  out.epoch1_s = first.seconds;
  c.tally.record(verify.epoch(q1, first.r, nullptr), first.seconds);
  CounterSnapshot before = first.r.counters;
  double prev_end = traced ? epoch_end(first.r, *pipe) : 0.0;
  for (std::size_t n = 0; n < kTracedSteady; ++n) {
    const auto q = charges.next();
    Step st = run_step(*pipe, q, mover.get(), n, static_cast<std::int64_t>(n + 1));
    clear_trace();
    c.tally.record(verify.epoch(q, st.r, st.rebuilt ? nullptr : pipe.get()),
                   st.seconds);
    // Latency ratios (tracing overhead, parallel efficiency) compare
    // incremental steps only; the rebuild is timed on its own.
    if (!st.rebuilt) out.lat.push_back(st.seconds);
    if (mover) {
      (st.rebuilt ? out.rebuild_s : out.update_s).push_back(st.update_s);
      out.dirty += static_cast<double>(st.dirty);
    }
    if (!st.rebuilt) out.reset_s.push_back(pipe->last_reset_seconds());
    if (traced) {
      const int local = c.mesh != nullptr ? c.spec.cores : workers(c.spec);
      out.epochs.push_back(epoch_stats(st.r, before, *pipe, local, &prev_end));
      before = std::move(st.r.counters);
    }
  }
  out.rebuilds = static_cast<double>(pipe->rebuilds());
  out.err = verify.median_err();
  return out;
}

/// One untraced steady epoch of the same problem on 1 locality x 1 worker.
double single_worker_epoch(Ctx& c) {
  const Spec one{c.spec.name, c.spec.kernel, c.spec.n, c.spec.threshold,
                 1, 1, false, c.spec.moves};
  const EvalConfig cfg = make_config(one, c.seed, false);
  Charges charges(c.spec, c.seed);
  Verifier verify(c.spec, c.prob, c.seed, false);
  auto kernel = new_kernel(one, cfg);
  std::unique_ptr<EvalPipeline> pipe;
  {
    Scoped s("EvalPipeline::EvalPipeline");
    pipe = std::make_unique<EvalPipeline>(*kernel, cfg, c.prob.sources,
                                          c.prob.targets);
  }
  Mover mover(c.seed, c.spec.threshold, kRebuildEvery);
  const auto q1 = charges.next();
  Step first = run_step(*pipe, q1, nullptr, 0, 0);
  c.tally.record(verify.epoch(q1, first.r, nullptr), first.seconds);
  const auto q = charges.next();
  Step st = run_step(*pipe, q, c.spec.moves ? &mover : nullptr, 0, 1);
  c.tally.record(verify.epoch(q, st.r, st.rebuilt ? nullptr : pipe.get()),
                 st.seconds);
  return st.seconds;
}

/// Layer timings taken around the public build calls, median of kReps.
/// The build's counts must repeat exactly across the reps; a mismatch is
/// appended to `diffs`.
Stats layer_timings(const Spec& s, const Problem& p, const EvalConfig& cfg,
                    std::vector<std::string>* diffs) {
  std::vector<double> tree_s, lists_s, setup_s, dag_s;
  Stats v;
  for (int rep = 0; rep < kReps; ++rep) {
    auto kernel = new_kernel(s, cfg);
    Scoped a("build_dual_tree");
    const DualTree dt =
        build_dual_tree(p.sources, p.targets, cfg.threshold, s.localities);
    tree_s.push_back(a.stop());
    const int max_level =
        std::max(dt.source.max_level(), dt.target.max_level());
    Scoped b("Kernel::setup");
    kernel->setup(dt.source.domain().size, max_level + 1, cfg.digits);
    setup_s.push_back(b.stop());
    Scoped l("build_lists");
    const InteractionLists lists = build_lists(dt);
    lists_s.push_back(l.stop());
    DagBuildConfig dcfg;
    dcfg.method = cfg.method;
    dcfg.placement = cfg.placement;
    dcfg.bh_theta = cfg.bh_theta;
    Scoped d("build_dag");
    const Dag dag = build_dag(dt, lists, *kernel, dcfg, s.localities);
    dag_s.push_back(d.stop());
    const DagStats ds = dag.stats();
    const Stats counts{
        {"tree.boxes", static_cast<double>(dt.source.boxes().size() +
                                           dt.target.boxes().size())},
        {"dag.nodes", static_cast<double>(ds.total_nodes)},
        {"dag.edges", static_cast<double>(ds.total_edges)},
        {"kernel.x_terms", static_cast<double>(kernel->x_count(max_level))}};
    for (const auto& [k, val] : counts) {
      if (rep > 0 && v[k] != val) {
        diffs->push_back(k + " differs between builds");
      }
      v[k] = val;
    }
  }
  v["tree.build_s"] = median(tree_s);
  v["tree.lists_s"] = median(lists_s);
  v["kernel.setup_s"] = median(setup_s);
  v["dag.build_s"] = median(dag_s);
  return v;
}

/// Sums two ranks' per-epoch stats (quantiles take the maximum).
Stats merge_ranks(Stats a, const Stats& b) {
  for (const auto& [k, val] : b) {
    if (k.ends_with(".p50")) {
      a[k] = std::max(a[k], val);
    } else {
      a[k] += val;
    }
  }
  return a;
}

/// Median of each key across epochs.
Stats median_stats(const std::vector<Stats>& eps) {
  std::map<std::string, std::vector<double>> cols;
  for (const Stats& s : eps) {
    for (const auto& [k, v] : s) cols[k].push_back(v);
  }
  Stats out;
  for (auto& [k, v] : cols) out[k] = median(v);
  return out;
}

/// Both traced sequences' per-epoch stats as one flat map, keyed
/// "<A|B><epoch>:<name>", for the rank gather.
Stats flatten_epochs(const std::vector<Stats>& a, const std::vector<Stats>& b) {
  Stats flat;
  const auto add = [&](char rep, const std::vector<Stats>& eps) {
    for (std::size_t e = 0; e < eps.size(); ++e) {
      for (const auto& [k, v] : eps[e]) {
        std::string key(1, rep);
        key += std::to_string(e);
        key += ':';
        key += k;
        flat[key] = v;
      }
    }
  };
  add('A', a);
  add('B', b);
  return flat;
}

void decode_epochs(const Stats& flat, std::vector<Stats>* a,
                   std::vector<Stats>* b) {
  for (const auto& [k, v] : flat) {
    const auto colon = k.find(':');
    if (colon == std::string::npos || colon < 2) continue;
    auto& dst = k[0] == 'A' ? *a : *b;
    const auto e = static_cast<std::size_t>(std::stoul(k.substr(1, colon - 1)));
    if (e < dst.size()) dst[e] = merge_ranks(dst[e], {{k.substr(colon + 1), v}});
  }
}

// --- Output -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void write_result(const Tally& tally, bool correct,
                  const std::vector<Metric>& metrics) {
  JsonWriter w;
  w.begin_object();
  w.kv("correct", correct);
  w.kv("attempted", tally.attempted());
  w.kv("failed", tally.failed());
  w.key("metrics");
  w.begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name);
    w.begin_object();
    w.kv("value", m.value);
    w.kv("unit", std::string(m.unit));
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
}

void write_common_report(JsonWriter& w, const Spec& s, std::uint64_t seed,
                         bool traced, const Tally& tally) {
  w.kv("workload", std::string(s.name));
  w.kv("seed", seed);
  w.kv("trace", traced);
  w.key("config");
  w.begin_object();
  w.kv("kernel", std::string(s.kernel));
  w.kv("n", static_cast<std::uint64_t>(s.n));
  w.kv("distribution", std::string("cube"));
  w.kv("threshold", s.threshold);
  w.kv("digits", kDigits);
  w.kv("method", std::string("fmm_advanced"));
  w.kv("coalescing", true);
  w.kv(s.mesh ? "ranks" : "localities", s.localities);
  w.kv(s.mesh ? "workers_per_rank" : "workers_per_locality", s.cores);
  w.kv("loop", std::string("closed, one caller"));
  w.end_object();
  w.key("checks");
  w.begin_object();
  w.kv("attempted", tally.attempted());
  w.kv("failed", tally.failed());
  w.key("failures");
  w.begin_array();
  for (const std::string& r : tally.reasons()) w.value(r);
  w.end_array();
  w.end_object();
  w.key("bench_spans");
  w.begin_object();
  for (const auto& [name, a] : g_spans.totals()) {
    w.key(name);
    w.begin_object();
    w.kv("count", static_cast<std::uint64_t>(a[0]));
    w.kv("total_s", a[1]);
    w.kv("self_s", a[2]);
    w.end_object();
  }
  w.end_object();
}

int report_end_to_end(Ctx& c, const EndToEnd& e, double rss_mb) {
  const Tail tail = tail_of(e.lat);
  const double evals = e.window_s > 0.0 ? e.lat.size() / e.window_s : 0.0;
  JsonWriter w;
  w.begin_object();
  w.key("report");
  w.begin_object();
  write_common_report(w, c.spec, c.seed, false, c.tally);
  w.key("steady");
  w.begin_object();
  w.kv("epochs", static_cast<std::uint64_t>(e.lat.size()));
  w.kv("window_s", e.window_s);
  w.kv("tail_percentile", tail.percentile);
  w.kv("tail_samples_beyond", static_cast<std::uint64_t>(tail.beyond));
  w.kv("setup_reps", static_cast<std::uint64_t>(e.setup.size()));
  w.kv("solve_reps", static_cast<std::uint64_t>(e.solve.size()));
  if (c.spec.moves) {
    w.kv("rebuild_steps", static_cast<std::uint64_t>(e.rebuilds));
    w.kv("incremental_steps",
         static_cast<std::uint64_t>(e.lat.size() - e.rebuilds));
    w.kv("update_p50_s", median(e.update_lat));
    w.kv("rebuild_p50_s", median(e.rebuild_lat));
  }
  w.end_object();
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());

  write_result(c.tally, c.tally.failed() == 0,
               {{"setup_s", median(e.setup), "s"},
                {"solve_s", median(e.solve), "s"},
                {"evals_per_s", evals, "1/s"},
                {"epoch_p50_s", median(e.lat), "s"},
                {"epoch_tail_s", tail.value, "s"},
                {"peak_rss_mb", rss_mb, "MB"}});
  return 0;
}

struct TracedResult {
  Stats layers;                 ///< rank 0 outside-in layer timings
  TracedSeq untraced, a, b;     ///< this rank
  std::vector<Stats> a_all, b_all;  ///< merged across ranks
  double t1 = 0.0;              ///< single-worker epoch
  std::vector<std::string> exact_diff;
};

int report_traced(Ctx& c, TracedResult& t) {
  const Spec& s = c.spec;
  const int w_total = workers(s);
  const Stats m = median_stats(t.a_all);
  const auto get = [&](const char* k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  const double p50_u = median(t.untraced.lat);
  const double p50_t = median(t.a.lat);
  // Reconciliation: span time by class + park + unattributed = workers x
  // makespan, per epoch, summed over ranks.
  double op_busy = 0.0;
  for (const auto& [op, name] : kOps) {
    op_busy += get((std::string("op.") + name + ".busy_s").c_str());
  }
  const double base = get("base_s");
  const double rt_busy = get("runtime.busy_s");
  const double park = get("sched.park_s");
  const double unattributed = base - op_busy - rt_busy - park;
  const bool reconciled = unattributed >= -kReconcileTol * base;

  std::vector<Metric> out;
  const auto put = [&](const std::string& name, double v, const char* unit) {
    out.push_back({name, v, unit});
  };
  for (const char* k : {"tree.build_s", "tree.lists_s", "kernel.setup_s",
                        "dag.build_s"}) {
    put(k, t.layers[k], "s");
  }
  put("tree.boxes", t.layers["tree.boxes"], "count");
  put("pipeline.update_s", median(t.untraced.update_s), "s");
  put("pipeline.rebuild_s", median(t.untraced.rebuild_s), "s");
  put("pipeline.rebuilds", t.a.rebuilds, "count");
  put("tree.dirty_leaves", t.a.dirty, "count");
  for (const auto& [op, name] : kOps) {
    put(std::string("op.") + name + ".busy_s",
        get((std::string("op.") + name + ".busy_s").c_str()), "s");
    put(std::string("op.") + name + ".tasks",
        get((std::string("op.") + name + ".tasks").c_str()), "count");
  }
  put("kernel.x_terms", t.layers["kernel.x_terms"], "count");
  put("accuracy.rel_l2_err", t.untraced.err, "ratio");
  put("dag.nodes", t.layers["dag.nodes"], "count");
  put("dag.edges", t.layers["dag.edges"], "count");
  put("pipeline.epoch1_s", t.untraced.epoch1_s, "s");
  put("pipeline.reset_s", median(t.untraced.reset_s), "s");
  put("engine.wire_bytes", get("engine.wire_bytes"), "B");
  put("engine.parcels", get("engine.parcels"), "count");
  put("gas.objects", get("gas.objects"), "count");
  put("lco.fires", get("lco.fires"), "count");
  put("lco.input_wait_us.p50", get("lco.input_wait_us.p50"), "us");
  const double attempts = get("sched.steal_attempts");
  put("sched.tasks_run", get("sched.tasks_run"), "count");
  put("sched.steal_attempts", attempts, "count");
  put("sched.steal_success_ratio",
      attempts > 0.0 ? get("sched.steal_success") / attempts : 0.0, "ratio");
  put("sched.park_s", park, "s");
  put("sched.utilization", base > 0.0 ? op_busy / base : 0.0, "ratio");
  put("sched.unattributed_s", unattributed, "s");
  put("sched.unattributed_share", base > 0.0 ? unattributed / base : 0.0,
      "ratio");
  put("sched.parallel_efficiency",
      p50_u > 0.0 ? t.t1 / (w_total * p50_u) : 0.0, "ratio");
  const double batches = get("comm.batches");
  put("comm.batches", batches, "count");
  put("comm.coalescing_factor",
      batches > 0.0 ? get("comm.parcels") / batches : 0.0, "ratio");
  put("comm.flush_threshold", get("comm.flush_threshold"), "count");
  put("comm.flush_deadline", get("comm.flush_deadline"), "count");
  put("comm.flush_quiescence", get("comm.flush_quiescence"), "count");
  if (c.mesh != nullptr) {
    const double iters = get("net.progress_iters");
    put("net.connect_s", c.mesh->connect_s(), "s");
    put("net.msgs_sent", get("net.msgs_sent"), "count");
    put("net.wire_bytes_sent", get("net.wire_bytes_sent"), "B");
    put("net.backpressure_stall_us", get("net.backpressure_stall_us"), "us");
    put("net.termination_rounds", get("net.termination_rounds"), "count");
    put("net.idle_poll_ratio",
        iters > 0.0 ? get("net.idle_polls") / iters : 0.0, "ratio");
    put("net.partial_writes", get("net.partial_writes"), "count");
  }
  put("trace.overhead_ratio", p50_u > 0.0 ? p50_t / p50_u : 0.0, "ratio");

  JsonWriter w;
  w.begin_object();
  w.key("report");
  w.begin_object();
  write_common_report(w, s, c.seed, true, c.tally);
  w.key("traced");
  w.begin_object();
  w.kv("steady_epochs_per_sequence", static_cast<std::uint64_t>(kTracedSteady));
  w.kv("workers", w_total);
  w.kv("untraced_epoch_p50_s", p50_u);
  w.kv("traced_epoch_p50_s", p50_t);
  w.kv("single_worker_epoch_s", t.t1);
  w.key("reconciliation");
  w.begin_object();
  w.kv("workers_x_makespan_s", base);
  w.kv("operator_span_s", op_busy);
  w.kv("runtime_span_s", rt_busy);
  w.kv("park_s", park);
  w.kv("unattributed_s", unattributed);
  w.kv("unattributed_share", base > 0.0 ? unattributed / base : 0.0);
  w.kv("tolerance_share", kReconcileTol);
  w.kv("reconciled", reconciled);
  w.end_object();
  // LCO fires counted twice: atomic counters vs traced instants.  A gap is
  // a tracing defect (lost instants), not a wrong answer.
  double lost = 0.0;
  for (const auto* eps : {&t.a_all, &t.b_all}) {
    for (const Stats& e : *eps) {
      lost += std::abs(e.at("lco.fires") - e.at("trace.lco_fire_instants"));
    }
  }
  w.key("trace_integrity");
  w.begin_object();
  w.kv("lco_fires_p50", get("lco.fires"));
  w.kv("lco_fire_instants_p50", get("trace.lco_fire_instants"));
  w.kv("lost_instants_all_epochs", lost);
  w.end_object();
  w.key("exact_count_self_test");
  w.begin_object();
  w.kv("passed", t.exact_diff.empty());
  w.key("mismatches");
  w.begin_array();
  for (const std::string& d : t.exact_diff) w.value(d);
  w.end_array();
  w.key("exact");
  w.begin_array();
  for (const char* k : {"dag.nodes", "dag.edges", "op.*.tasks",
                        "engine.parcels", "engine.wire_bytes", "gas.objects",
                        "lco.fires", "kernel.x_terms", "pipeline.rebuilds",
                        "tree.dirty_leaves", "tree.boxes"}) {
    w.value(k);
  }
  w.end_array();
  w.key("not_exact");
  w.begin_array();
  for (const char* k : {"trace.lco_fire_instants", "sched.tasks_run",
                        "sched.steal_attempts",
                        "sched.steal_success_ratio", "comm.batches",
                        "comm.coalescing_factor", "comm.flush_threshold",
                        "comm.flush_deadline", "comm.flush_quiescence",
                        "net.msgs_sent", "net.wire_bytes_sent",
                        "net.termination_rounds", "net.idle_poll_ratio",
                        "net.partial_writes", "net.backpressure_stall_us",
                        "lco.input_wait_us.p50", "every *_s timing"}) {
    w.value(k);
  }
  w.end_array();
  w.end_object();
  w.end_object();
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  write_result(c.tally, c.tally.failed() == 0, out);
  return 0;
}

void compare_exact(TracedResult& t) {
  const auto check = [&](const std::string& what, double a, double b) {
    if (a != b) {
      std::ostringstream os;
      os.precision(17);
      os << what << ": " << a << " vs " << b;
      if (t.exact_diff.size() < 8) t.exact_diff.push_back(os.str());
    }
  };
  check("epochs", static_cast<double>(t.a_all.size()),
        static_cast<double>(t.b_all.size()));
  for (std::size_t e = 0; e < std::min(t.a_all.size(), t.b_all.size()); ++e) {
    for (const auto& [k, v] : t.a_all[e]) {
      if (!exact_key(k)) continue;
      const auto it = t.b_all[e].find(k);
      check("epoch " + std::to_string(e + 1) + " " + k, v,
            it == t.b_all[e].end() ? -1.0 : it->second);
    }
  }
  check("pipeline.rebuilds", t.a.rebuilds, t.b.rebuilds);
  check("tree.dirty_leaves", t.a.dirty, t.b.dirty);
}

int run_traced(Ctx& c) {
  TracedResult t;
  const bool lead = c.mesh == nullptr || c.mesh->rank() == 0;
  if (lead) {
    t.layers = layer_timings(c.spec, c.prob, make_config(c.spec, c.seed, false),
                             &t.exact_diff);
  }
  t.untraced = run_sequence(c, false);
  t.a = run_sequence(c, true);
  t.b = run_sequence(c, true);
  t.a_all = t.a.epochs;
  t.b_all = t.b.epochs;
  if (c.mesh != nullptr) {
    // Per-rank stats travel to rank 0 with the final gather.
    std::vector<std::string> blobs;
    c.mesh->gather({}, encode_blob(flatten_epochs(t.a.epochs, t.b.epochs), c.tally),
                   &blobs);
    if (!lead) return 0;
    for (const std::string& blob : blobs) {
      Stats flat;
      decode_blob(blob, &flat, &c.tally);
      decode_epochs(flat, &t.a_all, &t.b_all);
    }
  }
  compare_exact(t);
  if (!t.exact_diff.empty()) {
    c.tally.record("exact-count self-test: " + t.exact_diff[0], 0.0);
  }
  t.t1 = single_worker_epoch(c);
  return report_traced(c, t);
}

const Spec* find_spec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

int run(int argc, char** argv) {
  Cli cli(
      "amtfmm benchmark program (use fmmbench/run.py):\n"
      "  fmmbench --workload=paper_laplace --seed=1 --seconds=15 --trace=0");
  cli.add_flag("workload", std::string(""),
               "paper_laplace | dataflow_counting | mesh_2rank | timestep");
  cli.add_flag("seed", std::int64_t{1}, "input seed");
  cli.add_flag("seconds", 10.0, "steady window length");
  cli.add_flag("trace", std::int64_t{0}, "0: end-to-end run, 1: traced run");
  cli.add_flag("out-dir", std::string("."), "where the span log is written");
  cli.parse(argc, argv);

  const Spec* spec = find_spec(cli.str("workload"));
  if (spec == nullptr) {
    std::fprintf(stderr, "fmmbench: unknown workload '%s'\n",
                 cli.str("workload").c_str());
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(cli.i64("seed"));
  const bool traced = cli.i64("trace") != 0;

  std::unique_ptr<Mesh> mesh;
  if (spec->mesh) mesh = std::make_unique<Mesh>(spec->cores);
  const bool lead = !mesh || mesh->rank() == 0;
  const Problem prob = make_problem(*spec, seed);
  Tally tally(lead);
  Ctx c{*spec, seed, cli.f64("seconds"), prob, mesh.get(), tally};

  int rc = 0;
  if (traced) {
    rc = run_traced(c);
  } else {
    const EndToEnd e = run_end_to_end(c);
    double rss = peak_rss_mb();
    if (mesh) {
      std::vector<std::string> blobs;
      mesh->gather({}, encode_blob({{"peak_rss_mb", rss}}, tally), &blobs);
      for (const std::string& blob : blobs) {
        Stats st;
        decode_blob(blob, &st, &tally);
        rss = std::max(rss, st["peak_rss_mb"]);
      }
    }
    if (lead) rc = report_end_to_end(c, e, rss);
  }
  const std::string spans =
      cli.str("out-dir") + "/" + spec->name + ".trace" +
      std::to_string(traced ? 1 : 0) + ".rank" +
      std::to_string(mesh ? mesh->rank() : 0) + ".spans.json";
  if (!g_spans.write(spans)) {
    std::fprintf(stderr, "fmmbench: cannot write %s\n", spans.c_str());
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fmmbench: %s\n", e.what());
    return 1;
  }
}
