#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/sync_hook.hpp"
#include "support/error.hpp"

namespace amtfmm {

class JsonWriter;

/// Point-in-time view of every registered metric, merged across the
/// per-worker shards: counters sum, gauges take the maximum (they record
/// high-water marks), histograms sum bucket-wise.  Snapshots are attached
/// to EvalResult and serialized by the bench `--json` outputs and
/// the Chrome trace exporter.
struct CounterSnapshot {
  struct Scalar {
    std::string name;
    std::uint64_t value = 0;
  };
  struct Histogram {
    std::string name;
    std::uint64_t count = 0;  ///< total observations
    std::uint64_t sum = 0;    ///< summed observed values
    /// Bucket i counts observations in [2^i, 2^(i+1)); bucket 0 is [0, 2).
    std::array<std::uint64_t, 32> buckets{};
  };
  std::vector<Scalar> counters;
  std::vector<Scalar> gauges;
  std::vector<Histogram> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
  /// Value of a counter/gauge by name; 0 when absent.
  std::uint64_t value(const std::string& name) const;
  /// Serializes the snapshot as one JSON object (counters/gauges flat,
  /// histograms as {count, sum, buckets}).  One writer everywhere, so
  /// every bench and the trace exporter emit the identical schema.
  void append_json(JsonWriter& w) const;
};

/// Quantile estimate (q in [0, 1]) from a log2-bucketed histogram, used
/// by the serve latency readouts and amtfmm_top.  The rank q*count is
/// located in the cumulative bucket counts and linearly interpolated
/// inside its bucket [2^i, 2^(i+1)) — bucket 0 spans [0, 2).  The top
/// bucket is open-ended; observations saturated there interpolate toward
/// twice its lower edge (the best bound a log2 histogram can give).
/// Returns 0 for an empty histogram.  Accuracy is inherently bucket-
/// limited: the true quantile lies within a factor of 2.
double histogram_quantile(const CounterSnapshot::Histogram& h, double q);

/// Registry of named runtime metrics with per-worker sharded storage.
///
/// Hot-path updates (add / gauge_max / observe) are lock free and touch
/// only the calling worker's cache lines: each shard is a fixed-capacity
/// array of relaxed atomics, preallocated at construction so registration
/// never reallocates under concurrent updates.  With the registry disabled
/// every update is a single relaxed load + branch — the same near-zero
/// disabled cost discipline as TraceSink::enabled().
///
/// Registration (counter()/gauge()/histogram()) is NOT thread safe and must
/// happen before workers start updating — in practice the runtime registers
/// its standard set at construction and the engine registers per-operator
/// counters before seeding the DAG.
class CounterRegistry {
 public:
  using Id = std::uint32_t;
  static constexpr Id kNoId = 0xffffffffu;
  static constexpr std::size_t kMaxScalars = 192;
  static constexpr std::size_t kMaxHistograms = 16;
  static constexpr std::size_t kHistBuckets = 32;

  explicit CounterRegistry(int workers);

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Registers a monotonically increasing counter; returns its id.
  /// Registering an existing name returns the existing id.
  Id counter(const std::string& name) { return reg(name, Kind::kCounter); }
  /// Registers a gauge (merged across workers by maximum — high-water use).
  Id gauge(const std::string& name) { return reg(name, Kind::kGauge); }
  /// Registers a log2-bucketed histogram.
  Id histogram(const std::string& name);

  /// Id of a registered scalar/histogram, kNoId when absent.
  Id find(const std::string& name) const;

  int workers() const { return static_cast<int>(shards_.size()); }

  /// Adds to a counter on the given worker shard.  No-op when disabled.
  void add(int worker, Id id, std::uint64_t delta = 1) {
    if (!enabled()) return;
    shard(worker).scalars[id].fetch_add(delta, std::memory_order_relaxed);
  }

  /// Raises a gauge to at least `value` on the given worker shard.
  void gauge_max(int worker, Id id, std::uint64_t value) {
    if (!enabled()) return;
    auto& g = shard(worker).scalars[id];
    std::uint64_t cur = g.load(std::memory_order_relaxed);
    while (cur < value &&
           !g.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
    }
  }

  /// Records one histogram observation on the given worker shard.
  ///
  /// `count` is updated last, with release: a snapshot that acquire-reads
  /// a shard's count therefore also sees the bucket and sum updates of
  /// every counted observation, so snapshots never report a count whose
  /// observations are missing from sum/buckets.  rtcheck mutation point:
  /// the pre-fix buckets/count/sum order lets a concurrent snapshot see
  /// count raised while sum still lags (counters.snapshot_consistency).
  void observe(int worker, Id id, std::uint64_t value) {
    if (!enabled()) return;
    auto& h = shard(worker).hists[id];
    const bool count_early = rt_mutation(Mutation::kCountersCountEarly);
    hooked_fetch_add(h.buckets[bucket_of(value)], 1,
                     std::memory_order_relaxed);
    if (count_early) {
      hooked_fetch_add(h.count, 1, std::memory_order_relaxed);
    }
    hooked_fetch_add(h.sum, value, std::memory_order_relaxed);
    if (!count_early) {
      hooked_fetch_add(h.count, 1, std::memory_order_release);
    }
  }

  CounterSnapshot snapshot() const;
  /// Zeroes every shard (registrations are kept).
  void clear();

  /// log2 bucket index of a value (bucket 0 holds 0 and 1).
  static std::size_t bucket_of(std::uint64_t v) {
    std::size_t b = 0;
    while (v > 1 && b + 1 < kHistBuckets) {
      v >>= 1;
      ++b;
    }
    return b;
  }

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge };

  struct HistShard {
    std::array<std::atomic<std::uint64_t>, kHistBuckets> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
  };
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kMaxScalars> scalars{};
    std::array<HistShard, kMaxHistograms> hists{};
  };

  Id reg(const std::string& name, Kind kind);

  /// Out-of-range worker ids (main thread, sim event loop) fold onto shard
  /// 0 — updates are atomic, so sharing a shard is merely less parallel.
  Shard& shard(int worker) {
    const auto w = static_cast<std::size_t>(worker);
    return *shards_[w < shards_.size() ? w : 0];
  }

  std::atomic<bool> enabled_{false};
  std::vector<std::string> scalar_names_;
  std::vector<Kind> scalar_kinds_;
  std::vector<std::string> hist_names_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace amtfmm
