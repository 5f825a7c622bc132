#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "runtime/counters.hpp"
#include "runtime/sync_hook.hpp"

namespace amtfmm {

class JsonWriter;

/// One periodic per-rank metrics sample: the counter *deltas* over the
/// sampling window, current gauge values, and histogram deltas.  Shipping
/// window deltas (rather than cumulative values) means a sample is useful
/// on its own — tasks/s is delta/dt, serve p50/p99 come straight from the
/// window's histogram — and a lost sample degrades to a gap instead of a
/// permanently skewed rate.
struct TelemetrySample {
  std::uint32_t rank = 0;
  std::uint64_t seq = 0;  ///< per-rank sample index (gaps = drops)
  double t_s = 0.0;       ///< steady-clock seconds since the sampler started
  double dt_s = 0.0;      ///< window the deltas cover
  std::vector<CounterSnapshot::Scalar> counters;    ///< window deltas
  std::vector<CounterSnapshot::Scalar> gauges;      ///< current values
  std::vector<CounterSnapshot::Histogram> hists;    ///< window deltas

  /// Value of a counter delta / gauge by name; 0 when absent.
  std::uint64_t value(const std::string& name) const;
  /// Histogram delta by name; nullptr when absent.
  const CounterSnapshot::Histogram* hist(const std::string& name) const;
};

/// Window delta between two snapshots of the same registry: counters and
/// histograms subtract (clamped at 0 in case of a clear() between them),
/// gauges pass through as current values.
TelemetrySample telemetry_delta(const CounterSnapshot& prev,
                                const CounterSnapshot& cur);

/// Sample wire format is one JSON object (the same schema the aggregator
/// snapshot embeds): {"v":1,"rank":..,"seq":..,"t_s":..,"dt_s":..,
/// "counters":{..},"gauges":{..},"hists":{name:{count,sum,buckets}}}.
std::string telemetry_encode(const TelemetrySample& s);
bool telemetry_decode(const std::string& text, TelemetrySample& out,
                      std::string& error);

/// Prometheus-style text exposition of the latest sample per rank:
/// counters become per-second rate gauges (`amtfmm_<name>_rate`), gauges
/// map directly, histograms expose window count/p50/p99.  Metric names
/// sanitize '.' to '_'.  Grammar is validated by scripts/check_telemetry.py.
std::string telemetry_render_prom(const std::vector<TelemetrySample>& latest);

/// Per-locality sampling thread: every `interval_s` it snapshots the
/// registry, computes the window delta against the previous snapshot, and
/// hands the encoded sample to `ship`.  The registry snapshot is lock-free
/// (relaxed/acquire loads over the shards), so sampling never perturbs
/// worker hot paths; the sampler thread itself does the allocation and
/// encoding work.  `ship` runs on the sampler thread — for rank > 0 it
/// posts the bytes over the transport's telemetry side channel, on rank 0
/// it enqueues straight into the aggregator.
class TelemetrySampler {
 public:
  using ShipFn = std::function<void(std::string&&)>;

  TelemetrySampler(CounterRegistry& reg, std::uint32_t rank,
                   double interval_s, ShipFn ship);
  ~TelemetrySampler();

  /// Stops the thread; idempotent.  A final sample is taken on stop so
  /// short runs (shorter than one interval) still produce data.
  void stop();

  std::uint64_t samples() const { return seq_; }

 private:
  void loop();
  void take_sample(bool final_flush);

  CounterRegistry& reg_;
  std::uint32_t rank_;
  double interval_s_;
  ShipFn ship_;
  CounterSnapshot prev_;
  std::chrono::steady_clock::time_point origin_;
  std::chrono::steady_clock::time_point last_;
  std::uint64_t seq_ = 0;
  SyncMutex mu_;
  SyncCondVar cv_;
  bool stop_ GUARDED_BY(mu_) = false;
  std::thread th_;
};

/// Rank-0 collection point: samples arrive as raw JSON (local sampler or
/// the transport's telemetry frames), a writer thread parses them into
/// bounded per-rank series and republishes the whole series as one atomic
/// snapshot file (write tmp, rename) that amtfmm_top polls.  enqueue() is
/// called from the transport progress thread, so it only appends to a
/// queue under a mutex — parsing, bookkeeping, and file I/O all happen on
/// the writer thread.
class TelemetryAggregator {
 public:
  /// `keep` bounds the per-rank series (oldest samples drop).
  TelemetryAggregator(std::uint32_t world, std::string snapshot_path,
                      std::size_t keep = 120);
  ~TelemetryAggregator();

  /// Thread-safe, cheap: queue append + notify.  Dropped after stop().
  void enqueue(std::string&& sample_json);
  /// Drains the queue, writes a final snapshot, joins.  Idempotent.
  void stop();

  std::uint64_t accepted() const { return accepted_; }
  std::uint64_t rejected() const { return rejected_; }

 private:
  void loop();
  bool ingest(const std::string& text);
  void write_snapshot();

  std::uint32_t world_;
  std::string path_;
  std::size_t keep_;
  std::vector<std::deque<TelemetrySample>> series_;  ///< writer thread only
  std::uint64_t accepted_ = 0;  ///< writer thread writes, readers race benignly
  std::uint64_t rejected_ = 0;
  SyncMutex mu_;
  SyncCondVar cv_;
  std::deque<std::string> queue_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  std::thread th_;
};

/// Parses an aggregator snapshot file back into per-rank series (outer
/// index = rank).  Used by amtfmm_top and the telemetry tests.
bool telemetry_load_snapshot(const std::string& path,
                             std::vector<std::vector<TelemetrySample>>& out,
                             std::string& error);

}  // namespace amtfmm
