#include "runtime/telemetry.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "support/json.hpp"

namespace amtfmm {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Prometheus metric-name charset: [a-zA-Z0-9_]; everything else ('.' in
/// the registry taxonomy) maps to '_'.
std::string prom_name(const std::string& name, const char* suffix) {
  std::string out = "amtfmm_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  out += suffix;
  return out;
}

void prom_line(std::string& out, const std::string& metric,
               std::uint32_t rank, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  out += metric;
  out += "{rank=\"";
  out += std::to_string(rank);
  out += "\"} ";
  out += buf;
  out += '\n';
}

}  // namespace

std::uint64_t TelemetrySample::value(const std::string& name) const {
  for (const auto& c : counters) {
    if (c.name == name) return c.value;
  }
  for (const auto& g : gauges) {
    if (g.name == name) return g.value;
  }
  return 0;
}

const CounterSnapshot::Histogram* TelemetrySample::hist(
    const std::string& name) const {
  for (const auto& h : hists) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

TelemetrySample telemetry_delta(const CounterSnapshot& prev,
                                const CounterSnapshot& cur) {
  TelemetrySample s;
  // Snapshots of one registry list metrics in registration order, so the
  // common case is index alignment; fall back to a name scan if the shapes
  // ever diverge (a metric registered between the two snapshots).
  auto prev_scalar = [](const std::vector<CounterSnapshot::Scalar>& v,
                        const std::string& name,
                        std::size_t hint) -> std::uint64_t {
    if (hint < v.size() && v[hint].name == name) return v[hint].value;
    for (const auto& p : v) {
      if (p.name == name) return p.value;
    }
    return 0;
  };
  s.counters.reserve(cur.counters.size());
  for (std::size_t i = 0; i < cur.counters.size(); ++i) {
    const auto& c = cur.counters[i];
    const std::uint64_t p = prev_scalar(prev.counters, c.name, i);
    // Clamp at 0: a clear() between snapshots makes cur < prev.
    s.counters.push_back({c.name, c.value >= p ? c.value - p : c.value});
  }
  s.gauges = cur.gauges;  // high-water marks: current value, not a delta
  s.hists.reserve(cur.histograms.size());
  for (std::size_t i = 0; i < cur.histograms.size(); ++i) {
    const auto& c = cur.histograms[i];
    const CounterSnapshot::Histogram* p = nullptr;
    if (i < prev.histograms.size() && prev.histograms[i].name == c.name) {
      p = &prev.histograms[i];
    } else {
      for (const auto& ph : prev.histograms) {
        if (ph.name == c.name) {
          p = &ph;
          break;
        }
      }
    }
    CounterSnapshot::Histogram d;
    d.name = c.name;
    if (p != nullptr && c.count >= p->count) {
      d.count = c.count - p->count;
      d.sum = c.sum >= p->sum ? c.sum - p->sum : 0;
      for (std::size_t b = 0; b < d.buckets.size(); ++b) {
        d.buckets[b] = c.buckets[b] >= p->buckets[b]
                           ? c.buckets[b] - p->buckets[b]
                           : 0;
      }
    } else {
      d.count = c.count;
      d.sum = c.sum;
      d.buckets = c.buckets;
    }
    s.hists.push_back(std::move(d));
  }
  return s;
}

namespace {

void telemetry_append_json(JsonWriter& w, const TelemetrySample& s) {
  w.begin_object();
  w.kv("v", std::uint64_t{1});
  w.kv("rank", static_cast<std::uint64_t>(s.rank));
  w.kv("seq", s.seq);
  w.kv("t_s", s.t_s);
  w.kv("dt_s", s.dt_s);
  w.key("counters");
  w.begin_object();
  for (const auto& c : s.counters) w.kv(c.name, c.value);
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& g : s.gauges) w.kv(g.name, g.value);
  w.end_object();
  w.key("hists");
  w.begin_object();
  for (const auto& h : s.hists) {
    w.key(h.name);
    w.begin_object();
    w.kv("count", h.count);
    w.kv("sum", h.sum);
    w.key("buckets");
    w.begin_array();
    std::size_t last = h.buckets.size();
    while (last > 0 && h.buckets[last - 1] == 0) --last;
    for (std::size_t i = 0; i < last; ++i) w.value(h.buckets[i]);
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

}  // namespace

std::string telemetry_encode(const TelemetrySample& s) {
  JsonWriter w;
  telemetry_append_json(w, s);
  return w.str();
}

namespace {

bool sample_from_value(const JsonValue& v, TelemetrySample& out,
                       std::string& error) {
  if (!v.is_object()) {
    error = "telemetry sample is not an object";
    return false;
  }
  if (static_cast<int>(v.num_or("v", 0)) != 1) {
    error = "telemetry sample has unknown version";
    return false;
  }
  out = TelemetrySample{};
  out.rank = static_cast<std::uint32_t>(v.num_or("rank", 0));
  out.seq = static_cast<std::uint64_t>(v.num_or("seq", 0));
  out.t_s = v.num_or("t_s", 0.0);
  out.dt_s = v.num_or("dt_s", 0.0);
  auto scalars = [](const JsonValue* obj,
                    std::vector<CounterSnapshot::Scalar>& dst) {
    if (obj == nullptr || !obj->is_object()) return;
    for (const auto& [name, val] : obj->object) {
      dst.push_back({name, static_cast<std::uint64_t>(val.number)});
    }
  };
  scalars(v.find("counters"), out.counters);
  scalars(v.find("gauges"), out.gauges);
  if (const JsonValue* hs = v.find("hists"); hs != nullptr && hs->is_object()) {
    for (const auto& [name, hv] : hs->object) {
      CounterSnapshot::Histogram h;
      h.name = name;
      h.count = static_cast<std::uint64_t>(hv.num_or("count", 0));
      h.sum = static_cast<std::uint64_t>(hv.num_or("sum", 0));
      if (const JsonValue* bs = hv.find("buckets");
          bs != nullptr && bs->is_array()) {
        const std::size_t n = std::min(bs->array.size(), h.buckets.size());
        for (std::size_t i = 0; i < n; ++i) {
          h.buckets[i] = static_cast<std::uint64_t>(bs->array[i].number);
        }
      }
      out.hists.push_back(std::move(h));
    }
  }
  return true;
}

}  // namespace

bool telemetry_decode(const std::string& text, TelemetrySample& out,
                      std::string& error) {
  JsonValue v;
  if (!json_parse(text, v, error)) return false;
  return sample_from_value(v, out, error);
}

std::string telemetry_render_prom(
    const std::vector<TelemetrySample>& latest) {
  // One # TYPE line per metric, then the per-rank series.  Collect names
  // first so ranks with different metric sets (they shouldn't differ, but
  // a late-starting rank may have shipped nothing yet) still merge.
  std::string out;
  std::vector<std::string> counter_names;
  std::vector<std::string> gauge_names;
  std::vector<std::string> hist_names;
  auto note = [](std::vector<std::string>& v, const std::string& n) {
    if (std::find(v.begin(), v.end(), n) == v.end()) v.push_back(n);
  };
  for (const auto& s : latest) {
    for (const auto& c : s.counters) note(counter_names, c.name);
    for (const auto& g : s.gauges) note(gauge_names, g.name);
    for (const auto& h : s.hists) note(hist_names, h.name);
  }
  for (const auto& name : counter_names) {
    const std::string metric = prom_name(name, "_rate");
    out += "# TYPE " + metric + " gauge\n";
    for (const auto& s : latest) {
      prom_line(out, metric, s.rank,
                s.dt_s > 0.0
                    ? static_cast<double>(s.value(name)) / s.dt_s
                    : 0.0);
    }
  }
  for (const auto& name : gauge_names) {
    const std::string metric = prom_name(name, "");
    out += "# TYPE " + metric + " gauge\n";
    for (const auto& s : latest) {
      prom_line(out, metric, s.rank, static_cast<double>(s.value(name)));
    }
  }
  for (const auto& name : hist_names) {
    const std::string count_m = prom_name(name, "_window_count");
    const std::string p50_m = prom_name(name, "_p50");
    const std::string p99_m = prom_name(name, "_p99");
    out += "# TYPE " + count_m + " gauge\n";
    out += "# TYPE " + p50_m + " gauge\n";
    out += "# TYPE " + p99_m + " gauge\n";
    for (const auto& s : latest) {
      const CounterSnapshot::Histogram* h = s.hist(name);
      const double count = h != nullptr ? static_cast<double>(h->count) : 0.0;
      prom_line(out, count_m, s.rank, count);
      prom_line(out, p50_m, s.rank,
                h != nullptr ? histogram_quantile(*h, 0.5) : 0.0);
      prom_line(out, p99_m, s.rank,
                h != nullptr ? histogram_quantile(*h, 0.99) : 0.0);
    }
  }
  return out;
}

TelemetrySampler::TelemetrySampler(CounterRegistry& reg, std::uint32_t rank,
                                   double interval_s, ShipFn ship)
    : reg_(reg),
      rank_(rank),
      interval_s_(std::max(interval_s, 0.01)),
      ship_(std::move(ship)),
      prev_(reg.snapshot()),
      origin_(Clock::now()),
      last_(origin_) {
  th_ = std::thread([this] { loop(); });
}

TelemetrySampler::~TelemetrySampler() { stop(); }

void TelemetrySampler::stop() {
  {
    SyncLockGuard lk(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (th_.joinable()) th_.join();
  // Final flush off-thread so runs shorter than one interval still ship
  // one sample (check_telemetry.py scrapes right after a short serve run).
  take_sample(true);
}

void TelemetrySampler::take_sample(bool final_flush) {
  const Clock::time_point now = Clock::now();
  const double dt = seconds_between(last_, now);
  if (final_flush && dt < 1e-4) return;  // nothing meaningful to report
  CounterSnapshot cur = reg_.snapshot();
  TelemetrySample s = telemetry_delta(prev_, cur);
  prev_ = std::move(cur);
  s.rank = rank_;
  s.seq = seq_++;
  s.t_s = seconds_between(origin_, now);
  s.dt_s = dt;
  last_ = now;
  if (ship_) ship_(telemetry_encode(s));
}

void TelemetrySampler::loop() {
  SyncUniqueLock lk(mu_);
  while (!stop_) {
    // Explicit deadline loop (no predicate overload; see sync_hook.hpp):
    // re-wait after spurious wakeups until the interval elapses or stop().
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(interval_s_);
    while (!stop_) {
      if (cv_.wait_until(lk, deadline) == std::cv_status::timeout) break;
    }
    if (stop_) break;
    lk.unlock();
    take_sample(false);
    lk.lock();
  }
}

TelemetryAggregator::TelemetryAggregator(std::uint32_t world,
                                         std::string snapshot_path,
                                         std::size_t keep)
    : world_(world),
      path_(std::move(snapshot_path)),
      keep_(std::max<std::size_t>(keep, 1)),
      series_(std::max<std::uint32_t>(world, 1)) {
  th_ = std::thread([this] { loop(); });
}

TelemetryAggregator::~TelemetryAggregator() { stop(); }

void TelemetryAggregator::enqueue(std::string&& sample_json) {
  {
    SyncLockGuard lk(mu_);
    if (stop_) return;
    queue_.push_back(std::move(sample_json));
  }
  cv_.notify_all();
}

void TelemetryAggregator::stop() {
  {
    SyncLockGuard lk(mu_);
    if (stop_ && !th_.joinable()) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (th_.joinable()) th_.join();
}

bool TelemetryAggregator::ingest(const std::string& text) {
  TelemetrySample s;
  std::string err;
  if (!telemetry_decode(text, s, err) || s.rank >= series_.size()) {
    ++rejected_;
    return false;
  }
  auto& series = series_[s.rank];
  series.push_back(std::move(s));
  while (series.size() > keep_) series.pop_front();
  ++accepted_;
  return true;
}

void TelemetryAggregator::write_snapshot() {
  if (path_.empty()) return;
  JsonWriter w;
  w.begin_object();
  w.kv("v", std::uint64_t{1});
  w.kv("world", static_cast<std::uint64_t>(world_));
  w.kv("accepted", accepted_);
  w.kv("rejected", rejected_);
  w.key("ranks");
  w.begin_array();
  for (std::size_t r = 0; r < series_.size(); ++r) {
    w.begin_object();
    w.kv("rank", static_cast<std::uint64_t>(r));
    w.key("samples");
    w.begin_array();
    for (const auto& s : series_[r]) telemetry_append_json(w, s);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  // Atomic publish: a reader polling the file either sees the previous
  // snapshot or this one, never a torn write.
  const std::string tmp = path_ + ".tmp";
  if (w.write_file(tmp)) std::rename(tmp.c_str(), path_.c_str());
}

void TelemetryAggregator::loop() {
  SyncUniqueLock lk(mu_);
  for (;;) {
    // Explicit deadline loop (no predicate overload; see sync_hook.hpp).
    const auto deadline = Clock::now() + std::chrono::milliseconds(250);
    while (!stop_ && queue_.empty()) {
      if (cv_.wait_until(lk, deadline) == std::cv_status::timeout) break;
    }
    std::deque<std::string> batch;
    batch.swap(queue_);
    const bool stopping = stop_;
    lk.unlock();
    bool changed = false;
    for (const auto& text : batch) changed |= ingest(text);
    if (changed || stopping) write_snapshot();
    if (stopping) return;
    lk.lock();
  }
}

bool telemetry_load_snapshot(const std::string& path,
                             std::vector<std::vector<TelemetrySample>>& out,
                             std::string& error) {
  std::string text;
  if (!read_file(path, text)) {
    error = "unreadable snapshot file: " + path;
    return false;
  }
  JsonValue v;
  if (!json_parse(text, v, error)) return false;
  const JsonValue* ranks = v.find("ranks");
  if (ranks == nullptr || !ranks->is_array()) {
    error = "snapshot has no ranks array";
    return false;
  }
  const auto world =
      static_cast<std::size_t>(std::max(v.num_or("world", 0.0), 0.0));
  out.assign(std::max(world, ranks->array.size()), {});
  for (const auto& rv : ranks->array) {
    const auto rank = static_cast<std::size_t>(rv.num_or("rank", 0));
    if (rank >= out.size()) continue;
    const JsonValue* samples = rv.find("samples");
    if (samples == nullptr || !samples->is_array()) continue;
    for (const auto& sv : samples->array) {
      TelemetrySample s;
      std::string err;
      if (sample_from_value(sv, s, err)) out[rank].push_back(std::move(s));
    }
  }
  return true;
}

}  // namespace amtfmm
