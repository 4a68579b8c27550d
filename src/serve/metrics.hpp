// Serving metrics: lock-cheap counters and latency histograms.
//
// Every hot-path touch is a relaxed atomic increment — no mutex is taken
// while a prediction is in flight. Snapshots (`to_json`) read the atomics
// without stopping writers, so a scrape sees a consistent-enough view for
// monitoring (individual counters are exact; cross-counter skew is bounded
// by whatever landed between two loads).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "json/json.hpp"
#include "nn/quantize.hpp"
#include "serve/backend/ids.hpp"

namespace cnn2fpga::serve {

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Level gauge with a high-water mark. Writers publish the current level
/// with relaxed stores (the batcher updates it under its own lock, so the
/// value is exact); readers see the instantaneous level and the peak ever
/// reached — the number the "memory stays bounded" guarantee is judged by.
class Gauge {
 public:
  void set(std::uint64_t value) {
    value_.store(value, std::memory_order_relaxed);
    std::uint64_t seen = peak_.load(std::memory_order_relaxed);
    while (value > seen &&
           !peak_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
    }
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  std::uint64_t peak() const { return peak_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
  std::atomic<std::uint64_t> peak_{0};
};

/// Plain bucket counts of a log2 histogram: what a live Histogram snapshots
/// into and what a fleet aggregator sums scraped worker histograms into. Both
/// render through the one percentile rule and the one JSON shape here.
struct HistogramCounts {
  static constexpr std::size_t kBuckets = 40;  ///< covers values up to ~2^39

  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;

  /// Value below which fraction `p` (0..1) of the samples fall, estimated as
  /// the upper bound of the containing bucket but never above `max`. 0 if
  /// empty.
  std::uint64_t percentile(double p) const;

  /// {"count", "sum", "mean", "max", "p50", "p95", "p99",
  ///  "buckets": [[index, count], ...]} — `buckets` is sparse (non-empty
  /// buckets only) so a router can merge histograms across workers exactly
  /// instead of approximating from pre-computed percentiles.
  json::Value to_json() const;
};

/// Log2-bucketed histogram of non-negative integer samples (microseconds,
/// batch sizes). Recording is a pair of relaxed atomic adds; percentiles are
/// estimated as the upper bound of the containing power-of-two bucket, so
/// p50/p95/p99 are exact to within a factor of two — plenty for spotting a
/// queueing regression, at zero locking cost.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = HistogramCounts::kBuckets;

  /// Largest value bucket `index` can hold: 2^index - 1 (bucket 0 holds only
  /// 0).
  static std::uint64_t bucket_upper_bound(std::size_t index) {
    return index == 0 ? 0 : (std::uint64_t{1} << index) - 1;
  }

  void record(std::uint64_t value);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  double mean() const;

  /// Value below which fraction `p` (0..1) of the samples fall. 0 if empty.
  std::uint64_t percentile(double p) const { return snapshot().percentile(p); }

  /// The shape of HistogramCounts::to_json.
  json::Value to_json() const { return snapshot().to_json(); }

  HistogramCounts snapshot() const;

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// All counters of the serving runtime, in one scrape-friendly bundle.
struct ServeMetrics {
  // Deploy path.
  Counter deploys;            ///< total deploy requests that reached the registry
  Counter deploy_cache_hits;  ///< deploys answered by a resident design
  Counter deploy_evictions;   ///< designs dropped by the LRU bound

  // Predict path.
  Counter predictions;        ///< individual images served
  Counter predict_errors;     ///< requests failed (bad input, shutdown, ...)
  Counter batches;            ///< micro-batches executed

  // Overload / failure containment.
  Counter admitted;           ///< requests accepted into the batcher
  Counter shed;               ///< requests rejected by bounded admission (429)
  Counter expired;            ///< requests dropped past their deadline (504)
  Counter breaker_rejects;    ///< requests rejected by an open breaker (503)
  Counter breaker_opens;      ///< closed/half-open -> open transitions
  Gauge queue_depth;          ///< admitted-but-not-executing requests (+ peak)

  Histogram batch_size;       ///< images per executed batch
  Histogram queue_us;         ///< request wait in the batcher queue
  Histogram exec_us;          ///< batch execution time (host functional model)
  Histogram accel_us;         ///< modeled accelerator invocation time per batch

  /// Per-backend dispatch and execution counters (indexed by
  /// backend_index()); a runtime feeds only its engine's. `dispatched` counts
  /// flushed batches handed to the engine; `batches`/`images` count completed
  /// executions, `errors` failed ones.
  struct BackendMetrics {
    Counter dispatched;       ///< batches handed to this backend
    Counter inline_batches;   ///< of those, batches run on the submitting
                              ///< thread in an idle slot (JSON "inline")
    Counter batches;          ///< batches that executed successfully
    Counter images;           ///< images served by this backend
    Counter errors;           ///< batches that failed on this backend
    Histogram exec_us;        ///< batch execution time on this backend
  };
  BackendMetrics backend[kBackendCount];
  /// Per-serving-precision dispatch and latency counters (indexed by
  /// nn::serve_precision_index()): which arithmetic each batch ran in, and
  /// what it cost. `dispatched` counts batches that started executing at the
  /// precision (including ones that then failed); `batches`/`images` count
  /// successful executions.
  struct PrecisionMetrics {
    Counter dispatched;       ///< batches executed at this precision
    Counter batches;          ///< batches that completed successfully
    Counter images;           ///< images served at this precision
    Histogram exec_us;        ///< batch execution time at this precision
  };
  PrecisionMetrics precision[nn::kServePrecisionCount];

  double cache_hit_rate() const;

  json::Value to_json() const;
  std::string to_json_text() const { return to_json().dump(); }
};

}  // namespace cnn2fpga::serve
