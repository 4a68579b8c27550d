#include "serve/metrics.hpp"

#include <bit>

namespace cnn2fpga::serve {

namespace {
std::size_t bucket_index(std::uint64_t value) {
  const std::size_t width = static_cast<std::size_t>(std::bit_width(value));
  return width < Histogram::kBuckets ? width : Histogram::kBuckets - 1;
}
}  // namespace

void Histogram::record(std::uint64_t value) {
  buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

double Histogram::mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

HistogramCounts Histogram::snapshot() const {
  HistogramCounts counts;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    counts.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  counts.count = count();
  counts.sum = sum();
  counts.max = max();
  return counts;
}

std::uint64_t HistogramCounts::percentile(double p) const {
  if (count == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  const double target = p * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    cumulative += buckets[i];
    if (static_cast<double>(cumulative) >= target) {
      // Never report beyond the observed maximum (tightens the top bucket).
      const std::uint64_t bound = Histogram::bucket_upper_bound(i);
      return bound < max ? bound : max;
    }
  }
  return max;
}

json::Value HistogramCounts::to_json() const {
  json::Object out;
  out["count"] = count;
  out["sum"] = sum;
  out["mean"] = count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  out["max"] = max;
  out["p50"] = percentile(0.50);
  out["p95"] = percentile(0.95);
  out["p99"] = percentile(0.99);
  json::Array pairs;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (buckets[i] == 0) continue;
    json::Array pair;
    pair.push_back(json::Value(static_cast<std::int64_t>(i)));
    pair.push_back(json::Value(buckets[i]));
    pairs.push_back(json::Value(std::move(pair)));
  }
  out["buckets"] = std::move(pairs);
  return json::Value(std::move(out));
}

double ServeMetrics::cache_hit_rate() const {
  const std::uint64_t total = deploys.value();
  return total == 0 ? 0.0
                    : static_cast<double>(deploy_cache_hits.value()) /
                          static_cast<double>(total);
}

json::Value ServeMetrics::to_json() const {
  json::Object out;
  json::Object deploy;
  deploy["total"] = deploys.value();
  deploy["cache_hits"] = deploy_cache_hits.value();
  deploy["cache_hit_rate"] = cache_hit_rate();
  deploy["evictions"] = deploy_evictions.value();
  out["deploy"] = std::move(deploy);

  json::Object predict;
  predict["total"] = predictions.value();
  predict["errors"] = predict_errors.value();
  predict["batches"] = batches.value();
  predict["batch_size"] = batch_size.to_json();
  predict["queue_us"] = queue_us.to_json();
  predict["exec_us"] = exec_us.to_json();
  predict["accel_us"] = accel_us.to_json();
  out["predict"] = std::move(predict);

  json::Object backends;
  for (std::size_t i = 0; i < kBackendCount; ++i) {
    json::Object one;
    one["dispatched"] = backend[i].dispatched.value();
    one["inline"] = backend[i].inline_batches.value();
    one["batches"] = backend[i].batches.value();
    one["images"] = backend[i].images.value();
    one["errors"] = backend[i].errors.value();
    one["exec_us"] = backend[i].exec_us.to_json();
    backends[backend_name(static_cast<BackendId>(i))] = std::move(one);
  }
  out["backends"] = std::move(backends);

  json::Object precisions;
  for (std::size_t i = 0; i < nn::kServePrecisionCount; ++i) {
    json::Object one;
    one["dispatched"] = precision[i].dispatched.value();
    one["batches"] = precision[i].batches.value();
    one["images"] = precision[i].images.value();
    one["exec_us"] = precision[i].exec_us.to_json();
    precisions[nn::serve_precision_name(static_cast<nn::ServePrecision>(i))] =
        std::move(one);
  }
  out["precisions"] = std::move(precisions);

  json::Object overload;
  overload["admitted"] = admitted.value();
  overload["shed"] = shed.value();
  overload["expired"] = expired.value();
  overload["breaker_rejects"] = breaker_rejects.value();
  overload["breaker_opens"] = breaker_opens.value();
  overload["queue_depth"] = queue_depth.value();
  overload["queue_depth_peak"] = queue_depth.peak();
  out["overload"] = std::move(overload);
  return json::Value(std::move(out));
}

}  // namespace cnn2fpga::serve
