// Metrics registry (ISSUE 6, pillar 2).
//
// Named counters, gauges, and HDR-style log-bucketed histograms. The harness
// gives every replica a MetricsRegistry (shared across restarts, like the
// ledger handle); engines record per-stage latencies into histograms, and
// collect_metrics folds every replica's counter snapshot plus registry into
// one RunMetrics registry that benches emit generically — adding a counter is
// a one-line change at the increment site, with no copy chain to thread.
//
// Recording is deterministic (plain memory writes, no clock or RNG), so the
// registry is always on.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace sbft::obs {

/// Log-bucketed histogram of non-negative integer samples (microseconds in
/// practice). Each power-of-two range is split into 2^kSubBits sub-buckets,
/// bounding relative quantile error at 2^-kSubBits (12.5%) while using a
/// fixed ~4 KiB of memory regardless of range — the classic HDR layout.
class Histogram {
 public:
  static constexpr uint32_t kSubBits = 3;
  static constexpr size_t kNumBuckets = (64 - kSubBits + 1) << kSubBits;

  void record(int64_t value);
  void merge(const Histogram& other);

  uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  int64_t min() const { return count_ ? min_ : 0; }
  int64_t max() const { return count_ ? max_ : 0; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  /// Value at quantile p in [0,1]; upper bound of the containing bucket,
  /// clamped to the observed [min, max].
  int64_t percentile(double p) const;

 private:
  static size_t bucket_index(uint64_t v);
  static int64_t bucket_upper_bound(size_t idx);

  std::vector<uint64_t> buckets_;  // sized lazily on first record()
  uint64_t count_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
  double sum_ = 0.0;
};

/// String-keyed counters (uint64), gauges (double), and histograms.
/// Iteration is in name order (std::map), so emission is deterministic.
class MetricsRegistry {
 public:
  uint64_t& counter(std::string_view name);
  void add(std::string_view name, uint64_t delta) { counter(name) += delta; }
  /// Counter value; 0 if the counter was never touched.
  uint64_t value(std::string_view name) const;

  double& gauge(std::string_view name);

  Histogram& histogram(std::string_view name);
  const Histogram* find_histogram(std::string_view name) const;

  /// Folds `other` into this registry: counters add, gauges overwrite,
  /// histograms merge.
  void merge(const MetricsRegistry& other);

  template <typename Fn>
  void for_each_counter(Fn&& fn) const {
    for (const auto& [name, v] : counters_) fn(name, v);
  }
  template <typename Fn>
  void for_each_gauge(Fn&& fn) const {
    for (const auto& [name, v] : gauges_) fn(name, v);
  }
  template <typename Fn>
  void for_each_histogram(Fn&& fn) const {
    for (const auto& [name, h] : histograms_) fn(name, h);
  }

  /// Sorted-key JSON object: counters verbatim, gauges as numbers, histograms
  /// as {count,mean,p50,p95,p99,p999,max} summaries.
  std::string to_json() const;

 private:
  std::map<std::string, uint64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace sbft::obs
