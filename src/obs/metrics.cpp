#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace sbft::obs {
namespace {

void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

void append_quoted(std::string& out, std::string_view s) {
  out += '"';
  out += s;  // metric names are identifier-like; no escaping needed
  out += '"';
}

}  // namespace

size_t Histogram::bucket_index(uint64_t v) {
  if (v < (1u << kSubBits)) return static_cast<size_t>(v);
  uint32_t top = 63 - static_cast<uint32_t>(std::countl_zero(v));
  uint64_t sub = v >> (top - kSubBits);  // in [2^kSubBits, 2^(kSubBits+1))
  return ((static_cast<size_t>(top) - kSubBits + 1) << kSubBits) +
         static_cast<size_t>(sub - (1u << kSubBits));
}

int64_t Histogram::bucket_upper_bound(size_t idx) {
  if (idx < (1u << kSubBits)) return static_cast<int64_t>(idx);
  size_t q = idx >> kSubBits;
  uint64_t sub = (idx & ((1u << kSubBits) - 1)) + (1u << kSubBits);
  uint32_t shift = static_cast<uint32_t>(q) - 1;
  return static_cast<int64_t>(((sub + 1) << shift) - 1);
}

void Histogram::record(int64_t value) {
  uint64_t v = value > 0 ? static_cast<uint64_t>(value) : 0;
  if (buckets_.empty()) buckets_.assign(kNumBuckets, 0);
  ++buckets_[bucket_index(v)];
  if (count_ == 0) {
    min_ = max_ = static_cast<int64_t>(v);
  } else {
    min_ = std::min(min_, static_cast<int64_t>(v));
    max_ = std::max(max_, static_cast<int64_t>(v));
  }
  ++count_;
  sum_ += static_cast<double>(v);
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (buckets_.empty()) buckets_.assign(kNumBuckets, 0);
  for (size_t i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

int64_t Histogram::percentile(double p) const {
  if (count_ == 0) return 0;
  double clamped = std::clamp(p, 0.0, 1.0);
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(clamped * static_cast<double>(count_)));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      return std::clamp(bucket_upper_bound(i), min_, max_);
    }
  }
  return max_;
}

uint64_t& MetricsRegistry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), 0).first;
  }
  return it->second;
}

uint64_t MetricsRegistry::value(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double& MetricsRegistry::gauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), 0.0).first;
  }
  return it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Histogram{}).first;
  }
  return it->second;
}

const Histogram* MetricsRegistry::find_histogram(std::string_view name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, v] : other.counters_) counter(name) += v;
  for (const auto& [name, v] : other.gauges_) gauge(name) = v;
  for (const auto& [name, h] : other.histograms_) histogram(name).merge(h);
}

std::string MetricsRegistry::to_json() const {
  std::string out = "{";
  bool first = true;
  auto comma = [&] {
    if (!first) out += ',';
    first = false;
  };
  for (const auto& [name, v] : counters_) {
    comma();
    append_quoted(out, name);
    out += ':';
    out += std::to_string(v);
  }
  for (const auto& [name, v] : gauges_) {
    comma();
    append_quoted(out, name);
    out += ':';
    append_double(out, v);
  }
  for (const auto& [name, h] : histograms_) {
    comma();
    append_quoted(out, name);
    out += ":{\"count\":" + std::to_string(h.count());
    out += ",\"mean\":";
    append_double(out, h.mean());
    out += ",\"p50\":" + std::to_string(h.percentile(0.50));
    out += ",\"p95\":" + std::to_string(h.percentile(0.95));
    out += ",\"p99\":" + std::to_string(h.percentile(0.99));
    out += ",\"p999\":" + std::to_string(h.percentile(0.999));
    out += ",\"max\":" + std::to_string(h.max());
    out += '}';
  }
  out += '}';
  return out;
}

}  // namespace sbft::obs
