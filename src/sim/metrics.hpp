// Counters and latency distributions for the simulated stack.
//
// A MetricsRegistry holds monotonic counters and log-bucketed latency
// histograms keyed by (name, labels). The Fabric owns one registry and
// hands a pointer to every network, bus and (through them) protocol layer,
// so instrumentation points all feed one place. Disabled by default:
// enabled() is the single branch hot paths pay; label strings are only
// built once a caller has checked it.
//
// Labels are a single pre-formatted string ("gateway=1,phase=recv",
// "channel=vc.reg.myri0,direction=tx") — deterministic map keys, no label
// algebra needed at this scale.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>

#include "sim/time.hpp"

namespace mad::sim {

struct Counter {
  std::uint64_t value = 0;
  void add(std::uint64_t n = 1) { value += n; }
};

/// Log-bucketed (power-of-two) latency histogram over microsecond values.
/// Bucket 0 holds (0, 1] µs; bucket i holds (2^(i-1), 2^i] µs. Quantiles
/// are estimated by linear interpolation inside the target bucket and
/// clamped to the exact observed [min, max].
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 64;

  void record(double microseconds);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

  /// q in [0, 1]; 0 with no samples.
  double percentile(double q) const;

  const std::array<std::uint64_t, kBuckets>& buckets() const {
    return buckets_;
  }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

class MetricsRegistry {
 public:
  using Key = std::pair<std::string, std::string>;  // (name, labels)

  void enable() { enabled_ = true; }
  void disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }

  /// Lookup-or-create. Callers on hot paths must check enabled() first —
  /// these do not.
  Counter& counter(const std::string& name, const std::string& labels = {});
  LatencyHistogram& histogram(const std::string& name,
                              const std::string& labels = {});

  /// Guarded conveniences: no-ops while disabled.
  void add(const std::string& name, const std::string& labels,
           std::uint64_t n = 1) {
    if (enabled_) {
      counter(name, labels).add(n);
    }
  }
  void observe_us(const std::string& name, const std::string& labels,
                  double microseconds) {
    if (enabled_) {
      histogram(name, labels).record(microseconds);
    }
  }

  const std::map<Key, Counter>& counters() const { return counters_; }
  const std::map<Key, LatencyHistogram>& histograms() const {
    return histograms_;
  }

  /// {"counters": [{name, labels, value}...],
  ///  "histograms": [{name, labels, count, sum_us, min_us, max_us, mean_us,
  ///                  p50_us, p95_us, p99_us}...]} — sorted by (name,
  /// labels), so output is deterministic.
  void write_json(std::ostream& out) const;

  void clear() {
    counters_.clear();
    histograms_.clear();
  }

 private:
  bool enabled_ = false;
  std::map<Key, Counter> counters_;
  std::map<Key, LatencyHistogram> histograms_;
};

}  // namespace mad::sim
