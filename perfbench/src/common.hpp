// Shared vocabulary of the benchmark: wall-clock timing, a latency
// histogram, counter ratios, and the result record every workload returns.
#pragma once

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in nanoseconds.
[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// a / b, or 0 when nothing was counted (a metric must stay a finite number).
[[nodiscard]] inline double ratio(double a, double b) noexcept {
  return b == 0.0 ? 0.0 : a / b;
}

[[nodiscard]] inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Log-linear histogram of non-negative integers (nanoseconds here): exact
/// below 128, 64 buckets per power of two above, so a bucket is at most
/// 1/64 of its value wide.  quantile() interpolates by rank inside the
/// bucket, so a percentile does not snap to bucket edges and repeat
/// exactly from run to run.
class Histogram {
 public:
  Histogram() : counts_(kBuckets, 0) {}

  void record(std::uint64_t value) noexcept {
    ++counts_[index_of(value)];
    ++total_;
  }

  void merge(const Histogram& other) noexcept {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return total_; }

  /// The q-quantile (0 <= q <= 1); 0 for an empty histogram.
  [[nodiscard]] double quantile(double q) const noexcept {
    if (total_ == 0) return 0.0;
    const double rank = std::clamp(q, 0.0, 1.0) *
                        static_cast<double>(total_ - 1);
    std::uint64_t below = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const std::uint64_t in_bucket = counts_[i];
      if (in_bucket == 0) continue;
      if (static_cast<double>(below + in_bucket) > rank) {
        const double within =
            (rank - static_cast<double>(below) + 0.5) /
            static_cast<double>(in_bucket);
        const auto [low, width] = bounds_of(i);
        return static_cast<double>(low) +
               std::clamp(within, 0.0, 1.0) * static_cast<double>(width);
      }
      below += in_bucket;
    }
    return 0.0;
  }

 private:
  static constexpr unsigned kSubBits = 6;  // 64 buckets per power of two
  static constexpr std::size_t kBuckets = (64 - kSubBits) * 64 + 128;

  static std::size_t index_of(std::uint64_t value) noexcept {
    if (value < 128) return static_cast<std::size_t>(value);
    const unsigned shift =
        static_cast<unsigned>(std::bit_width(value)) - 1 - kSubBits;
    return shift * 64 + static_cast<std::size_t>(value >> shift);
  }
  /// (lowest value, width) of bucket `index`.
  static std::pair<std::uint64_t, std::uint64_t> bounds_of(
      std::size_t index) noexcept {
    if (index < 128) return {index, 1};
    const std::size_t shift = index / 64 - 1;
    const std::uint64_t mantissa = index - shift * 64;
    return {mantissa << shift, std::uint64_t{1} << shift};
  }

  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// A measured phase cut into kCount equal windows, measured over its
/// fastest quarter.
///
/// On a shared VM the host slows a vCPU in bursts of seconds; the same work
/// then takes up to 1.5x longer, and whole-phase means and tails move with
/// the host rather than the program.  Interference only ever slows a window, so the fastest
/// quarter of the windows tracks the program's own speed: throughput is the
/// op rate over those windows and latency percentiles are taken over the
/// samples pooled from them.  A change to the program shifts every window,
/// the fastest ones included.  Failed operations are not ops here, so a
/// failure burst cannot raise a window's rate; it shows in success_frac.
///
/// One instance per recording thread; merge() them once the threads are
/// joined.
class Windows {
 public:
  static constexpr std::size_t kCount = 20;
  static constexpr std::size_t kFastest = kCount / 4;

  Windows(std::uint64_t start_ns, double seconds)
      : start_ns_(start_ns),
        length_ns_(static_cast<std::uint64_t>(seconds * 1e9 / kCount)),
        ops_(kCount, 0),
        latency_ns_(kCount) {}

  /// The window holding time `t_ns`, or kCount when it is past the phase.
  [[nodiscard]] std::size_t at(std::uint64_t t_ns) const noexcept {
    if (t_ns < start_ns_ || length_ns_ == 0) return 0;
    const std::uint64_t index = (t_ns - start_ns_) / length_ns_;
    return index < kCount ? static_cast<std::size_t>(index) : kCount;
  }
  [[nodiscard]] std::uint64_t end_ns() const noexcept {
    return start_ns_ + kCount * length_ns_;
  }

  void add_ops(std::size_t window, std::uint64_t ops) noexcept {
    ops_[window] += ops;
  }
  void record_latency(std::size_t window, std::uint64_t ns) noexcept {
    latency_ns_[window].record(ns);
  }

  void merge(const Windows& other) noexcept {
    for (std::size_t w = 0; w < kCount; ++w) {
      ops_[w] += other.ops_[w];
      latency_ns_[w].merge(other.latency_ns_[w]);
    }
  }

  /// Ops per second over the fastest quarter of the windows.
  [[nodiscard]] double rate() const {
    std::uint64_t ops = 0;
    for (const std::size_t w : fastest()) ops += ops_[w];
    return static_cast<double>(ops) /
           (static_cast<double>(kFastest * length_ns_) * 1e-9);
  }
  /// Latency q-quantile over the samples of the fastest quarter.
  [[nodiscard]] double latency_quantile(double q) const {
    return pooled_latency().quantile(q);
  }
  /// Latency samples the quantiles are taken over.
  [[nodiscard]] std::uint64_t latency_samples() const {
    return pooled_latency().count();
  }

 private:
  [[nodiscard]] std::vector<std::size_t> fastest() const {
    std::vector<std::size_t> order(kCount);
    for (std::size_t w = 0; w < kCount; ++w) order[w] = w;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return ops_[a] > ops_[b];
                     });
    order.resize(kFastest);
    return order;
  }
  [[nodiscard]] Histogram pooled_latency() const {
    Histogram pooled;
    for (const std::size_t w : fastest()) pooled.merge(latency_ns_[w]);
    return pooled;
  }

  std::uint64_t start_ns_;
  std::uint64_t length_ns_;
  std::vector<std::uint64_t> ops_;
  std::vector<Histogram> latency_ns_;
};

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
};

/// What one measured phase of a workload produced.  The end-to-end fields
/// come from every phase; `layers` only from a traced phase.
struct PhaseResult {
  double throughput_ops_s = 0.0;
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;
  double commits_per_kcycle = 0.0;
  std::uint64_t latency_samples = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Output checks that did not hold (empty: the phase is correct).
  std::vector<std::string> errors;
  std::vector<Metric> layers;
  /// Per-job simulated counts (htm-sim only): the traced and untraced
  /// phases must agree on the jobs both completed.
  std::vector<std::uint64_t> sim_fingerprint;

  [[nodiscard]] double success_frac() const noexcept {
    return attempted == 0 ? 0.0
                          : 1.0 - static_cast<double>(failed) /
                                      static_cast<double>(attempted);
  }
};

}  // namespace perfbench
