// The benchmark's workloads.  Each one builds its system under test from
// inputs generated from the seed before any timing starts, and reports one
// PhaseResult per measured phase.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "conflict/arbiter.hpp"
#include "core/policy.hpp"
#include "probe_arbiter.hpp"
#include "stm/tl2.hpp"
#include "trace.hpp"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  /// Threads the workload keeps busy, library-spawned workers included.
  [[nodiscard]] virtual unsigned threads() const = 0;
  /// Who those threads are, for the run header.
  [[nodiscard]] virtual std::string thread_roles() const = 0;

  /// How many times setup is repeated per run (setup_s is their median).
  [[nodiscard]] virtual unsigned setup_repeats() const = 0;
  /// Build and prefill the system under test once; returns the seconds it
  /// took.  The built instance is discarded.
  virtual double setup_once() = 0;

  /// Build a fresh system, warm it up, then measure for `seconds`.  A
  /// traced phase wraps the arbiter in a ProbeArbiter, records spans and
  /// fills PhaseResult::layers; an untraced phase does neither.
  virtual PhaseResult run_phase(double seconds, bool traced) = 0;

  /// The span logs of the last traced phase.
  [[nodiscard]] std::vector<const trace::SpanLog*> span_logs() const {
    std::vector<const trace::SpanLog*> logs;
    for (const auto& log : logs_) logs.push_back(log.get());
    return logs;
  }

 protected:
  /// Replace the span logs with `count` empty ones of `capacity` spans.
  void reset_logs(std::size_t count, std::size_t capacity) {
    logs_.clear();
    for (std::size_t i = 0; i < count; ++i) {
      logs_.push_back(std::make_unique<trace::SpanLog>(capacity));
    }
  }
  [[nodiscard]] trace::SpanLog* log(std::size_t index) const {
    return logs_[index].get();
  }

 private:
  std::vector<std::unique_ptr<trace::SpanLog>> logs_;
};

std::unique_ptr<Workload> make_kv_read(std::uint64_t seed);
std::unique_ptr<Workload> make_kv_write(std::uint64_t seed);
std::unique_ptr<Workload> make_txq_contended(std::uint64_t seed);
std::unique_ptr<Workload> make_htm_sim(std::uint64_t seed);

/// Warm-up before each measured phase.
[[nodiscard]] inline double warmup_seconds(double seconds) {
  return seconds < 10.0 ? 0.1 * seconds : 1.0;
}

/// Seeds for independent streams derived from the run seed.
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t seed,
                                               std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Transactions committed per 1000 host TSC cycles at `ops_per_s`: the
/// STM workloads' reading of sim_commits_per_kcycle.
[[nodiscard]] inline double commits_per_kcycle(double ops_per_s,
                                               double commits_per_op,
                                               double tsc_cycles_per_s) {
  return ratio(ops_per_s * commits_per_op * 1e3, tsc_cycles_per_s);
}

/// The Grace arbiter every STM workload runs: the paper's local decision
/// with `kind`'s grace distribution and resolution flavor.
[[nodiscard]] std::shared_ptr<const txc::conflict::ConflictArbiter>
grace_arbiter(txc::core::StrategyKind kind);

// -- Counter snapshots: deltas over the timed window -------------------------

struct StmCounters {
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t remote_kills = 0;
  std::uint64_t kill_recoveries = 0;
  std::uint64_t false_conflicts = 0;
  std::uint64_t snapshot_commits = 0;
  std::uint64_t snapshot_restarts = 0;
  std::uint64_t instrumented_reads = 0;

  static StmCounters read(const txc::stm::StmStats& stats) noexcept;
  [[nodiscard]] StmCounters since(const StmCounters& before) const noexcept;
};

[[nodiscard]] ProbeArbiter::Counts since(const ProbeArbiter::Counts& now,
                                         const ProbeArbiter::Counts& before);

// -- Per-layer metric groups shared by several workloads ---------------------

void add_stm_layers(std::vector<Metric>& out, const StmCounters& delta);
/// conflict.* over `commits` committed transactions; decide/grant times come
/// from the spans.
void add_conflict_layers(std::vector<Metric>& out,
                         const ProbeArbiter::Counts& counts, double commits,
                         const trace::Summary& spans);
/// trace.self_ns.<span> (mean self time per span name), trace.spans and
/// trace.dropped.
void add_trace_layers(std::vector<Metric>& out, const trace::Summary& spans);

}  // namespace perfbench
