// htm-sim: the discrete-event HTM simulator — 16 simulated cores running
// the paper's transactional application under requestor-wins with RRW
// grace periods, remote accesses over the 2D mesh NoC and a shared L2.
//
// The unit of work is a job: build an HtmSystem with the job's seed and run
// it to a fixed commit target.  Job j's seed depends only on the run seed
// and j, so a job's simulated counts are deterministic; the traced and
// untraced phases must agree on every job both completed.
#include <memory>
#include <string>

#include "conflict/grace.hpp"
#include "cpu_rotation.hpp"
#include "ds/workloads.hpp"
#include "htm/htm.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::uint32_t kCores = 16;
constexpr std::uint64_t kCommitsPerJob = 250;
/// Jobs every phase completes however long it takes; sim_commits_per_kcycle
/// is taken over exactly these, so it is a pure function of the seed.
constexpr std::uint64_t kFixedJobs = 256;
constexpr std::uint64_t kSamplePeriod = 16;  // traced: 1 job in 16
constexpr std::size_t kSpanCapacity = std::size_t{1} << 19;

class HtmWorkload final : public Workload {
 public:
  explicit HtmWorkload(std::uint64_t seed) : seed_(seed) {
    config_.cores = kCores;
    config_.policy = txc::core::make_policy(txc::core::StrategyKind::kRandWins);
    config_.mode = config_.policy->mode();
    config_.noc = txc::noc::MeshConfig{};
    config_.l2 = txc::mem::L2Config{};
  }

  unsigned threads() const override { return 1; }
  std::string thread_roles() const override {
    return "1 simulator thread (" + std::to_string(kCores) +
           " simulated cores)";
  }
  unsigned setup_repeats() const override { return 51; }
  double setup_once() override {
    txc::htm::HtmConfig config = job_config(0, grace());
    const std::uint64_t start = now_ns();
    txc::htm::HtmSystem system{config,
                               std::make_shared<txc::ds::TxAppWorkload>()};
    return static_cast<double>(now_ns() - start) * 1e-9;
  }

  PhaseResult run_phase(double seconds, bool traced) override;

 private:
  /// The arbiter HtmSystem would build from config_.policy, made explicit so
  /// the traced phase can wrap exactly it.
  [[nodiscard]] std::shared_ptr<const txc::conflict::ConflictArbiter> grace()
      const {
    return std::make_shared<txc::conflict::GraceArbiter>(config_.policy,
                                                         config_.mode);
  }
  [[nodiscard]] txc::htm::HtmConfig job_config(
      std::uint64_t job,
      std::shared_ptr<const txc::conflict::ConflictArbiter> arbiter) const {
    txc::htm::HtmConfig config = config_;
    config.seed = derive_seed(seed_, 1000 + job);
    config.arbiter = std::move(arbiter);
    return config;
  }

  std::uint64_t seed_;
  txc::htm::HtmConfig config_;
};

/// Sums of HtmStats over many jobs.
struct SimTotals {
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t cycles = 0;
  std::uint64_t stall_cycles = 0;
  std::uint64_t aborts_by_reason[txc::htm::kAbortReasonCount] = {};
  double tx_cycles = 0.0;  // Σ mean_tx_cycles × commits
  std::uint64_t messages = 0;
  std::uint64_t hops = 0;
  std::uint64_t queueing_cycles = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;

  void add(const txc::htm::HtmStats& stats) {
    commits += stats.commits;
    aborts += stats.aborts;
    conflicts += stats.conflicts;
    cycles += stats.cycles;
    tx_cycles += stats.mean_tx_cycles * static_cast<double>(stats.commits);
    for (const auto& core : stats.per_core) {
      stall_cycles += core.stall_cycles;
      for (std::size_t r = 0; r < txc::htm::kAbortReasonCount; ++r) {
        aborts_by_reason[r] += core.aborts_by_reason[r];
      }
    }
    if (stats.noc.has_value()) {
      messages += stats.noc->total_messages();
      hops += stats.noc->total_hops;
      queueing_cycles += stats.noc->queueing_cycles;
    }
    if (stats.l2.has_value()) {
      l2_hits += stats.l2->hits;
      l2_misses += stats.l2->misses;
    }
  }
};

PhaseResult HtmWorkload::run_phase(double seconds, bool traced) {
  PhaseResult result;
  const auto arbiter = grace();
  const auto probe = traced ? std::make_shared<ProbeArbiter>(arbiter) : nullptr;
  const std::shared_ptr<const txc::conflict::ConflictArbiter> used =
      traced ? std::shared_ptr<const txc::conflict::ConflictArbiter>{probe}
             : arbiter;
  if (traced) reset_logs(1, kSpanCapacity);
  trace::SpanLog* const span_log = traced ? log(0) : nullptr;

  const auto run_job = [&](std::uint64_t job) {
    txc::htm::HtmSystem system{job_config(job, used),
                               std::make_shared<txc::ds::TxAppWorkload>()};
    if (span_log != nullptr) {
      span_log->begin_request(job, job % kSamplePeriod == 0);
    }
    const std::uint64_t start = now_ns();
    txc::htm::HtmStats stats;
    {
      trace::ScopedSpan span{trace::SpanName::kHtmRun};
      stats = system.run(kCommitsPerJob);
    }
    const std::uint64_t run_ns = now_ns() - start;
    if (!system.coherence_invariants_hold()) {
      result.errors.push_back("job " + std::to_string(job) +
                              ": directory invariants broken");
    }
    if (stats.commits < kCommitsPerJob) {
      result.errors.push_back("job " + std::to_string(job) +
                              " stopped short of its commit target");
    }
    return std::make_pair(stats, run_ns);
  };

  const std::uint64_t warmup_end =
      now_ns() + static_cast<std::uint64_t>(warmup_seconds(seconds) * 1e9);
  for (std::uint64_t job = 0; now_ns() < warmup_end; ++job) (void)run_job(job);

  const ProbeArbiter::Counts probe_before =
      probe ? probe->totals() : ProbeArbiter::Counts{};
  trace::attach(span_log);
  SimTotals totals;
  SimTotals fixed;  // the first kFixedJobs jobs
  std::uint64_t run_ns_total = 0;
  const std::uint64_t start = now_ns();
  Windows windows{start, seconds};
  const CpuRotation rotation;
  std::size_t window = Windows::kCount;
  std::uint64_t job = 0;
  for (; job < kFixedJobs || now_ns() < windows.end_ns(); ++job) {
    if (windows.at(now_ns()) != window) {
      window = windows.at(now_ns());
      rotation.move_to(window);
    }
    const auto [stats, run_ns] = run_job(job);
    const std::size_t w = windows.at(now_ns());
    if (w < Windows::kCount) {
      windows.add_ops(w, stats.commits);
      windows.record_latency(w, run_ns);
    }
    run_ns_total += run_ns;
    totals.add(stats);
    if (job < kFixedJobs) fixed.add(stats);
    result.sim_fingerprint.push_back(derive_seed(
        stats.commits ^ (stats.aborts << 20) ^ (stats.conflicts << 40),
        stats.cycles));
  }
  trace::attach(nullptr);

  const auto f = [](std::uint64_t v) { return static_cast<double>(v); };
  result.attempted = job;
  result.failed = 0;
  result.throughput_ops_s = windows.rate();
  result.latency_p50_us = windows.latency_quantile(0.50) * 1e-3;
  result.latency_p99_us = windows.latency_quantile(0.99) * 1e-3;
  result.latency_samples = windows.latency_samples();
  result.commits_per_kcycle = ratio(f(fixed.commits), f(fixed.cycles) * 1e-3);

  if (traced) {
    const trace::Summary spans = summarize(span_logs());
    auto& out = result.layers;
    const double commits = f(totals.commits);
    add_conflict_layers(out, since(probe->totals(), probe_before), commits,
                        spans);
    out.push_back({"htm.abort_rate",
                   ratio(f(totals.aborts), f(totals.commits + totals.aborts))});
    for (std::size_t r = 0; r < txc::htm::kAbortReasonCount; ++r) {
      out.push_back(
          {std::string{"htm.aborts."} +
               txc::htm::to_string(static_cast<txc::htm::AbortReason>(r)),
           ratio(f(totals.aborts_by_reason[r]), commits * 1e-3)});
    }
    out.push_back({"htm.conflicts_per_commit", ratio(f(totals.conflicts), commits)});
    out.push_back({"htm.stall_cycles_per_commit",
                   ratio(f(totals.stall_cycles), commits)});
    out.push_back({"htm.mean_tx_cycles", ratio(totals.tx_cycles, commits)});
    out.push_back({"noc.mean_hops", ratio(f(totals.hops), f(totals.messages))});
    out.push_back({"noc.queueing_cycles_per_msg",
                   ratio(f(totals.queueing_cycles), f(totals.messages))});
    out.push_back({"l2.hit_rate", ratio(f(totals.l2_hits),
                                        f(totals.l2_hits + totals.l2_misses))});
    out.push_back({"sim.wall_ns_per_sim_commit", ratio(f(run_ns_total), commits)});
    add_trace_layers(out, spans);
  }
  return result;
}

}  // namespace

std::unique_ptr<Workload> make_htm_sim(std::uint64_t seed) {
  return std::make_unique<HtmWorkload>(seed);
}

}  // namespace perfbench
