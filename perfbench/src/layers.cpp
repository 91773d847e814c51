#include <memory>

#include "conflict/grace.hpp"
#include "workloads.hpp"

namespace perfbench {

std::shared_ptr<const txc::conflict::ConflictArbiter> grace_arbiter(
    txc::core::StrategyKind kind) {
  return std::make_shared<txc::conflict::GraceArbiter>(
      txc::core::make_policy(kind));
}

StmCounters StmCounters::read(const txc::stm::StmStats& stats) noexcept {
  constexpr auto relaxed = std::memory_order_relaxed;
  StmCounters c;
  c.commits = stats.commits.load(relaxed);
  c.aborts = stats.aborts.load(relaxed);
  c.remote_kills = stats.remote_kills.load(relaxed);
  c.kill_recoveries = stats.kill_recoveries.load(relaxed);
  c.false_conflicts = stats.false_conflicts.load(relaxed);
  c.snapshot_commits = stats.snapshot_commits.load(relaxed);
  c.snapshot_restarts = stats.snapshot_restarts.load(relaxed);
  c.instrumented_reads = stats.instrumented_reads.load(relaxed);
  return c;
}

StmCounters StmCounters::since(const StmCounters& before) const noexcept {
  StmCounters d;
  d.commits = commits - before.commits;
  d.aborts = aborts - before.aborts;
  d.remote_kills = remote_kills - before.remote_kills;
  d.kill_recoveries = kill_recoveries - before.kill_recoveries;
  d.false_conflicts = false_conflicts - before.false_conflicts;
  d.snapshot_commits = snapshot_commits - before.snapshot_commits;
  d.snapshot_restarts = snapshot_restarts - before.snapshot_restarts;
  d.instrumented_reads = instrumented_reads - before.instrumented_reads;
  return d;
}

ProbeArbiter::Counts since(const ProbeArbiter::Counts& now,
                           const ProbeArbiter::Counts& before) {
  ProbeArbiter::Counts d;
  d.conflicts = now.conflicts - before.conflicts;
  d.wait_rounds = now.wait_rounds - before.wait_rounds;
  d.abort_self = now.abort_self - before.abort_self;
  d.abort_enemy = now.abort_enemy - before.abort_enemy;
  d.grace_committed = now.grace_committed - before.grace_committed;
  d.grace_expired = now.grace_expired - before.grace_expired;
  return d;
}

void add_stm_layers(std::vector<Metric>& out, const StmCounters& d) {
  const auto f = [](std::uint64_t v) { return static_cast<double>(v); };
  out.push_back({"stm.abort_ratio", ratio(f(d.aborts), f(d.commits + d.aborts))});
  out.push_back({"stm.snapshot_restart_ratio",
                 ratio(f(d.snapshot_restarts),
                       f(d.snapshot_commits + d.snapshot_restarts))});
  out.push_back({"stm.instrumented_reads_per_commit",
                 ratio(f(d.instrumented_reads), f(d.commits))});
  out.push_back({"stm.remote_kills_per_commit",
                 ratio(f(d.remote_kills), f(d.commits))});
  out.push_back({"stm.kill_recoveries", f(d.kill_recoveries)});
  out.push_back({"stm.false_conflicts", f(d.false_conflicts)});
}

void add_conflict_layers(std::vector<Metric>& out,
                         const ProbeArbiter::Counts& c, double commits,
                         const trace::Summary& spans) {
  const auto f = [](std::uint64_t v) { return static_cast<double>(v); };
  out.push_back({"conflict.conflicts_per_commit", ratio(f(c.conflicts), commits)});
  out.push_back({"conflict.wait_rounds_per_conflict",
                 ratio(f(c.wait_rounds), f(c.conflicts))});
  out.push_back({"conflict.abort_self_frac", ratio(f(c.abort_self), f(c.conflicts))});
  out.push_back({"conflict.abort_enemy_frac", ratio(f(c.abort_enemy), f(c.conflicts))});
  out.push_back({"conflict.grace_commit_frac",
                 ratio(f(c.grace_committed),
                       f(c.grace_committed + c.grace_expired))});
  out.push_back({"conflict.decide_ns_p50",
                 spans[trace::SpanName::kConflictDecide].duration_ns.quantile(0.5)});
  out.push_back({"conflict.grant_ns_p50",
                 spans[trace::SpanName::kConflictGrant].duration_ns.quantile(0.5)});
}

void add_trace_layers(std::vector<Metric>& out, const trace::Summary& spans) {
  for (std::size_t i = 0; i < trace::kSpanNameCount; ++i) {
    const auto name = static_cast<trace::SpanName>(i);
    const auto& per_name = spans[name];
    out.push_back({std::string{"trace.self_ns."} + trace::to_string(name),
                   ratio(per_name.self_ns_total,
                         static_cast<double>(per_name.count))});
  }
  out.push_back({"trace.spans", static_cast<double>(spans.spans)});
  out.push_back({"trace.dropped", static_cast<double>(spans.dropped)});
}

}  // namespace perfbench
