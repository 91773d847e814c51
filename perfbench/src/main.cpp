// txc_perfbench — the repository benchmark.
//
//   txc_perfbench --workload W --seed N --seconds S --trace 0|1
//                 [--spans-out FILE]
//
// --trace 0 measures the end-to-end metrics over S seconds, after a
// warm-up and after setup_s has been measured on repeated builds.
// --trace 1 runs an untraced and a traced phase of S/2 seconds each on
// fresh systems: the traced phase gives the per-layer metrics, and the two
// together give the tracing overhead.  End-to-end metrics never come from a
// traced phase.
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n,
//    "metrics": {"<name>": {"value": x, "unit": "<unit>"}, ...}}
// The exit code is 1 when an output check failed, 2 on bad arguments.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cpu_rotation.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (--trace 0), every workload.  The first
/// kPhaseMetrics come from the measured phase; a traced run reports them for
/// both of its phases as the tracing overhead.
constexpr MetricSpec kEndToEnd[] = {
    {"throughput_ops_s", "1/s"},
    {"latency_p50_us", "us"},
    {"latency_p99_us", "us"},
    {"success_frac", "ratio"},
    {"sim_commits_per_kcycle", "1/kcycle"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};
constexpr std::size_t kPhaseMetrics = 5;

/// Per-layer metrics (--trace 1), every workload; a layer the workload does
/// not run reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"kv.submit_ns_p50", "ns"},
    {"kv.service_us_p50", "us"},
    {"kv.service_us_p99", "us"},
    {"kv.requests_per_segment", "req/segment"},
    {"kv.read_segment_frac", "ratio"},
    {"kv.rejected", "count"},
    {"kv.shard_full", "count"},
    {"stm.abort_ratio", "ratio"},
    {"stm.snapshot_restart_ratio", "ratio"},
    {"stm.instrumented_reads_per_commit", "reads/commit"},
    {"stm.remote_kills_per_commit", "kills/commit"},
    {"stm.kill_recoveries", "count"},
    {"stm.false_conflicts", "count"},
    {"conflict.conflicts_per_commit", "1/commit"},
    {"conflict.wait_rounds_per_conflict", "1/conflict"},
    {"conflict.abort_self_frac", "ratio"},
    {"conflict.abort_enemy_frac", "ratio"},
    {"conflict.grace_commit_frac", "ratio"},
    {"conflict.decide_ns_p50", "ns"},
    {"conflict.grant_ns_p50", "ns"},
    {"mem.exhaustion_frac", "ratio"},
    {"mem.epoch_advances_per_kop", "1/kop"},
    {"mem.abort_recycles_per_commit", "1/commit"},
    {"mem.limbo_backlog", "blocks"},
    {"htm.abort_rate", "ratio"},
    {"htm.aborts.grace-expired", "1/kcommit"},
    {"htm.aborts.immediate", "1/kcommit"},
    {"htm.aborts.self-timeout", "1/kcommit"},
    {"htm.aborts.non-tx", "1/kcommit"},
    {"htm.aborts.capacity-l1", "1/kcommit"},
    {"htm.aborts.cycle", "1/kcommit"},
    {"htm.aborts.capacity-l2", "1/kcommit"},
    {"htm.conflicts_per_commit", "1/commit"},
    {"htm.stall_cycles_per_commit", "cycles/commit"},
    {"htm.mean_tx_cycles", "cycles"},
    {"noc.mean_hops", "hops"},
    {"noc.queueing_cycles_per_msg", "cycles/msg"},
    {"l2.hit_rate", "ratio"},
    {"sim.wall_ns_per_sim_commit", "ns"},
    {"trace.self_ns.kv.request", "ns"},
    {"trace.self_ns.kv.submit", "ns"},
    {"trace.self_ns.ds.enqueue", "ns"},
    {"trace.self_ns.ds.dequeue", "ns"},
    {"trace.self_ns.conflict.decide", "ns"},
    {"trace.self_ns.htm.run", "ns"},
    {"trace.self_ns.conflict.grant", "ns"},
    {"trace.spans", "count"},
    {"trace.dropped", "count"},
    // overhead.<metric>.{untraced,traced,diff} follow for the first
    // kPhaseMetrics end-to-end metrics.
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string spans_out;
};

[[noreturn]] void usage(const char* problem) {
  std::fprintf(stderr,
               "txc_perfbench: %s\nusage: txc_perfbench --workload "
               "kv-read|kv-write|txq-contended|htm-sim --seed N --seconds S "
               "--trace 0|1 [--spans-out FILE]\n",
               problem);
  std::exit(2);
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos ||
      text.size() > 19) {
    return false;
  }
  out = std::strtoull(text.c_str(), nullptr, 10);
  return true;
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      if (!parse_u64(value, args.seed)) usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      char* end = nullptr;
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0.0) ||
          args.seconds > 3600.0) {
        usage("--seconds takes a number in (0, 3600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1" ? 1 : 0;
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty() || args.seconds == 0.0 || args.trace < 0) {
    usage("--workload, --seconds and --trace are required");
  }
  return args;
}

std::unique_ptr<Workload> make(const std::string& name, std::uint64_t seed) {
  if (name == "kv-read") return make_kv_read(seed);
  if (name == "kv-write") return make_kv_write(seed);
  if (name == "txq-contended") return make_txq_contended(seed);
  if (name == "htm-sim") return make_htm_sim(seed);
  return nullptr;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

struct Reported {
  std::string name;
  const char* unit;
  double value;
};

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Reported>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Reported& metric = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metric.name.c_str(),
                std::isfinite(metric.value) ? metric.value : 0.0, metric.unit);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  std::unique_ptr<Workload> workload = make(args.workload, args.seed);
  if (workload == nullptr) usage(("unknown workload " + args.workload).c_str());

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace);
  std::printf("perfbench: nproc=%ld threads=%u (%s)\n", nproc,
              workload->threads(), workload->thread_roles().c_str());
  if (nproc > 0 && workload->threads() > static_cast<unsigned long>(nproc)) {
    std::printf("perfbench: warning: more busy threads than CPUs\n");
  }

  std::vector<std::string> errors;
  std::vector<Reported> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto collect = [&](const PhaseResult& phase, const char* label) {
    for (const std::string& error : phase.errors) {
      errors.push_back(std::string{label} + ": " + error);
    }
    attempted += phase.attempted;
    failed += phase.failed;
    std::printf("perfbench: %s phase: %llu ops attempted, %llu failed, "
                "%llu latency samples\n",
                label, static_cast<unsigned long long>(phase.attempted),
                static_cast<unsigned long long>(phase.failed),
                static_cast<unsigned long long>(phase.latency_samples));
  };
  // In kEndToEnd order.
  const auto end_to_end = [](const PhaseResult& phase) {
    return std::vector<double>{phase.throughput_ops_s, phase.latency_p50_us,
                               phase.latency_p99_us, phase.success_frac(),
                               phase.commits_per_kcycle};
  };

  if (args.trace == 0) {
    std::vector<double> setups;
    {
      const CpuRotation rotation;  // each build on the next vCPU
      for (unsigned i = 0; i < workload->setup_repeats(); ++i) {
        rotation.move_to(i);
        setups.push_back(workload->setup_once());
      }
    }
    const PhaseResult phase = workload->run_phase(args.seconds, false);
    collect(phase, "untraced");
    std::vector<double> values = end_to_end(phase);
    values.push_back(median(setups));
    values.push_back(peak_rss_mib());
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      metrics.push_back({kEndToEnd[i].name, kEndToEnd[i].unit, values[i]});
    }
  } else {
    const PhaseResult untraced = workload->run_phase(args.seconds / 2, false);
    collect(untraced, "untraced");
    const PhaseResult traced = workload->run_phase(args.seconds / 2, true);
    collect(traced, "traced");
    const std::size_t shared = std::min(untraced.sim_fingerprint.size(),
                                        traced.sim_fingerprint.size());
    for (std::size_t job = 0; job < shared; ++job) {
      if (untraced.sim_fingerprint[job] != traced.sim_fingerprint[job]) {
        errors.push_back("job " + std::to_string(job) +
                         ": traced and untraced simulated counts differ");
        break;
      }
    }
    std::map<std::string, double> layers;
    for (const Metric& metric : traced.layers) {
      if (!layers.emplace(metric.name, metric.value).second) {
        errors.push_back("layer metric reported twice: " + metric.name);
      }
    }
    for (const MetricSpec& spec : kPerLayer) {
      const auto found = layers.find(spec.name);
      metrics.push_back(
          {spec.name, spec.unit, found == layers.end() ? 0.0 : found->second});
      if (found != layers.end()) layers.erase(found);
    }
    for (const auto& [name, value] : layers) {
      errors.push_back("layer metric not in the table: " + name);
    }
    const std::vector<double> before = end_to_end(untraced);
    const std::vector<double> after = end_to_end(traced);
    for (std::size_t i = 0; i < kPhaseMetrics; ++i) {
      const std::string base = std::string{"overhead."} + kEndToEnd[i].name;
      const double values[3] = {before[i], after[i], after[i] - before[i]};
      const char* suffix[3] = {".untraced", ".traced", ".diff"};
      for (int k = 0; k < 3; ++k) {
        metrics.push_back({base + suffix[k], kEndToEnd[i].unit, values[k]});
      }
    }
    if (!args.spans_out.empty() &&
        !trace::write_tsv(args.spans_out, workload->span_logs())) {
      std::fprintf(stderr, "perfbench: could not write %s\n",
                   args.spans_out.c_str());
    }
  }

  for (const Reported& metric : metrics) {
    std::printf("  %-40s %14.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit);
  }
  for (const std::string& error : errors) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", error.c_str());
  }
  std::fflush(stderr);
  print_json(errors.empty(), attempted, failed, metrics);
  return errors.empty() ? 0 : 1;
}
