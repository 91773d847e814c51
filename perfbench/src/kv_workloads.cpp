// kv-read and kv-write: the sharded KV service under a closed loop.
//
// One generator thread (the caller) keeps kWindow requests outstanding:
// each response slot is refilled with the next pre-generated request as
// soon as its response is observed.  The loop is closed, not open, because
// open-loop tails on a shared 4-vCPU guest are dominated by host stalls
// that land inside the arrival schedule (see perfbench/NOTES.md).
// Latency is submit() → response slot observed, per request.
#include <array>
#include <atomic>
#include <memory>
#include <optional>
#include <string>

#include "core/profiler.hpp"
#include "kv/service.hpp"
#include "sim/rng.hpp"
#include "stm/norec.hpp"
#include "stm/tl2.hpp"
#include "workload/zipf.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using txc::kv::Key;
using txc::kv::OpKind;
using txc::kv::Value;

constexpr std::size_t kShards = 2;
constexpr std::size_t kWindow = 32;          // requests outstanding
constexpr std::size_t kQueueCapacity = 4096;  // per shard, > kWindow
constexpr std::size_t kMaxBatch = 16;
constexpr std::size_t kStreamLength = std::size_t{1} << 20;  // cycled
constexpr std::uint64_t kSamplePeriod = 256;  // traced: 1 request in 256
constexpr std::size_t kSpanCapacity = std::size_t{1} << 20;

struct Shape {
  const char* name;
  std::uint32_t keys;  // keys 1..keys, all prefilled with value = key
  double zipf;
  std::size_t capacity_per_shard;
  int get_pct;
  int put_pct;
  int rmw_pct;  // the rest (to 100) is two-key swaps
  txc::core::StrategyKind policy;
};

// ~1 M keys → 2 × 2^20 buckets of 8 B = 16 MiB, 8× a 2 MiB L2.
constexpr Shape kKvRead{"kv-read", 1u << 20, 0.6, std::size_t{1} << 20,
                        95, 5, 0, txc::core::StrategyKind::kRandWins};
constexpr Shape kKvWrite{"kv-write", 2048, 0.99, 4096,
                         20, 0, 40, txc::core::StrategyKind::kRandAborts};

struct Input {
  OpKind op = OpKind::kGet;
  Key key_a = 0;
  Key key_b = 0;
  Value value = 0;
};

std::vector<Input> generate(const Shape& shape, std::uint64_t seed) {
  const txc::workload::ZipfSampler zipf{shape.keys, shape.zipf};
  txc::sim::Rng rng{derive_seed(seed, 1)};
  std::vector<Input> inputs(kStreamLength);
  for (Input& in : inputs) {
    in.key_a = 1 + zipf.sample(rng);
    const auto roll = static_cast<int>(rng.uniform_below(100));
    if (roll < shape.get_pct) {
      in.op = OpKind::kGet;
    } else if (roll < shape.get_pct + shape.put_pct) {
      in.op = OpKind::kPut;
      in.value = static_cast<Value>(rng.uniform_below(1u << 20));
    } else if (roll < shape.get_pct + shape.put_pct + shape.rmw_pct) {
      in.op = OpKind::kRmwAdd;
      in.value = static_cast<Value>(1 + rng.uniform_below(16));
    } else {
      in.op = OpKind::kSwap;
      in.key_b = 1 + zipf.sample(rng);
      if (in.key_b == in.key_a) in.key_b = 1 + in.key_a % shape.keys;
    }
  }
  return inputs;
}

template <typename Substrate>
class KvWorkload final : public Workload {
 public:
  using Service = txc::kv::KvService<Substrate>;

  KvWorkload(const Shape& shape, std::uint64_t seed)
      : shape_(shape), inputs_(generate(shape, seed)) {}

  unsigned threads() const override { return 1 + kShards; }
  std::string thread_roles() const override {
    return "1 closed-loop generator + " + std::to_string(kShards) +
           " shard workers";
  }
  unsigned setup_repeats() const override {
    return shape_.keys > 100000 ? 5 : 51;
  }
  double setup_once() override {
    const std::uint64_t start = now_ns();
    const auto service = build(grace_arbiter(shape_.policy));
    return static_cast<double>(now_ns() - start) * 1e-9;
  }

  PhaseResult run_phase(double seconds, bool traced) override;

 private:
  struct Slot {
    std::atomic<std::uint64_t> response{0};
    bool pending = false;
    std::size_t input = 0;
    std::uint64_t submitted_ns = 0;
    std::int32_t span = -1;
  };

  /// What the closed loop observed (timed-window counts and the running
  /// totals the output checks need).
  struct Tally {
    std::uint64_t submitted = 0;  // accepted, timed window
    std::uint64_t completed = 0;  // timed window
    std::uint64_t issued_total = 0;
    std::uint64_t completed_total = 0;
    std::uint64_t rmw_added = 0;  // deltas of completed rmw ops
    std::uint64_t get_misses = 0;
  };

  std::unique_ptr<Service> build(
      std::shared_ptr<const txc::conflict::ConflictArbiter> arbiter) const {
    typename Service::Config config;
    config.store.shards = kShards;
    config.store.capacity_per_shard = shape_.capacity_per_shard;
    config.queue_capacity = kQueueCapacity;
    config.max_batch = kMaxBatch;
    auto service = std::make_unique<Service>(config, std::move(arbiter));
    for (Key key = 1; key <= shape_.keys; ++key) {
      if (service->store().put_sync(key, key) != txc::kv::OpStatus::kOk) {
        return nullptr;  // a shard filled up: reported by the caller
      }
    }
    return service;
  }

  const Shape& shape_;
  std::vector<Input> inputs_;
};

template <typename Substrate>
PhaseResult KvWorkload<Substrate>::run_phase(double seconds, bool traced) {
  PhaseResult result;
  const auto grace = grace_arbiter(shape_.policy);
  const auto probe = traced ? std::make_shared<ProbeArbiter>(grace) : nullptr;
  std::unique_ptr<Service> service =
      build(traced ? std::shared_ptr<const txc::conflict::ConflictArbiter>{probe}
                   : grace);
  if (service == nullptr) {
    result.errors.push_back("prefill found a shard full");
    return result;
  }
  if (traced) reset_logs(1, kSpanCapacity);
  trace::SpanLog* const span_log = traced ? log(0) : nullptr;

  std::array<Slot, kWindow> slots;
  std::size_t cursor = 0;
  std::uint64_t next_request = 0;
  Tally tally;
  bool timed = false;
  std::optional<Windows> windows;  // set for the timed window

  const auto issue = [&](Slot& slot) {
    const std::size_t index = cursor;
    cursor = (cursor + 1) % inputs_.size();
    const Input& in = inputs_[index];
    txc::kv::Request request;
    request.op = in.op;
    request.key_a = in.key_a;
    request.key_b = in.key_b;
    request.value = in.value;
    request.response = &slot.response;
    const std::uint64_t id = next_request++;
    const bool sampled = span_log != nullptr && id % kSamplePeriod == 0;
    const std::uint64_t start = now_ns();
    slot.span = sampled ? span_log->open(trace::SpanName::kKvRequest, id, -1,
                                         start)
                        : -1;
    const bool accepted = service->submit(request);
    if (sampled) {
      const std::int32_t submit_span =
          span_log->open(trace::SpanName::kKvSubmit, id, slot.span, start);
      span_log->close(submit_span, now_ns());
    }
    if (!accepted) {
      if (sampled) span_log->close(slot.span, now_ns());
      return;  // the slot stays free; the next pass re-issues
    }
    ++tally.issued_total;
    if (timed) ++tally.submitted;
    slot.pending = true;
    slot.input = index;
    slot.submitted_ns = start;
  };

  const auto complete = [&](Slot& slot, std::uint64_t response,
                            std::uint64_t observed) {
    slot.pending = false;
    slot.response.store(0, std::memory_order_relaxed);
    if (span_log != nullptr) span_log->close(slot.span, observed);
    ++tally.completed_total;
    if (timed) {
      ++tally.completed;
      const std::size_t w = windows->at(observed);
      if (w < Windows::kCount) {
        windows->add_ops(w, 1);
        windows->record_latency(w, observed - slot.submitted_ns);
      }
    }
    const Input& in = inputs_[slot.input];
    const bool found = (response & txc::kv::kFound) != 0;
    if (in.op == OpKind::kGet && !found) ++tally.get_misses;
    // An rmw without kFound hit a full shard (counted by the service).
    if (in.op == OpKind::kRmwAdd && found) tally.rmw_added += in.value;
  };

  // Run the loop until `deadline`; with issue_more false, only drain.
  const auto pump = [&](std::uint64_t deadline, bool issue_more) {
    for (;;) {
      std::size_t pending = 0;
      for (Slot& slot : slots) {
        if (slot.pending) {
          const std::uint64_t response =
              slot.response.load(std::memory_order_acquire);
          if (response == 0) {
            ++pending;
            continue;
          }
          complete(slot, response, now_ns());
        }
        if (issue_more) {
          issue(slot);
          if (slot.pending) ++pending;
        }
      }
      if (issue_more ? now_ns() >= deadline : pending == 0) return;
    }
  };

  const auto& service_stats = service->service_stats();
  const auto load = [](const std::atomic<std::uint64_t>& counter) {
    return counter.load(std::memory_order_relaxed);
  };

  service->start();
  pump(now_ns() + static_cast<std::uint64_t>(warmup_seconds(seconds) * 1e9),
       true);

  const StmCounters stm_before = StmCounters::read(service->store().stats());
  const ProbeArbiter::Counts probe_before =
      probe ? probe->totals() : ProbeArbiter::Counts{};
  const std::uint64_t completed_before = load(service_stats.completed);
  const std::uint64_t read_segments_before = load(service_stats.read_segments);
  const std::uint64_t write_segments_before =
      load(service_stats.write_segments);
  const std::uint64_t rejected_before = load(service_stats.rejected);
  const std::uint64_t shard_full_before = load(service_stats.shard_full);
  trace::attach(span_log);
  timed = true;
  const std::uint64_t tsc_start = txc::core::cycle_now();
  const std::uint64_t start = now_ns();
  windows.emplace(start, seconds);
  pump(windows->end_ns(), true);
  const std::uint64_t elapsed_ns = now_ns() - start;
  const std::uint64_t tsc_elapsed = txc::core::cycle_now() - tsc_start;
  timed = false;
  trace::attach(nullptr);
  const StmCounters stm =
      StmCounters::read(service->store().stats()).since(stm_before);
  const std::uint64_t shard_full = load(service_stats.shard_full) -
                                   shard_full_before;
  const std::uint64_t service_rejected =
      load(service_stats.rejected) - rejected_before;
  const std::uint64_t service_completed =
      load(service_stats.completed) - completed_before;
  const std::uint64_t read_segments =
      load(service_stats.read_segments) - read_segments_before;
  const std::uint64_t write_segments =
      load(service_stats.write_segments) - write_segments_before;
  const ProbeArbiter::Counts probe_delta =
      probe ? since(probe->totals(), probe_before) : ProbeArbiter::Counts{};

  pump(0, false);  // collect every outstanding response
  service->stop();

  // -- Output checks ---------------------------------------------------------
  if (tally.get_misses != 0) {
    result.errors.push_back(std::to_string(tally.get_misses) +
                            " gets missed a prefilled key");
  }
  if (tally.completed_total != tally.issued_total) {
    result.errors.push_back("responses " +
                            std::to_string(tally.completed_total) +
                            " != requests submitted " +
                            std::to_string(tally.issued_total));
  }
  const std::uint64_t size = service->store().size_sync();
  if (size != shape_.keys) {
    result.errors.push_back("size_sync " + std::to_string(size) +
                            " != key count " + std::to_string(shape_.keys));
  }
  if (shape_.put_pct == 0) {
    // No puts: swaps conserve the value sum, rmw adds exactly its deltas.
    const std::uint64_t initial =
        std::uint64_t{shape_.keys} * (shape_.keys + 1) / 2;
    const std::uint64_t sum = service->store().value_sum_sync();
    if (sum != initial + tally.rmw_added) {
      result.errors.push_back(
          "value sum " + std::to_string(sum) + " != initial " +
          std::to_string(initial) + " + rmw deltas " +
          std::to_string(tally.rmw_added));
    }
  }

  // -- Metrics ---------------------------------------------------------------
  const double seconds_measured = static_cast<double>(elapsed_ns) * 1e-9;
  result.attempted = tally.submitted + service_rejected;
  result.failed = service_rejected + shard_full;
  const std::uint64_t succeeded =
      tally.completed > shard_full ? tally.completed - shard_full : 0;
  // Shard-full refusals are only counted service-side, not per window.
  result.throughput_ops_s =
      windows->rate() * ratio(static_cast<double>(succeeded),
                                     static_cast<double>(tally.completed));
  result.latency_p50_us = windows->latency_quantile(0.50) * 1e-3;
  result.latency_p99_us = windows->latency_quantile(0.99) * 1e-3;
  result.latency_samples = windows->latency_samples();
  result.commits_per_kcycle = commits_per_kcycle(
      result.throughput_ops_s,
      ratio(static_cast<double>(stm.commits + stm.snapshot_commits),
            static_cast<double>(succeeded)),
      static_cast<double>(tsc_elapsed) / seconds_measured);

  if (traced) {
    const trace::Summary spans = summarize(span_logs());
    auto& out = result.layers;
    const auto segments = static_cast<double>(read_segments + write_segments);
    out.push_back({"kv.submit_ns_p50",
                   spans[trace::SpanName::kKvSubmit].duration_ns.quantile(0.5)});
    out.push_back({"kv.service_us_p50", spans.kv_service_ns.quantile(0.5) * 1e-3});
    out.push_back({"kv.service_us_p99", spans.kv_service_ns.quantile(0.99) * 1e-3});
    out.push_back({"kv.requests_per_segment",
                   ratio(static_cast<double>(service_completed), segments)});
    out.push_back({"kv.read_segment_frac",
                   ratio(static_cast<double>(read_segments), segments)});
    out.push_back({"kv.rejected", static_cast<double>(service_rejected)});
    out.push_back({"kv.shard_full", static_cast<double>(shard_full)});
    add_stm_layers(out, stm);
    add_conflict_layers(out, probe_delta, static_cast<double>(stm.commits),
                        spans);
    add_trace_layers(out, spans);
  }
  return result;
}

}  // namespace

std::unique_ptr<Workload> make_kv_read(std::uint64_t seed) {
  return std::make_unique<KvWorkload<txc::stm::Stm>>(kKvRead, seed);
}

std::unique_ptr<Workload> make_kv_write(std::uint64_t seed) {
  return std::make_unique<KvWorkload<txc::stm::Norec>>(kKvWrite, seed);
}

}  // namespace perfbench
