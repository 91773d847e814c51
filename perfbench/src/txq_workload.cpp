// txq-contended: three threads run enqueue-then-dequeue pairs on one
// transactional Michael–Scott queue over TL2 with Grace(RRW).  Every op
// conflicts on head or tail and allocates or frees a TxPool block, so the
// conflict, TL2 commit and mem reclamation layers do most of the work.
//
// A failed enqueue (TxPool exhaustion) is counted as a failed op and kept
// out of throughput; it is never retried away.  An empty dequeue — which
// can only follow a failed enqueue — is neither a success nor a failure.
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/profiler.hpp"
#include "ds/tx_queue.hpp"
#include "sim/rng.hpp"
#include "stm/tl2.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr unsigned kThreads = 3;
constexpr std::size_t kCapacity = 4096;  // the repo's alloc-bench pool size
constexpr std::size_t kSaltLength = std::size_t{1} << 16;
constexpr std::uint64_t kSamplePeriod = 64;  // traced: 1 op pair in 64
constexpr std::size_t kSpanCapacity = std::size_t{1} << 19;
constexpr auto kPolicy = txc::core::StrategyKind::kRandWins;

using Queue = txc::ds::TxMichaelScottQueue<txc::stm::Stm>;

/// A value names its producer and sequence number, plus seed-derived salt:
///   producer (8 bits) | sequence (40 bits) | salt (16 bits).
std::uint64_t make_value(unsigned producer, std::uint64_t sequence,
                         std::uint16_t salt) {
  return (std::uint64_t{producer} << 56) |
         ((sequence & ((std::uint64_t{1} << 40) - 1)) << 16) | salt;
}
unsigned producer_of(std::uint64_t value) {
  return static_cast<unsigned>(value >> 56);
}
std::uint64_t sequence_of(std::uint64_t value) {
  return (value >> 16) & ((std::uint64_t{1} << 40) - 1);
}

/// Order-independent fingerprint of a multiset of values: count, sum and
/// the sum of a 64-bit mix (wrapping).  Equal multisets give equal
/// fingerprints; an accidental match of different ones is ~2^-64 likely.
struct Multiset {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t mixed = 0;

  void add(std::uint64_t value) noexcept {
    ++count;
    sum += value;
    mixed += derive_seed(value, 7);
  }
  void add(const Multiset& other) noexcept {
    count += other.count;
    sum += other.sum;
    mixed += other.mixed;
  }
  bool operator==(const Multiset&) const = default;
};

/// One thread's tallies; padded so threads do not share a line.
struct alignas(64) ThreadTally {
  std::optional<Windows> windows;  // timed window, one sample per call
  std::uint64_t enqueued = 0;  // timed window
  std::uint64_t enqueue_failed = 0;
  std::uint64_t dequeued = 0;
  std::uint64_t dequeue_empty = 0;
  Multiset produced;  // every successful enqueue
  Multiset consumed;  // every successful dequeue
  std::uint64_t fifo_violations = 0;
  std::uint64_t foreign_values = 0;
};

class TxqWorkload final : public Workload {
 public:
  explicit TxqWorkload(std::uint64_t seed) {
    txc::sim::Rng rng{derive_seed(seed, 2)};
    for (auto& salts : salts_) {
      salts.resize(kSaltLength);
      for (auto& salt : salts) salt = static_cast<std::uint16_t>(rng());
    }
  }

  unsigned threads() const override { return kThreads; }
  std::string thread_roles() const override {
    return std::to_string(kThreads) + " enqueue-then-dequeue workers";
  }
  unsigned setup_repeats() const override { return 51; }
  double setup_once() override {
    const std::uint64_t start = now_ns();
    txc::stm::Stm stm{grace_arbiter(kPolicy)};
    Queue queue{stm, kCapacity};
    return static_cast<double>(now_ns() - start) * 1e-9;
  }

  PhaseResult run_phase(double seconds, bool traced) override;

 private:
  struct Control {
    std::atomic<int> stage{0};
    std::atomic<std::uint64_t> start_ns{0};  // published before kTimed
    double seconds = 0.0;
  };

  template <bool Traced>
  void worker(unsigned self, Queue& queue, const Control& control,
              ThreadTally& tally) const;

  std::vector<std::uint16_t> salts_[kThreads];
};

enum Stage : int { kWarmup = 0, kTimed = 1, kStop = 2 };

template <bool Traced>
void TxqWorkload::worker(unsigned self, Queue& queue, const Control& control,
                         ThreadTally& tally) const {
  trace::SpanLog* const span_log = Traced ? log(self) : nullptr;
  trace::attach(span_log);
  std::uint64_t last_seen[kThreads];
  for (auto& seen : last_seen) seen = ~std::uint64_t{0};
  for (std::uint64_t sequence = 0;; ++sequence) {
    const int now_stage = control.stage.load(std::memory_order_acquire);
    if (now_stage == kStop) break;
    const bool timed = now_stage == kTimed;
    if (timed && !tally.windows.has_value()) {
      tally.windows.emplace(control.start_ns.load(std::memory_order_relaxed),
                            control.seconds);
    }
    if constexpr (Traced) {
      span_log->begin_request((std::uint64_t{self} << 48) | sequence,
                              timed && sequence % kSamplePeriod == 0);
    }
    const std::uint64_t value =
        make_value(self, sequence, salts_[self][sequence % kSaltLength]);

    const std::uint64_t t0 = now_ns();
    bool enqueued;
    {
      trace::ScopedSpan span{trace::SpanName::kDsEnqueue};
      enqueued = queue.enqueue(value);
    }
    const std::uint64_t t1 = now_ns();
    std::optional<std::uint64_t> dequeued;
    {
      trace::ScopedSpan span{trace::SpanName::kDsDequeue};
      dequeued = queue.dequeue();
    }
    const std::uint64_t t2 = now_ns();

    if (enqueued) tally.produced.add(value);
    if (dequeued.has_value()) {
      tally.consumed.add(*dequeued);
      // FIFO: one consumer sees each producer's values in sequence order.
      const unsigned producer = producer_of(*dequeued);
      if (producer >= kThreads) {
        ++tally.foreign_values;
      } else {
        const std::uint64_t seen = sequence_of(*dequeued);
        if (last_seen[producer] != ~std::uint64_t{0} &&
            seen <= last_seen[producer]) {
          ++tally.fifo_violations;
        }
        last_seen[producer] = seen;
      }
    }
    if (timed) {
      const std::size_t w1 = tally.windows->at(t1);
      if (w1 < Windows::kCount) {
        tally.windows->record_latency(w1, t1 - t0);
        tally.windows->add_ops(w1, enqueued ? 1 : 0);
      }
      const std::size_t w2 = tally.windows->at(t2);
      if (w2 < Windows::kCount) {
        tally.windows->record_latency(w2, t2 - t1);
        tally.windows->add_ops(w2, dequeued.has_value() ? 1 : 0);
      }
      ++(enqueued ? tally.enqueued : tally.enqueue_failed);
      ++(dequeued.has_value() ? tally.dequeued : tally.dequeue_empty);
    }
  }
  trace::attach(nullptr);
}

struct PoolCounters {
  std::uint64_t allocs = 0;
  std::uint64_t abort_recycles = 0;
  std::uint64_t frees = 0;
  std::uint64_t reclaimed = 0;
  std::uint64_t exhaustion_failures = 0;
  std::uint64_t epoch_advances = 0;

  static PoolCounters read(const txc::mem::TxPool::Stats& stats) {
    constexpr auto relaxed = std::memory_order_relaxed;
    return {stats.allocs.load(relaxed),       stats.abort_recycles.load(relaxed),
            stats.frees.load(relaxed),        stats.reclaimed.load(relaxed),
            stats.exhaustion_failures.load(relaxed),
            stats.epoch_advances.load(relaxed)};
  }
};

PhaseResult TxqWorkload::run_phase(double seconds, bool traced) {
  PhaseResult result;
  const auto grace = grace_arbiter(kPolicy);
  const auto probe = traced ? std::make_shared<ProbeArbiter>(grace) : nullptr;
  txc::stm::Stm stm{
      traced ? std::shared_ptr<const txc::conflict::ConflictArbiter>{probe}
             : grace};
  Queue queue{stm, kCapacity};
  if (traced) reset_logs(kThreads, kSpanCapacity);

  Control control;
  control.seconds = seconds;
  std::vector<ThreadTally> tallies(kThreads);
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      if (traced) {
        worker<true>(t, queue, control, tallies[t]);
      } else {
        worker<false>(t, queue, control, tallies[t]);
      }
    });
  }
  const auto sleep_for = [](double s) {
    std::this_thread::sleep_for(std::chrono::duration<double>(s));
  };

  sleep_for(warmup_seconds(seconds));
  const StmCounters stm_before = StmCounters::read(stm.stats());
  const PoolCounters pool_before = PoolCounters::read(queue.pool().stats());
  const ProbeArbiter::Counts probe_before =
      probe ? probe->totals() : ProbeArbiter::Counts{};
  const std::uint64_t tsc_start = txc::core::cycle_now();
  const std::uint64_t start = now_ns();
  control.start_ns.store(start, std::memory_order_relaxed);
  control.stage.store(kTimed, std::memory_order_release);
  sleep_for(seconds);
  control.stage.store(kStop, std::memory_order_release);
  const std::uint64_t elapsed_ns = now_ns() - start;
  const std::uint64_t tsc_elapsed = txc::core::cycle_now() - tsc_start;
  for (auto& thread : workers) thread.join();
  const StmCounters stm_delta = StmCounters::read(stm.stats()).since(stm_before);
  const PoolCounters pool = PoolCounters::read(queue.pool().stats());
  const ProbeArbiter::Counts probe_delta =
      probe ? since(probe->totals(), probe_before) : ProbeArbiter::Counts{};

  // -- Output checks: dequeued + left over == successfully enqueued ----------
  Windows windows{start, seconds};
  Multiset produced;
  Multiset consumed;
  std::uint64_t enqueued = 0, enqueue_failed = 0, dequeued = 0,
                dequeue_empty = 0, fifo_violations = 0, foreign = 0;
  for (const ThreadTally& tally : tallies) {
    if (tally.windows.has_value()) windows.merge(*tally.windows);
    produced.add(tally.produced);
    consumed.add(tally.consumed);
    enqueued += tally.enqueued;
    enqueue_failed += tally.enqueue_failed;
    dequeued += tally.dequeued;
    dequeue_empty += tally.dequeue_empty;
    fifo_violations += tally.fifo_violations;
    foreign += tally.foreign_values;
  }
  while (const auto left = queue.dequeue()) consumed.add(*left);
  if (!(consumed == produced)) {
    result.errors.push_back(
        "dequeued + left over (" + std::to_string(consumed.count) +
        " values) != successfully enqueued (" +
        std::to_string(produced.count) + " values), or their sums differ");
  }
  if (fifo_violations != 0 || foreign != 0) {
    result.errors.push_back(std::to_string(fifo_violations) +
                            " FIFO order violations, " +
                            std::to_string(foreign) + " unknown values");
  }
  queue.pool().quiesce_reclaim();
  if (queue.pool().live_blocks() != 1) {
    result.errors.push_back("drained queue holds " +
                            std::to_string(queue.pool().live_blocks()) +
                            " live pool blocks, expected the dummy only");
  }

  // -- Metrics ---------------------------------------------------------------
  const double seconds_measured = static_cast<double>(elapsed_ns) * 1e-9;
  const std::uint64_t calls =
      enqueued + enqueue_failed + dequeued + dequeue_empty;
  result.attempted = calls;
  result.failed = enqueue_failed;
  result.throughput_ops_s = windows.rate();
  result.latency_p50_us = windows.latency_quantile(0.50) * 1e-3;
  result.latency_p99_us = windows.latency_quantile(0.99) * 1e-3;
  result.latency_samples = windows.latency_samples();
  result.commits_per_kcycle = commits_per_kcycle(
      result.throughput_ops_s,
      ratio(static_cast<double>(stm_delta.commits),
            static_cast<double>(enqueued + dequeued)),
      static_cast<double>(tsc_elapsed) / seconds_measured);

  if (traced) {
    const trace::Summary spans = summarize(span_logs());
    auto& out = result.layers;
    const auto d = [](std::uint64_t now, std::uint64_t before) {
      return static_cast<double>(now - before);
    };
    add_stm_layers(out, stm_delta);
    add_conflict_layers(out, probe_delta,
                        static_cast<double>(stm_delta.commits), spans);
    out.push_back({"mem.exhaustion_frac",
                   ratio(d(pool.exhaustion_failures,
                           pool_before.exhaustion_failures),
                         d(pool.allocs + pool.exhaustion_failures,
                           pool_before.allocs +
                               pool_before.exhaustion_failures))});
    out.push_back({"mem.epoch_advances_per_kop",
                   ratio(d(pool.epoch_advances, pool_before.epoch_advances),
                         static_cast<double>(calls) * 1e-3)});
    out.push_back({"mem.abort_recycles_per_commit",
                   ratio(d(pool.abort_recycles, pool_before.abort_recycles),
                         static_cast<double>(stm_delta.commits))});
    out.push_back({"mem.limbo_backlog", d(pool.frees, pool.reclaimed)});
    add_trace_layers(out, spans);
  }
  return result;
}

}  // namespace

std::unique_ptr<Workload> make_txq_contended(std::uint64_t seed) {
  return std::make_unique<TxqWorkload>(seed);
}

}  // namespace perfbench
