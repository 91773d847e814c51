// Span recorder for the traced run.
//
// Spans are recorded by the benchmark's own code around its calls into the
// library — kv.request ⊃ kv.submit, ds.enqueue / ds.dequeue ⊃
// conflict.decide, htm.run ⊃ conflict.grant — never inside src/.  Each
// span has a name, start, end, parent span and request id.  Spans are kept
// in a per-thread buffer preallocated before timing starts and are only
// read after the recording threads have been joined, so recording takes no
// lock and never allocates.
//
// Only sampled requests record spans (request id % sample period == 0):
// recording every request of a multi-million-op run would not fit in
// memory.  A full buffer drops further spans and counts them.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench::trace {

enum class SpanName : std::uint8_t {
  kKvRequest,
  kKvSubmit,
  kDsEnqueue,
  kDsDequeue,
  kConflictDecide,
  kHtmRun,
  kConflictGrant,
};
inline constexpr std::size_t kSpanNameCount = 7;

[[nodiscard]] const char* to_string(SpanName name) noexcept;

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t request = 0;
  std::int32_t parent = -1;  // index in the same thread's log; -1: root
  SpanName name = SpanName::kKvRequest;
};

/// One thread's spans.  Not thread-safe: owned by the recording thread
/// until it is joined.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity) { spans_.reserve(capacity); }

  /// Open a span; returns its index, or -1 when the buffer is full.
  std::int32_t open(SpanName name, std::uint64_t request, std::int32_t parent,
                    std::uint64_t start_ns) noexcept {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return -1;
    }
    spans_.push_back(Span{start_ns, start_ns, request, parent, name});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t index, std::uint64_t end_ns) noexcept {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].end_ns = end_ns;
  }

  /// Start a request on this thread: spans opened until the next
  /// begin_request() belong to it, and are recorded only if it is sampled.
  void begin_request(std::uint64_t request, bool sampled) noexcept {
    request_ = request;
    sampled_ = sampled;
  }
  [[nodiscard]] bool sampled() const noexcept { return sampled_; }
  [[nodiscard]] std::uint64_t request() const noexcept { return request_; }

  /// Innermost open span of a ScopedSpan nest (the parent of the next one).
  std::int32_t current = -1;

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
  std::uint64_t request_ = 0;
  bool sampled_ = false;
};

/// The calling thread's log, or nullptr when the thread is not traced
/// (untraced phases, and threads the library spawns itself).
[[nodiscard]] SpanLog* thread_log() noexcept;
/// Attach `log` to the calling thread (nullptr detaches).
void attach(SpanLog* log) noexcept;

/// RAII span nested under the thread's current span; records nothing
/// unless the thread is traced and its current request is sampled.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name) noexcept : log_(thread_log()) {
    if (log_ == nullptr || !log_->sampled()) return;
    parent_ = log_->current;
    index_ = log_->open(name, log_->request(), parent_, now_ns());
    if (index_ >= 0) log_->current = index_;
  }
  ~ScopedSpan() {
    if (index_ < 0) return;
    log_->close(index_, now_ns());
    log_->current = parent_;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::int32_t parent_ = -1;
  std::int32_t index_ = -1;
};

/// Per-span-name summary over a set of joined logs.
struct Summary {
  struct PerName {
    std::uint64_t count = 0;
    double self_ns_total = 0.0;
    Histogram duration_ns;
  };
  std::array<PerName, kSpanNameCount> by_name;
  std::uint64_t spans = 0;
  std::uint64_t dropped = 0;
  /// kv only: kv.request end − kv.submit end, per sampled request — the
  /// time from submit() returning to the response being observed.
  Histogram kv_service_ns;

  [[nodiscard]] const PerName& operator[](SpanName name) const noexcept {
    return by_name[static_cast<std::size_t>(name)];
  }
};

/// Self time of a span = its duration minus the time its children cover.
[[nodiscard]] Summary summarize(const std::vector<const SpanLog*>& logs);

/// Write every span as one tab-separated line per span (overwrites `path`).
/// Returns false when the file cannot be written.
bool write_tsv(const std::string& path,
               const std::vector<const SpanLog*>& logs);

}  // namespace perfbench::trace
