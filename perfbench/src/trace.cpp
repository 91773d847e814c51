#include "trace.hpp"

#include <cstdio>

namespace perfbench::trace {

namespace {
thread_local SpanLog* tls_log = nullptr;
}  // namespace

const char* to_string(SpanName name) noexcept {
  switch (name) {
    case SpanName::kKvRequest: return "kv.request";
    case SpanName::kKvSubmit: return "kv.submit";
    case SpanName::kDsEnqueue: return "ds.enqueue";
    case SpanName::kDsDequeue: return "ds.dequeue";
    case SpanName::kConflictDecide: return "conflict.decide";
    case SpanName::kHtmRun: return "htm.run";
    case SpanName::kConflictGrant: return "conflict.grant";
  }
  return "?";
}

SpanLog* thread_log() noexcept { return tls_log; }
void attach(SpanLog* log) noexcept { tls_log = log; }

Summary summarize(const std::vector<const SpanLog*>& logs) {
  Summary summary;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<double> child_ns(spans.size(), 0.0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        child_ns[static_cast<std::size_t>(span.parent)] +=
            static_cast<double>(span.end_ns - span.start_ns);
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      const std::uint64_t duration = span.end_ns - span.start_ns;
      auto& per_name = summary.by_name[static_cast<std::size_t>(span.name)];
      ++per_name.count;
      per_name.self_ns_total += static_cast<double>(duration) - child_ns[i];
      per_name.duration_ns.record(duration);
      if (span.name == SpanName::kKvSubmit && span.parent >= 0) {
        const Span& request = spans[static_cast<std::size_t>(span.parent)];
        summary.kv_service_ns.record(request.end_ns - span.end_ns);
      }
    }
    summary.spans += spans.size();
    summary.dropped += log->dropped();
  }
  return summary;
}

bool write_tsv(const std::string& path,
               const std::vector<const SpanLog*>& logs) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "thread\tindex\tname\trequest\tparent\tstart_ns\tend_ns\n");
  for (std::size_t thread = 0; thread < logs.size(); ++thread) {
    const std::vector<Span>& spans = logs[thread]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      std::fprintf(out, "%zu\t%zu\t%s\t%llu\t%d\t%llu\t%llu\n", thread, i,
                   to_string(span.name),
                   static_cast<unsigned long long>(span.request),
                   static_cast<int>(span.parent),
                   static_cast<unsigned long long>(span.start_ns),
                   static_cast<unsigned long long>(span.end_ns));
    }
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench::trace
