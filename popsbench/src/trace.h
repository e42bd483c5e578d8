// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark around its own calls into each
// popsnet layer; nothing inside the library is instrumented. A span
// carries its name, start and end (nanoseconds since the tracer was
// made), its parent span (-1 for a root) and the id of the operation
// it belongs to. Spans stay in a pre-reserved vector while the run is
// timed and are written out once at the end.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace popsbench {

struct TraceSpan {
  const char* name;  // string literal: recording never allocates
  std::int64_t start_ns;
  std::int64_t end_ns;
  int parent;
  long long op;
};

class Tracer {
 public:
  explicit Tracer(std::size_t capacity)
      : epoch_(std::chrono::steady_clock::now()) {
    spans_.reserve(capacity);
  }

  /// Nanoseconds from the tracer's creation to `at`.
  std::int64_t ns_of(std::chrono::steady_clock::time_point at) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(at - epoch_)
        .count();
  }
  std::int64_t now_ns() const {
    return ns_of(std::chrono::steady_clock::now());
  }

  /// Opens a span starting now; returns its id.
  int open(const char* name, int parent, long long op) {
    return record(name, parent, op, now_ns(), -1);
  }
  void close(int span) {
    spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
  }

  /// Records a span with explicit times (end -1 leaves it open).
  int record(const char* name, int parent, long long op,
             std::int64_t start_ns, std::int64_t end_ns) {
    spans_.push_back(TraceSpan{name, start_ns, end_ns, parent, op});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// True once the reserved capacity is used up; callers stop starting
  /// new operations so recording never reallocates mid-run.
  bool nearly_full(std::size_t headroom) const {
    return spans_.size() + headroom > spans_.capacity();
  }

  const std::vector<TraceSpan>& spans() const { return spans_; }
  /// Drops every span (keeping the capacity), e.g. after a warm-up.
  void clear() { spans_.clear(); }

  /// Summed duration, in microseconds, of every span named `name`.
  double total_us(const std::string& name) const {
    std::int64_t total = 0;
    for (const TraceSpan& span : spans_) {
      if (name == span.name) total += span.end_ns - span.start_ns;
    }
    return static_cast<double>(total) / 1e3;
  }

  long long count(const std::string& name) const {
    long long n = 0;
    for (const TraceSpan& span : spans_) n += name == span.name;
    return n;
  }

  /// Writes one CSV line per span: id,parent,op,name,start_ns,end_ns.
  bool write_csv(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return false;
    std::fprintf(file, "id,parent,op,name,start_ns,end_ns\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const TraceSpan& span = spans_[i];
      std::fprintf(file, "%zu,%d,%lld,%s,%lld,%lld\n", i, span.parent,
                   span.op, span.name,
                   static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns));
    }
    return std::fclose(file) == 0;
  }

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<TraceSpan> spans_;
};

/// Closes its span when it leaves scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int parent, long long op)
      : tracer_(tracer), id_(tracer.open(name, parent, op)) {}
  ~ScopedSpan() { tracer_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace popsbench
