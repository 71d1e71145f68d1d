#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the traced run. Spans are taken around the
// benchmark's own calls into the library's public functions, kept in
// memory, and written out as NDJSON when the run ends. A disabled tracer
// records nothing.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct SpanRecord {
    const char* name;
    int64_t start_ns;  // since the tracer was made
    int64_t end_ns;
    uint64_t id;
    uint64_t parent;   // 0 = none
    int64_t request;   // stream index of the request, -1 = none
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  void Record(const SpanRecord& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }

  // Durations, in seconds, of every span called `name`, in record order.
  std::vector<double> Durations(const std::string& name) const;
  // One JSON object per span, then `summary` (already JSON) as a last line.
  void Write(const std::string& path, const std::string& summary) const;

 private:
  const bool enabled_;
  const Clock::time_point origin_;
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

// A span from construction to End() or destruction. With a null or
// disabled tracer it records nothing.
class Span {
 public:
  Span(Tracer* tracer, const char* name, uint64_t parent = 0,
       int64_t request = -1)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
    if (tracer_ == nullptr) return;
    rec_ = {name, tracer_->Now(), 0, tracer_->NextId(), parent, request};
  }
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t id() const { return tracer_ == nullptr ? 0 : rec_.id; }
  void End() {
    if (tracer_ == nullptr) return;
    rec_.end_ns = tracer_->Now();
    tracer_->Record(rec_);
    tracer_ = nullptr;
  }

 private:
  Tracer* tracer_;
  Tracer::SpanRecord rec_{};
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
