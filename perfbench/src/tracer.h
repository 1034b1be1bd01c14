// Benchmark-side span recorder for the traced run. Spans are opened
// around calls into the engine's public functions from the benchmark's
// own files (nothing inside src/ is instrumented by it): name, start,
// end, parent span and session id. Spans stay in memory and are written
// out once, at exit; self times are derived from them.
#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Record {
    uint64_t id = 0;
    uint64_t parent = 0;  // 0 = root
    const char* name = "";
    uint32_t session = 0;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
  };

  struct NameStats {
    uint64_t count = 0;
    uint64_t total_ns = 0;
    /// Duration minus the part of the span's interval covered by its
    /// child spans (on any thread).
    uint64_t self_ns = 0;
  };

  static Tracer& Get();

  void Enable(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Add(const Record& record);

  /// Durations (ns) of every recorded span called `name`.
  std::vector<double> Durations(const std::string& name) const;
  std::map<std::string, NameStats> Summarize() const;

  /// Writes the summary and every kept span as JSON; false on I/O error.
  bool Dump(const std::string& path, const std::string& workload,
            uint64_t seed) const;

 private:
  /// Spans of one name beyond this are counted but not kept (bounds
  /// memory; every name keeps its first spans, so its percentiles stay
  /// measurable).
  static constexpr size_t kMaxPerName = 20000;

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Record> records_;
  std::map<std::string, size_t, std::less<>> kept_per_name_;
  uint64_t dropped_ = 0;
};

/// Id of the innermost open span on this thread (0 when none).
uint64_t CurrentSpan();

/// RAII span. Inert (one relaxed load) while tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint32_t session = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer::Record record_;
  uint64_t saved_current_ = 0;
  bool active_ = false;
};

/// Makes `parent` the enclosing span of spans opened on this thread
/// while the scope lives: how session threads link to the rung span
/// that started them.
class ParentScope {
 public:
  explicit ParentScope(uint64_t parent);
  ~ParentScope();
  ParentScope(const ParentScope&) = delete;
  ParentScope& operator=(const ParentScope&) = delete;

 private:
  uint64_t saved_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
