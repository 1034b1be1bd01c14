#include "tracer.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "common.h"

namespace perfbench {
namespace {

thread_local uint64_t t_current = 0;

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Add(const Record& record) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = kept_per_name_.find(std::string_view(record.name));
  if (it == kept_per_name_.end()) {
    it = kept_per_name_.emplace(record.name, 0).first;
  }
  if (it->second >= kMaxPerName) {
    ++dropped_;
    return;
  }
  ++it->second;
  records_.push_back(record);
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Record& r : records_) {
    if (name == r.name) out.push_back(static_cast<double>(r.end_ns - r.start_ns));
  }
  return out;
}

std::map<std::string, Tracer::NameStats> Tracer::Summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>>
      children;
  for (const Record& r : records_) {
    if (r.parent != 0) children[r.parent].push_back({r.start_ns, r.end_ns});
  }
  std::map<std::string, NameStats> out;
  for (const Record& r : records_) {
    NameStats& s = out[r.name];
    const uint64_t dur = r.end_ns - r.start_ns;
    uint64_t covered = 0;
    auto it = children.find(r.id);
    if (it != children.end()) {
      std::vector<std::pair<uint64_t, uint64_t>>& iv = it->second;
      std::sort(iv.begin(), iv.end());
      uint64_t run_lo = 0;
      uint64_t run_hi = 0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, r.start_ns);
        hi = std::min(hi, r.end_ns);
        if (hi <= lo) continue;
        if (open && lo <= run_hi) {
          run_hi = std::max(run_hi, hi);
          continue;
        }
        if (open) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
        open = true;
      }
      if (open) covered += run_hi - run_lo;
    }
    ++s.count;
    s.total_ns += dur;
    s.self_ns += dur - std::min(dur, covered);
  }
  return out;
}

bool Tracer::Dump(const std::string& path, const std::string& workload,
                  uint64_t seed) const {
  const std::map<std::string, NameStats> summary = Summarize();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t origin = ~uint64_t{0};
  for (const Record& r : records_) origin = std::min(origin, r.start_ns);
  std::fprintf(f,
               "{\"workload\": \"%s\", \"seed\": %llu, \"kept\": %zu, "
               "\"dropped\": %llu,\n\"summary\": {",
               workload.c_str(), static_cast<unsigned long long>(seed),
               records_.size(), static_cast<unsigned long long>(dropped_));
  bool first = true;
  for (const auto& [name, s] : summary) {
    std::fprintf(f,
                 "%s\n  \"%s\": {\"count\": %llu, \"total_ms\": %.6f, "
                 "\"self_ms\": %.6f}",
                 first ? "" : ",", name.c_str(),
                 static_cast<unsigned long long>(s.count), s.total_ns / 1e6,
                 s.self_ns / 1e6);
    first = false;
  }
  std::fprintf(f,
               "},\n\"columns\": [\"id\", \"name\", \"session\", \"parent\", "
               "\"start_ns\", \"end_ns\"],\n\"spans\": [");
  first = true;
  for (const Record& r : records_) {
    std::fprintf(f, "%s\n[%llu, \"%s\", %u, %llu, %llu, %llu]",
                 first ? "" : ",", static_cast<unsigned long long>(r.id),
                 r.name, r.session, static_cast<unsigned long long>(r.parent),
                 static_cast<unsigned long long>(r.start_ns - origin),
                 static_cast<unsigned long long>(r.end_ns - origin));
    first = false;
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

uint64_t CurrentSpan() { return t_current; }

ScopedSpan::ScopedSpan(const char* name, uint32_t session) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  active_ = true;
  record_.id = tracer.NextId();
  record_.parent = t_current;
  record_.name = name;
  record_.session = session;
  saved_current_ = t_current;
  t_current = record_.id;
  record_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  record_.end_ns = NowNs();
  t_current = saved_current_;
  Tracer::Get().Add(record_);
}

ParentScope::ParentScope(uint64_t parent) : saved_(t_current) {
  t_current = parent;
}

ParentScope::~ParentScope() { t_current = saved_; }

}  // namespace perfbench
