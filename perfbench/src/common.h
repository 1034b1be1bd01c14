// Shared helpers of the layer-ladder benchmark: clocks, order
// statistics, and the run-wide ledger of attempted and failed
// operations and output-check results.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Cuts samples, in the order they were due, into consecutive chunks of
/// at least 1000, so that a chunk's p99 has ten samples beyond it.
inline size_t ChunkCount(size_t samples) { return samples / 1000; }

/// A tail quantile that stalls of the host cannot move on their own: the
/// lower quartile of the chunks' quantiles (ChunkCount). Chunks are as
/// short as the sample allows, so a stall spoils few of them; the lower
/// quartile also holds when the host is busy for most of a run. (In ten
/// 55 s keyed_agg runs on a shared 4-vCPU VM, two of them with many
/// times the usual CPU steal, lat_p99_ms spread 0.16 between runs as the
/// median of the chunk p99s and 0.011 as their lower quartile.) With
/// fewer than 2000 samples it is the plain quantile.
inline double ChunkedQuantile(const std::vector<double>& in_due_order,
                              double q) {
  const size_t chunks = ChunkCount(in_due_order.size());
  if (chunks < 2) return Quantile(in_due_order, q);
  std::vector<double> per_chunk;
  for (size_t c = 0; c < chunks; ++c) {
    const size_t lo = in_due_order.size() * c / chunks;
    const size_t hi = in_due_order.size() * (c + 1) / chunks;
    per_chunk.push_back(Quantile(
        std::vector<double>(in_due_order.begin() + lo,
                            in_due_order.begin() + hi),
        q));
  }
  return Quantile(std::move(per_chunk), 0.25);
}

/// Accumulates wall time of program set-up calls (runtime and server
/// Make, connects, Hello/OpenStream, store Open).
struct SetupClock {
  uint64_t ns = 0;
  template <typename F>
  auto Time(F&& f) {
    const uint64_t t0 = NowNs();
    auto result = f();
    ns += NowNs() - t0;
    return result;
  }
};

/// Run-wide accounting. `attempted` counts every item offered to a
/// rung, every query issued and every session opened; `failed` counts
/// items not accepted, non-OK statuses, failed queries and failed
/// sessions. Output checks record the first divergence they find.
class Ledger {
 public:
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(uint64_t n, const std::string& what);
  void Mismatch(const std::string& what);

  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  bool correct() const;

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  mutable std::mutex mu_;
  bool mismatched_ = false;
  bool fail_reported_ = false;
};

Ledger& ledger();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
