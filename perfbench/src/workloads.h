// The benchmark's workloads: one query, one runtime configuration and
// one seeded trace shape each. README.md says why each was chosen.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/query.h"
#include "core/runtime.h"
#include "engine/tuple.h"
#include "model/segment.h"
#include "util/result.h"

namespace perfbench {

/// One session's input. Tuple workloads push `tuples`; segment
/// workloads push the pre-fitted `segments` (ordered by upper bound)
/// and keep the tuples they were fitted from for the predictive rung.
struct Feed {
  bool segment_mode = false;
  std::vector<pulse::Tuple> tuples;
  std::vector<pulse::Segment> segments;

  size_t size() const {
    return segment_mode ? segments.size() : tuples.size();
  }
  /// Event time of each pushed item, non-decreasing: a tuple's
  /// timestamp, or a segment's upper bound.
  std::vector<double> EventTimes() const;
};

struct Workload {
  std::string name;
  std::string stream;
  pulse::QuerySpec spec;
  /// Template of every historical runtime (direct, sharded, served).
  pulse::HistoricalRuntime::Options runtime;
  bool segment_mode = false;
  /// Served sessions append admitted input to a SegmentStore.
  bool durable = false;
  /// Aggregate open-loop rate of the latency phase (items/s).
  double open_loop_rate = 0.0;
  /// Items per session per measurement pass.
  size_t pass_items = 0;
  /// Tuples of a segment feed kept for the predictive rung.
  size_t predictive_tuples = 0;
};

std::vector<std::string> WorkloadNames();
pulse::Result<Workload> MakeWorkload(const std::string& name);

/// The trace of `session` for `purpose` (independent seeds), `items`
/// pushed items long.
Feed MakeFeed(const Workload& w, uint64_t seed, uint32_t session,
              uint32_t purpose, size_t items);

/// `count` pre-fitted segments of a fresh trace (store phase, probes),
/// ordered by upper bound.
std::vector<pulse::Segment> MakeSegments(const Workload& w, uint64_t seed,
                                         uint32_t session, uint32_t purpose,
                                         size_t count);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
