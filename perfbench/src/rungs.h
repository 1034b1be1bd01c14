// The rungs of the layer ladder. Each pushes the same per-session
// feeds through one more layer of the stack: the direct runtime, the
// shard exchange, a served session in-process, the same over loopback
// TCP, and the durable segment store. Every call into the engine is
// wrapped in a benchmark-side span (tracer.h) so the traced run can
// attribute time to layers.
#ifndef PERFBENCH_RUNGS_H_
#define PERFBENCH_RUNGS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "model/segment.h"
#include "obs/metrics.h"
#include "store/segment_tree.h"
#include "workloads.h"

namespace perfbench {

/// Output segments per feed (session), in arrival order.
using Outputs = std::vector<std::vector<pulse::Segment>>;

struct RungRun {
  /// Timed region: every feed pushed and finished, one after another.
  double seconds = 0.0;
  uint64_t items = 0;
  Outputs outputs;
  /// Registry shared by the rung's runtimes (direct, predictive).
  pulse::obs::MetricsSnapshot metrics;
  /// Sharded rung only, one entry per feed: max / mean of per-shard
  /// items in, and the duration of Finish.
  std::vector<double> skew;
  std::vector<double> finish_ms;

  double tps() const { return seconds > 0 ? items / seconds : 0.0; }
};

/// HistoricalRuntime on one thread: ProcessTuples in 64-tuple batches
/// (or ProcessSegment per segment) plus Finish, one runtime per feed.
RungRun RunDirect(const Workload& w, const std::vector<Feed>& feeds,
                  SetupClock* setup);

/// PredictiveRuntime (the paper's live mode) over each feed's tuples.
RungRun RunPredictive(const Workload& w, const std::vector<Feed>& feeds,
                      SetupClock* setup);

/// ShardedRuntime at `shards`, one runtime per feed.
RungRun RunSharded(const Workload& w, const std::vector<Feed>& feeds,
                   size_t shards, SetupClock* setup);

struct ServeConfig {
  bool tcp = false;
  /// Aggregate open-loop rate (items/s) over all sessions; 0 runs a
  /// closed loop.
  double rate = 0.0;
  /// false: the lossless configuration (kBlock, admission off), where
  /// anything not accepted is a failure. true: SessionOptions
  /// defaults, whose admission controller may shed.
  bool default_session = false;
  size_t shards = 1;
  /// Non-empty: sessions are durable, appending to a SegmentStore
  /// opened (fresh) in this directory.
  std::string store_dir;
};

struct ServeRun {
  /// First send to the last kDrained.
  double seconds = 0.0;
  uint64_t sent = 0;
  uint64_t accepted = 0;
  uint64_t shed = 0;
  Outputs outputs;
  /// Arrival time (NowNs) of each output, per session.
  std::vector<std::vector<uint64_t>> arrival_ns;
  /// When the first item of every session was due.
  uint64_t t0_ns = 0;
  /// Open loop: how late each frame was sent after its first item was due.
  std::vector<double> lag_ns;
  /// kDrain sent to kDrained received, per session.
  std::vector<double> drain_ms;
  /// Client-to-server bytes on the wire.
  uint64_t bytes_sent = 0;
  pulse::obs::MetricsSnapshot server_metrics;

  double tps() const { return seconds > 0 ? accepted / seconds : 0.0; }
};

/// S = feeds.size() concurrent sessions, each with one sender and one
/// reader thread.
ServeRun RunServe(const Workload& w, const std::vector<Feed>& feeds,
                  const ServeConfig& config, SetupClock* setup);

/// Per-item due offset (ns from t0) of an open loop at `rate_per_session`.
inline uint64_t DueNs(size_t item, double rate_per_session) {
  return static_cast<uint64_t>(static_cast<double>(item) * 1e9 /
                               rate_per_session);
}

/// Segment ingest rate and length of one store phase, and the history
/// each phase's fresh store starts with (seconds of ingest): enough
/// that rebuilding a series' trees, deterministic work, outweighs the
/// lock waits around it.
inline constexpr double kStoreIngestRate = 2000.0;
inline constexpr double kStorePhaseSeconds = 0.5;
inline constexpr double kStoreHistorySeconds = 2.0;

/// A range query and the live store's answer to it.
struct RangeCheck {
  pulse::Key key = 0;
  double lo = 0.0;
  double hi = 0.0;
  pulse::store::RangeAggregate expected;
};

struct RangeRun {
  /// QueryRange latency (us) from each query's due time, or from its
  /// segment's append if that is later (see RunRange).
  std::vector<double> latency_us;
  /// How late each query started past its due time (us).
  std::vector<double> lag_us;
  /// The drained store directory, left in place for TimeRecover.
  std::string dir;
  /// A fixed query set over the whole ingested span.
  std::vector<RangeCheck> checks;
};

/// A fresh store holding `history` (appended directly, untimed); one
/// durable session ingests `segments` paced at kStoreIngestRate while
/// one thread issues a QueryRange per segment, at the same rate, over
/// the recent history of the segment's entity once it is appended.
/// The store is then drained and closed, and the live answers to a
/// fixed query set are kept for TimeRecover.
RangeRun RunRange(const Workload& w, const std::vector<pulse::Segment>& history,
                  const std::vector<pulse::Segment>& segments,
                  const std::string& dir, uint64_t seed, size_t shards,
                  SetupClock* setup);

/// One timed SegmentStore::Recover of range.dir (seconds). The recovered
/// store must answer range.checks exactly as the live store did.
double TimeRecover(const Workload& w, const RangeRun& range);

/// Layer-alone probes of the traced run.
struct ModelProbe {
  double ns_per_tuple = 0.0;
  double tuples_per_segment = 0.0;
};
ModelProbe TimeSegmenter(const Workload& w, const std::vector<Feed>& feeds);

/// HistoricalRuntime::ProcessSegment on pre-fitted segments, each call
/// recorded as a "core.process_segment_alone" span.
void TimeProcessSegment(const Workload& w,
                        const std::vector<std::vector<pulse::Segment>>& feeds);

struct StoreProbe {
  double append_ns = 0.0;
  double log_bytes_per_segment = 0.0;
  double recover_records_per_s = 0.0;
};
/// AppendSegment alone ("store.append" spans), then QueryRange alone
/// with no writer ("store.query" spans), then Recover.
StoreProbe TimeStoreAlone(const Workload& w,
                          const std::vector<pulse::Segment>& segments,
                          const std::string& dir, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_RUNGS_H_
