#ifndef PULSE_SHARD_SHARD_POOL_H_
#define PULSE_SHARD_SHARD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/query.h"
#include "core/runtime.h"
#include "core/solve_cache.h"
#include "obs/metrics.h"
#include "shard/shard_router.h"
#include "util/result.h"

namespace pulse {
namespace shard {

class ShardClient;

struct ShardPoolOptions {
  /// Worker shards; clamped to at least 1. The shard-per-core shape is
  /// num_shards == hardware_concurrency.
  size_t num_shards = 1;
  /// Per-shard exchange queue capacity, in tuples (a segment counts as
  /// one). Producers block while a shard's queue is full (lossless;
  /// loss policies live at the serving admission edge, not inside the
  /// engine). A record larger than the capacity is admitted into an
  /// empty queue, so no batch size can deadlock.
  size_t exchange_capacity = 256;
  /// Template for every client runtime the pool creates. `metrics` and
  /// `shared_solve_cache` are overridden per shard; `solve_cache` (the
  /// cache geometry) configures each shard's shared cache. A nonzero
  /// quantum disables cross-client cache sharing — quantized hits could
  /// leak one client's solutions into another's answers.
  HistoricalRuntime::Options runtime;
  /// Registry the pool's SyncMetrics publishes into: per-shard mirrors
  /// under `shard/<i>/...` plus merged rollups under the plain names.
  /// nullptr: the pool owns a private one, reachable via metrics().
  obs::MetricsRegistry* metrics = nullptr;
  /// SyncMetrics throttle: refreshes closer together than this are
  /// dropped (callers may invoke it on hot paths).
  uint64_t metrics_sync_interval_ns = 2'000'000;
};

/// Key-partitioned shard-per-core engine (docs/SHARDING.md): N worker
/// threads, each owning one shard — a MetricsRegistry, a SolveCache,
/// and, per client, a HistoricalRuntime holding exactly the keys the
/// ShardRouter maps to that shard. Producers (ShardClient routers)
/// split each call into at most one record per shard and push the
/// records onto bounded per-shard exchange queues; workers never block
/// on output, so a full exchange queue surfaces as producer
/// backpressure, never deadlock. Idle workers block on their queue.
///
/// Determinism contract: for a partitionable plan (AnalyzePartition-
/// ability), a client's output is byte-identical for every num_shards,
/// including 1 — workers tag each output with the seq of the tuple that
/// produced it, and the per-call merge in ShardClient restores the
/// exact serial data-phase order; the canonical finish-phase key sort
/// (HistoricalRuntime::Finish) makes the finish tail
/// shard-count-invariant. Non-partitionable plans route every key to
/// shard 0 and are trivially identical.
class ShardPool {
 public:
  static Result<std::unique_ptr<ShardPool>> Make(const QuerySpec& spec,
                                                 ShardPoolOptions options);
  ~ShardPool();

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  /// Registers a new client: builds its per-shard runtimes (sharing the
  /// shard's cache and registry) and returns the routing handle. Every
  /// client must be destroyed before the pool.
  Result<std::unique_ptr<ShardClient>> AddClient();

  /// Closes the exchange queues, lets workers drain what was already
  /// queued, and joins them. Idempotent; called by the destructor.
  void Shutdown();

  size_t num_shards() const { return shards_.size(); }
  const PartitionAnalysis& partition() const { return partition_; }
  const ShardRouter& router() const { return router_; }

  /// The pool-level registry (mirrors + rollups target).
  obs::MetricsRegistry* metrics() const { return metrics_; }
  /// Shard `i`'s own registry (every client runtime on that shard
  /// reports here).
  obs::MetricsRegistry* shard_metrics(size_t i) const;

  /// Publishes per-shard registries into metrics() as `shard/<i>/...`
  /// mirrors plus merged rollups under the plain names (the rollup
  /// `span/runtime/push_segment` histogram is the serving admission
  /// controller's latency signal). Throttled by
  /// metrics_sync_interval_ns unless `force`.
  void SyncMetrics(bool force = false);

 private:
  friend class ShardClient;

  /// One ProcessTuples/ProcessSegment call's completion. The call's
  /// records (at most one per shard) report into it; once none is
  /// outstanding, release orders the seq-tagged outputs by seq.
  struct Completion {
    /// Data seqs the call covers.
    uint64_t count = 0;
    /// Records of the call not yet processed.
    size_t outstanding = 0;
    /// (seq of the producing tuple or segment, output segment).
    std::vector<std::pair<uint64_t, Segment>> outputs;
  };

  /// Client bookkeeping shared between its router thread and the shard
  /// workers. Runtimes are indexed by shard and only ever touched by
  /// that shard's worker; everything ordered lives under `mu`.
  struct ClientState {
    std::atomic<bool> aborted{false};

    std::mutex mu;
    std::condition_variable cv;
    /// Calls not yet released, in call (and therefore seq) order;
    /// pending.front() is call number `first_pending_call`.
    std::deque<Completion> pending;
    uint64_t first_pending_call = 0;
    /// Next data seq to release (all seqs below are in `ready`).
    uint64_t released_seq = 0;
    /// In-order output prefix (the deterministic merge result).
    std::vector<Segment> ready;
    /// Shards that have not yet acknowledged the finish sentinel.
    size_t finish_remaining = 0;
    /// Finish-phase outputs per shard, merged canonically by Finish().
    std::vector<std::vector<Segment>> finish_outputs;
    std::string error;
    /// Called (under `mu`) whenever a release appends to `ready`.
    std::function<void()> on_release;

    /// Only the owning shard worker touches runtimes[s]; the vector
    /// itself is immutable after AddClient publishes the state.
    std::vector<std::unique_ptr<HistoricalRuntime>> runtimes;
  };

  /// The exchange unit: one call's share for one shard. The record
  /// holds its client, so workers need no lookup. Tuples travel
  /// flattened (timestamps plus one run of field values), so a record
  /// costs a few allocations, not one per tuple: the producer allocates
  /// and a shard worker frees, and per-tuple frees across threads
  /// contend on the allocator.
  struct Record {
    enum class Kind : uint8_t { kTuples, kSegment, kFinish };
    Kind kind = Kind::kTuples;
    std::shared_ptr<ClientState> client;
    /// Call number of the owning Completion (data records only).
    uint64_t call = 0;
    /// Index into the pool's sorted stream-name table.
    uint32_t stream = 0;
    /// Tuple i is (timestamps[i], values[ends[i - 1] .. ends[i])).
    std::vector<double> timestamps;
    std::vector<Value> values;
    std::vector<uint32_t> ends;
    /// seqs[i] is tuple i's data seq; a segment record has one.
    std::vector<uint64_t> seqs;
    Segment segment;

    /// Queue footprint in tuples.
    size_t size() const {
      return kind == Kind::kTuples ? timestamps.size() : 1;
    }
  };

  struct Shard {
    std::mutex mu;
    std::condition_variable work_cv;   // worker: records arrived / closed
    std::condition_variable space_cv;  // producers: room freed / closed
    std::deque<Record> records;
    size_t depth = 0;  // queued tuples
    bool closed = false;

    std::unique_ptr<obs::MetricsRegistry> registry;
    std::unique_ptr<SolveCache> cache;  // null when sharing is off
    std::thread worker;
  };

  ShardPool() = default;

  void WorkerLoop(size_t shard_index);
  void Dispatch(size_t shard_index, Record record, Tuple* scratch);
  /// Blocks while the shard's queue is full, then enqueues. False when
  /// the pool is shut down.
  bool Push(size_t shard_index, Record record);
  /// Reports `records` finished records of `call` (with their tagged
  /// outputs and status) and releases every completed call prefix.
  static void Complete(ClientState* client, uint64_t call, size_t records,
                       std::vector<std::pair<uint64_t, Segment>> outputs,
                       const Status& status);
  /// Appends released completions to `ready` in seq order; true when
  /// `ready` grew. Caller holds `state->mu`.
  static bool ReleaseLocked(ClientState* state);

  QuerySpec spec_;
  ShardPoolOptions options_;
  ShardRouter router_{1};
  PartitionAnalysis partition_;
  /// Sorted stream table: names (index == Record::stream) and the tuple
  /// field holding each stream's key.
  std::vector<std::string> stream_names_;
  std::vector<size_t> stream_key_index_;

  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> shutdown_{false};

  std::mutex sync_mu_;
  std::atomic<uint64_t> last_sync_ns_{0};
};

/// One producer's handle onto the pool: splits each call by key into
/// at most one record per shard, stamps every tuple with a
/// client-global sequence number, and merges the per-call completions
/// back into the exact serial order. All calls must come from one
/// thread (the same contract as HistoricalRuntime); the API mirrors
/// HistoricalRuntime so serving sessions and the ShardedRuntime facade
/// can swap it in.
class ShardClient {
 public:
  ~ShardClient();

  ShardClient(const ShardClient&) = delete;
  ShardClient& operator=(const ShardClient&) = delete;

  Status ProcessTuple(const std::string& stream, const Tuple& tuple);
  /// Copies the tuples into the call's per-shard records.
  Status ProcessTuples(const std::string& stream, const Tuple* tuples,
                       size_t n);
  /// Same, moving the tuples instead of copying them.
  Status ProcessTuples(const std::string& stream, std::vector<Tuple> tuples);
  Status ProcessSegment(const std::string& stream, Segment segment);

  /// End of input: pushes a finish sentinel down every shard lane,
  /// waits for all of them to flush, then appends the canonically
  /// merged finish outputs (concatenate per shard, stable-sort by key —
  /// byte-identical to the serial finish tail). Blocks; returns the
  /// first error any shard hit.
  Status Finish();

  /// Mid-run synchronization point: blocks until every item routed so
  /// far has been processed and its outputs released, WITHOUT the
  /// finish sentinel — processing may continue afterwards. The released
  /// prefix is then deterministic (byte-identical to a serial replay of
  /// the same items), which is what lets the segment store checkpoint a
  /// sharded run mid-stream (docs/STORAGE.md).
  Status Barrier();

  /// The in-order released output prefix: everything whose data seq (or
  /// finish merge) is complete. Safe to call while shards are still
  /// working — later outputs simply show up on a later call.
  std::vector<Segment> TakeOutputSegments();

  /// `callback` runs on a shard worker each time a release makes new
  /// outputs takeable (a serving session wakes its worker with it, so
  /// outputs are delivered when released, not with the next input).
  /// It runs under the client's lock and must not call back into this
  /// client; once SetReleaseCallback(nullptr) returns, no call is in
  /// flight.
  void SetReleaseCallback(std::function<void()> callback);

  /// Sums over this client's per-shard runtimes.
  RuntimeStats stats() const;

  /// Drops this client's queued work: shard workers skip records of an
  /// aborted client. Already-processed outputs stay takeable.
  void Abort();

  ShardPool* pool() const { return pool_; }

 private:
  friend class ShardPool;
  using Record = ShardPool::Record;
  ShardClient(ShardPool* pool, std::shared_ptr<ShardPool::ClientState> state)
      : pool_(pool), state_(std::move(state)) {}

  /// Splits `n` tuples into per-shard records and submits them as one
  /// call; field values are moved out of non-const tuples.
  template <typename TupleT>
  Status Scatter(const std::string& stream, TupleT* tuples, size_t n);
  /// Registers one call of `count` seqs made of `records` (the
  /// non-empty entries of `by_shard`) and routes them.
  Status Submit(uint64_t count, std::vector<Record>* by_shard);
  Status ResolveStream(const std::string& stream, uint32_t* index);
  Status ErrorStatus() const;

  ShardPool* pool_ = nullptr;
  std::shared_ptr<ShardPool::ClientState> state_;
  uint64_t next_seq_ = 0;
  uint64_t next_call_ = 0;
  bool finished_ = false;
  /// Memoized stream lookup (sessions feed long same-stream runs).
  std::string memo_stream_;
  uint32_t memo_index_ = 0;
  bool memo_valid_ = false;
  /// Per-call scratch (reused): each tuple's shard, tuples and field
  /// values per shard, and the records.
  std::vector<uint32_t> shard_of_;
  std::vector<size_t> per_shard_;
  std::vector<size_t> values_per_shard_;
  std::vector<Record> by_shard_;
};

}  // namespace shard
}  // namespace pulse

#endif  // PULSE_SHARD_SHARD_POOL_H_
