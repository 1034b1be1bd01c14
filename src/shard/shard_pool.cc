#include "shard/shard_pool.h"

#include <algorithm>
#include <chrono>
#include <type_traits>
#include <utility>

namespace pulse {
namespace shard {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

// ---------------------------------------------------------------------
// ShardPool

Result<std::unique_ptr<ShardPool>> ShardPool::Make(const QuerySpec& spec,
                                                   ShardPoolOptions options) {
  auto pool = std::unique_ptr<ShardPool>(new ShardPool());
  pool->spec_ = spec;
  pool->options_ = std::move(options);
  if (pool->options_.num_shards == 0) pool->options_.num_shards = 1;
  if (pool->options_.exchange_capacity == 0) {
    pool->options_.exchange_capacity = 1;
  }
  pool->partition_ = AnalyzePartitionability(spec);
  // A non-partitionable plan degrades to one engine shard (all keys ->
  // shard 0); worker threads beyond the first would sit idle.
  const size_t effective =
      pool->partition_.partitionable ? pool->options_.num_shards : 1;
  pool->router_ = ShardRouter(effective);

  for (const auto& [name, stream] : spec.streams()) {
    PULSE_ASSIGN_OR_RETURN(size_t key_index,
                           stream.schema->IndexOf(stream.key_field));
    pool->stream_names_.push_back(name);
    pool->stream_key_index_.push_back(key_index);
  }

  if (pool->options_.metrics != nullptr) {
    pool->metrics_ = pool->options_.metrics;
  } else {
    pool->owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    pool->metrics_ = pool->owned_metrics_.get();
  }

  // Cross-client cache sharing is only sound with exact keys: a
  // quantized hit may replay a *nearby* system's solution, and leaking
  // those across clients would make one client's answers depend on
  // another's traffic.
  const bool share_cache =
      pool->options_.runtime.solve_cache.has_value() &&
      pool->options_.runtime.solve_cache->quantum == 0.0 &&
      pool->options_.runtime.shared_solve_cache == nullptr;

  for (size_t i = 0; i < effective; ++i) {
    auto s = std::make_unique<Shard>();
    s->registry = std::make_unique<obs::MetricsRegistry>();
    if (share_cache) {
      s->cache =
          std::make_unique<SolveCache>(*pool->options_.runtime.solve_cache);
    }
    pool->shards_.push_back(std::move(s));
  }
  for (size_t i = 0; i < pool->shards_.size(); ++i) {
    pool->shards_[i]->worker =
        std::thread([raw = pool.get(), i] { raw->WorkerLoop(i); });
  }
  return pool;
}

ShardPool::~ShardPool() { Shutdown(); }

void ShardPool::Shutdown() {
  if (!shutdown_.exchange(true)) {
    for (auto& s : shards_) {
      {
        std::lock_guard<std::mutex> lock(s->mu);
        s->closed = true;
      }
      s->work_cv.notify_all();
      s->space_cv.notify_all();
    }
  }
  for (auto& s : shards_) {
    if (s->worker.joinable()) s->worker.join();
  }
}

obs::MetricsRegistry* ShardPool::shard_metrics(size_t i) const {
  return i < shards_.size() ? shards_[i]->registry.get() : nullptr;
}

Result<std::unique_ptr<ShardClient>> ShardPool::AddClient() {
  if (shutdown_.load()) {
    return Status::FailedPrecondition("shard pool is shut down");
  }
  auto state = std::make_shared<ClientState>();
  state->finish_outputs.resize(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    HistoricalRuntime::Options rt = options_.runtime;
    rt.metrics = shards_[i]->registry.get();
    if (shards_[i]->cache != nullptr) {
      rt.shared_solve_cache = shards_[i]->cache.get();
    }
    PULSE_ASSIGN_OR_RETURN(HistoricalRuntime runtime,
                           HistoricalRuntime::Make(spec_, std::move(rt)));
    state->runtimes.push_back(
        std::make_unique<HistoricalRuntime>(std::move(runtime)));
  }
  return std::unique_ptr<ShardClient>(new ShardClient(this, state));
}

bool ShardPool::Push(size_t shard_index, Record record) {
  Shard& shard = *shards_[shard_index];
  const size_t n = record.size();
  {
    std::unique_lock<std::mutex> lock(shard.mu);
    const auto has_room = [&] {
      return shard.closed || shard.depth == 0 ||
             shard.depth + n <= options_.exchange_capacity;
    };
    shard.space_cv.wait(lock, has_room);
    if (shard.closed) return false;
    shard.depth += n;
    shard.records.push_back(std::move(record));
  }
  shard.work_cv.notify_one();
  return true;
}

bool ShardPool::ReleaseLocked(ClientState* state) {
  bool grew = false;
  while (!state->pending.empty() && state->pending.front().outstanding == 0) {
    Completion& c = state->pending.front();
    // Each seq belongs to one record and a record's outputs arrive in
    // seq order, so a stable sort by seq reproduces the serial order.
    std::stable_sort(
        c.outputs.begin(), c.outputs.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto& [seq, segment] : c.outputs) {
      state->ready.push_back(std::move(segment));
    }
    grew = grew || !c.outputs.empty();
    state->released_seq += c.count;
    state->pending.pop_front();
    ++state->first_pending_call;
  }
  return grew;
}

void ShardPool::Complete(ClientState* client, uint64_t call, size_t records,
                         std::vector<std::pair<uint64_t, Segment>> outputs,
                         const Status& status) {
  std::lock_guard<std::mutex> lock(client->mu);
  if (!status.ok()) {
    if (client->error.empty()) client->error = status.ToString();
    client->aborted.store(true);
  }
  Completion& c = client->pending[call - client->first_pending_call];
  c.outputs.insert(c.outputs.end(), std::make_move_iterator(outputs.begin()),
                   std::make_move_iterator(outputs.end()));
  c.outstanding -= records;
  bool grew = false;
  bool released = false;
  if (c.outstanding == 0) {
    const uint64_t before = client->released_seq;
    grew = ReleaseLocked(client);
    released = client->released_seq != before;
  }
  if (released || !status.ok()) client->cv.notify_all();
  // Called under `mu`, so SetReleaseCallback(nullptr) returning means no
  // call is in flight.
  if (grew && client->on_release) client->on_release();
}

void ShardPool::WorkerLoop(size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  // Refilled for every tuple the worker processes: reusing its field
  // storage keeps the loop free of per-tuple allocation.
  Tuple scratch;
  for (;;) {
    Record record;
    {
      std::unique_lock<std::mutex> lock(shard.mu);
      shard.work_cv.wait(
          lock, [&] { return !shard.records.empty() || shard.closed; });
      if (shard.records.empty()) break;  // closed and drained
      record = std::move(shard.records.front());
      shard.records.pop_front();
      shard.depth -= record.size();
    }
    shard.space_cv.notify_all();
    Dispatch(shard_index, std::move(record), &scratch);
  }
}

void ShardPool::Dispatch(size_t shard_index, Record record,
                         Tuple* scratch) {
  ClientState* client = record.client.get();
  HistoricalRuntime* runtime = client->runtimes[shard_index].get();

  if (record.kind == Record::Kind::kFinish) {
    Status status;
    std::vector<Segment> outputs;
    if (!client->aborted.load()) {
      status = runtime->Finish();
      if (status.ok()) outputs = runtime->TakeOutputSegments();
    }
    std::lock_guard<std::mutex> lock(client->mu);
    if (!status.ok() && client->error.empty()) {
      client->error = status.ToString();
    }
    client->finish_outputs[shard_index] = std::move(outputs);
    --client->finish_remaining;
    client->cv.notify_all();
    return;
  }

  Status status;
  std::vector<std::pair<uint64_t, Segment>> outputs;
  if (!client->aborted.load()) {
    const std::string& stream = stream_names_[record.stream];
    // Outputs are taken after every item so each carries the seq of
    // the tuple (or segment) that produced it.
    const auto take = [&](uint64_t seq) {
      for (Segment& s : runtime->TakeOutputSegments()) {
        outputs.emplace_back(seq, std::move(s));
      }
    };
    if (record.kind == Record::Kind::kSegment) {
      status = runtime->ProcessSegment(stream, std::move(record.segment));
      if (status.ok()) take(record.seqs[0]);
    } else {
      Tuple& tuple = *scratch;
      size_t begin = 0;
      for (size_t i = 0; i < record.timestamps.size() && status.ok(); ++i) {
        const auto first = record.values.begin() +
                           static_cast<std::ptrdiff_t>(begin);
        const auto last = record.values.begin() +
                          static_cast<std::ptrdiff_t>(record.ends[i]);
        tuple.timestamp = record.timestamps[i];
        tuple.values.assign(std::make_move_iterator(first),
                            std::make_move_iterator(last));
        begin = record.ends[i];
        status = runtime->ProcessTuple(stream, tuple);
        if (status.ok()) take(record.seqs[i]);
      }
    }
  }
  Complete(client, record.call, 1, std::move(outputs), status);
}

void ShardPool::SyncMetrics(bool force) {
  if constexpr (!obs::kMetricsEnabled) return;
  const uint64_t now = NowNs();
  uint64_t last = last_sync_ns_.load(std::memory_order_relaxed);
  if (!force && now - last < options_.metrics_sync_interval_ns) return;
  if (!last_sync_ns_.compare_exchange_strong(last, now,
                                             std::memory_order_relaxed)) {
    if (!force) return;  // another caller is refreshing right now
  }
  std::lock_guard<std::mutex> lock(sync_mu_);
  std::vector<const obs::MetricsRegistry*> sources;
  sources.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->registry->MirrorInto(metrics_,
                                     "shard/" + std::to_string(i) + "/");
    sources.push_back(shards_[i]->registry.get());
  }
  obs::MetricsRegistry::Rollup(sources, metrics_);
}

// ---------------------------------------------------------------------
// ShardClient

ShardClient::~ShardClient() {
  Abort();
  SetReleaseCallback(nullptr);
}

void ShardClient::Abort() { state_->aborted.store(true); }

void ShardClient::SetReleaseCallback(std::function<void()> callback) {
  std::lock_guard<std::mutex> lock(state_->mu);
  state_->on_release = std::move(callback);
}

Status ShardClient::ErrorStatus() const {
  return Status::Internal("shard worker failed: " + state_->error);
}

Status ShardClient::ResolveStream(const std::string& stream,
                                  uint32_t* index) {
  if (memo_valid_ && memo_stream_ == stream) {
    *index = memo_index_;
    return Status::OK();
  }
  const auto& names = pool_->stream_names_;
  const auto it = std::lower_bound(names.begin(), names.end(), stream);
  if (it == names.end() || *it != stream) {
    return Status::NotFound("stream '" + stream + "' not declared");
  }
  memo_stream_ = stream;
  memo_index_ = static_cast<uint32_t>(it - names.begin());
  memo_valid_ = true;
  *index = memo_index_;
  return Status::OK();
}

Status ShardClient::Submit(uint64_t count, std::vector<Record>* by_shard) {
  size_t records = 0;
  for (const Record& r : *by_shard) records += r.size() > 0 ? 1 : 0;
  if (records == 0) return Status::OK();
  uint64_t call = 0;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    if (!state_->error.empty()) return ErrorStatus();
    // Numbered only once its Completion is queued, so call numbers stay
    // in step with `pending`.
    call = next_call_++;
    ShardPool::Completion completion;
    completion.count = count;
    completion.outstanding = records;
    state_->pending.push_back(std::move(completion));
  }
  next_seq_ += count;
  for (size_t s = 0; s < by_shard->size(); ++s) {
    Record& r = (*by_shard)[s];
    if (r.size() == 0) continue;
    r.client = state_;
    r.call = call;
    --records;
    if (!pool_->Push(s, std::move(r))) {
      // Settle the records that will never run, so Barrier and Finish
      // see the failure instead of waiting for them.
      ShardPool::Complete(state_.get(), call, records + 1, {},
                          Status::FailedPrecondition(
                              "shard pool is shut down"));
      return Status::FailedPrecondition("shard pool is shut down");
    }
  }
  return Status::OK();
}

template <typename TupleT>
Status ShardClient::Scatter(const std::string& stream, TupleT* tuples,
                            size_t n) {
  if (finished_) {
    return Status::FailedPrecondition("client already finished");
  }
  uint32_t index = 0;
  PULSE_RETURN_IF_ERROR(ResolveStream(stream, &index));
  const size_t key_index = pool_->stream_key_index_[index];
  const size_t shards = pool_->shards_.size();
  // A tuple without a key ends the call: the tuples before it are
  // processed, as a serial runtime would have, and the call fails.
  Status status;
  shard_of_.resize(n);
  per_shard_.assign(shards, 0);
  values_per_shard_.assign(shards, 0);
  for (size_t i = 0; i < n; ++i) {
    const Tuple& t = tuples[i];
    if (key_index >= t.values.size()) {
      status = Status::InvalidArgument("tuple missing key field");
      n = i;
      break;
    }
    const size_t shard =
        shards == 1 ? 0 : pool_->router_.ShardOf(t.at(key_index).as_int64());
    shard_of_[i] = static_cast<uint32_t>(shard);
    ++per_shard_[shard];
    values_per_shard_[shard] += t.values.size();
  }
  by_shard_.resize(shards);
  for (size_t s = 0; s < shards; ++s) {
    Record& r = by_shard_[s];
    r = Record();
    r.stream = index;
    r.timestamps.reserve(per_shard_[s]);
    r.ends.reserve(per_shard_[s]);
    r.seqs.reserve(per_shard_[s]);
    r.values.reserve(values_per_shard_[s]);
  }
  for (size_t i = 0; i < n; ++i) {
    Record& r = by_shard_[shard_of_[i]];
    TupleT& t = tuples[i];
    r.timestamps.push_back(t.timestamp);
    if constexpr (std::is_const_v<TupleT>) {
      r.values.insert(r.values.end(), t.values.begin(), t.values.end());
    } else {
      r.values.insert(r.values.end(), std::make_move_iterator(t.values.begin()),
                      std::make_move_iterator(t.values.end()));
    }
    r.ends.push_back(static_cast<uint32_t>(r.values.size()));
    r.seqs.push_back(next_seq_ + i);
  }
  PULSE_RETURN_IF_ERROR(Submit(n, &by_shard_));
  return status;
}

Status ShardClient::ProcessTuple(const std::string& stream,
                                 const Tuple& tuple) {
  return ProcessTuples(stream, &tuple, 1);
}

Status ShardClient::ProcessTuples(const std::string& stream,
                                  const Tuple* tuples, size_t n) {
  return Scatter(stream, tuples, n);
}

Status ShardClient::ProcessTuples(const std::string& stream,
                                  std::vector<Tuple> tuples) {
  return Scatter(stream, tuples.data(), tuples.size());
}

Status ShardClient::ProcessSegment(const std::string& stream,
                                   Segment segment) {
  if (finished_) {
    return Status::FailedPrecondition("client already finished");
  }
  uint32_t index = 0;
  PULSE_RETURN_IF_ERROR(ResolveStream(stream, &index));
  const size_t shard = pool_->router_.ShardOf(segment.key);
  by_shard_.resize(pool_->shards_.size());
  for (Record& r : by_shard_) r = Record();
  Record& r = by_shard_[shard];
  r.kind = Record::Kind::kSegment;
  r.stream = index;
  r.seqs.push_back(next_seq_);
  r.segment = std::move(segment);
  return Submit(1, &by_shard_);
}

Status ShardClient::Barrier() {
  std::unique_lock<std::mutex> lock(state_->mu);
  // Workers complete every record — even for aborted clients — so
  // released_seq always catches up to next_seq_ and the wait cannot
  // hang.
  state_->cv.wait(lock, [&] {
    return state_->released_seq >= next_seq_ || !state_->error.empty();
  });
  return state_->error.empty() ? Status::OK() : ErrorStatus();
}

Status ShardClient::Finish() {
  if (finished_) {
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->error.empty() ? Status::OK() : ErrorStatus();
  }
  finished_ = true;
  const size_t shards = pool_->shards_.size();
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->finish_remaining = shards;
  }
  for (size_t s = 0; s < shards; ++s) {
    Record sentinel;
    sentinel.kind = Record::Kind::kFinish;
    sentinel.client = state_;
    if (!pool_->Push(s, std::move(sentinel))) {
      return Status::FailedPrecondition("shard pool is shut down");
    }
  }
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [&] { return state_->finish_remaining == 0; });
  // Every data record of this client was dispatched before its shard's
  // sentinel (FIFO per exchange queue), so the data merge is complete.
  // Canonical finish merge: concatenate per-shard finish tails, then
  // the same stable key sort the serial Finish applies. Each key lives
  // on exactly one shard, so same-key relative order is the shard's ==
  // the serial runtime's, and the sort makes cross-key order identical.
  std::vector<Segment> finish;
  for (std::vector<Segment>& part : state_->finish_outputs) {
    finish.insert(finish.end(), std::make_move_iterator(part.begin()),
                  std::make_move_iterator(part.end()));
    part.clear();
  }
  std::stable_sort(
      finish.begin(), finish.end(),
      [](const Segment& a, const Segment& b) { return a.key < b.key; });
  state_->ready.insert(state_->ready.end(),
                       std::make_move_iterator(finish.begin()),
                       std::make_move_iterator(finish.end()));
  if (!state_->error.empty()) return ErrorStatus();
  return Status::OK();
}

std::vector<Segment> ShardClient::TakeOutputSegments() {
  std::lock_guard<std::mutex> lock(state_->mu);
  std::vector<Segment> out = std::move(state_->ready);
  state_->ready.clear();
  return out;
}

RuntimeStats ShardClient::stats() const {
  RuntimeStats sum;
  for (const auto& runtime : state_->runtimes) {
    const RuntimeStats s = runtime->stats();
    sum.tuples_in += s.tuples_in;
    sum.tuples_validated += s.tuples_validated;
    sum.violations += s.violations;
    sum.segments_pushed += s.segments_pushed;
    sum.output_segments += s.output_segments;
    sum.output_tuples += s.output_tuples;
    sum.inversions += s.inversions;
    sum.tasks_spawned += s.tasks_spawned;
    sum.parallel_solve_cpu_ns += s.parallel_solve_cpu_ns;
    sum.parallel_solve_wall_ns += s.parallel_solve_wall_ns;
    sum.solve_cache_hits += s.solve_cache_hits;
    sum.solve_cache_misses += s.solve_cache_misses;
    sum.solve_cache_lookups += s.solve_cache_lookups;
    sum.solve_cache_uncacheable += s.solve_cache_uncacheable;
  }
  return sum;
}

}  // namespace shard
}  // namespace pulse
