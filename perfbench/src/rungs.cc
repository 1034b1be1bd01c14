#include "rungs.h"

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <latch>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "check.h"
#include "serve/client.h"
#include "serve/frame.h"
#include "serve/server.h"
#include "serve/tcp_transport.h"
#include "shard/sharded_runtime.h"
#include "store/store.h"
#include "tracer.h"
#include "util/rng.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using pulse::Segment;
using pulse::Status;
using pulse::Tuple;

// Tuples per ProcessTuples call and per kTupleBatch frame.
constexpr size_t kBatch = 64;
// How long a range query waits for its segment's append before the
// phase counts the ingest session as stalled.
constexpr uint64_t kAppendWaitNs = 5'000'000'000;
constexpr size_t kCheckQueries = 256;

void FailStatus(const char* where, const Status& status, uint64_t items = 1) {
  ledger().Fail(items, std::string(where) + ": " + status.ToString());
}

// Open-loop generator threads wait with 1 ns timer slack and spin the
// last 50 us: a plain sleep on this kind of host wakes 15-65 us late,
// and that lateness would land in every latency timed from a due time.
void UsePreciseTimers() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

void SpinUntilNs(uint64_t due) {
  while (NowNs() < due) {
  }
}

void WaitUntilNs(uint64_t due) {
  constexpr uint64_t kSpinNs = 50000;
  if (NowNs() + kSpinNs < due) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due - kSpinNs)));
  }
  SpinUntilNs(due);
}

// Feeds one runtime (HistoricalRuntime or ShardedRuntime share the call
// shape) with a whole feed; `call_span` names each engine call.
template <typename Runtime>
void PushFeed(Runtime* rt, const std::string& stream, const Feed& feed,
              std::vector<Segment>* segments, const char* call_span) {
  if (feed.segment_mode) {
    for (Segment& s : *segments) {
      Status st;
      {
        ScopedSpan span(call_span);
        st = rt->ProcessSegment(stream, std::move(s));
      }
      if (!st.ok()) FailStatus(call_span, st);
    }
    return;
  }
  const std::vector<Tuple>& tuples = feed.tuples;
  for (size_t off = 0; off < tuples.size(); off += kBatch) {
    const size_t n = std::min(kBatch, tuples.size() - off);
    Status st;
    {
      ScopedSpan span(call_span);
      st = rt->ProcessTuples(stream, tuples.data() + off, n);
    }
    if (!st.ok()) FailStatus(call_span, st, n);
  }
}

// Max over mean of the per-shard item counters.
double Skew(const pulse::obs::MetricsSnapshot& snap, size_t shards,
            bool segment_mode) {
  const std::string suffix =
      segment_mode ? "/runtime/segments_pushed" : "/runtime/tuples_in";
  double max = 0.0;
  double sum = 0.0;
  for (size_t i = 0; i < shards; ++i) {
    auto it = snap.counters.find("shard/" + std::to_string(i) + suffix);
    const double v = it == snap.counters.end() ? 0.0 : it->second;
    max = std::max(max, v);
    sum += v;
  }
  return sum > 0 ? max / (sum / static_cast<double>(shards)) : 0.0;
}

// Byte-counting decorator: client-to-server bytes on the wire.
class CountingTransport final : public pulse::serve::Transport {
 public:
  explicit CountingTransport(std::unique_ptr<pulse::serve::Transport> inner)
      : inner_(std::move(inner)) {}
  using pulse::serve::Transport::Write;
  pulse::Result<size_t> Read(char* buf, size_t n) override {
    return inner_->Read(buf, n);
  }
  Status Write(const char* data, size_t n) override {
    written_.fetch_add(n, std::memory_order_relaxed);
    return inner_->Write(data, n);
  }
  void Close() override { inner_->Close(); }
  uint64_t written() const { return written_.load(); }

 private:
  std::unique_ptr<pulse::serve::Transport> inner_;
  std::atomic<uint64_t> written_{0};
};

struct SessionState {
  std::unique_ptr<pulse::serve::ServeClient> client;
  CountingTransport* counter = nullptr;
  std::vector<Tuple> tuples;      // consumable copy
  std::vector<Segment> segments;  // consumable copy
  std::vector<Segment> outputs;
  std::vector<uint64_t> arrivals;
  std::vector<double> lag_ns;
  uint64_t sent = 0;
  uint64_t shed = 0;
  uint64_t drain_sent_ns = 0;
  uint64_t drained_ns = 0;
  // Cleared by the sender or the reader thread.
  std::atomic<bool> ok{true};
};

// Sender thread body, then kDrain. Closed loop (rate 0): frames of
// 64 tuples (or one segment) back to back. Open loop: the same frames,
// each sent when its last item is due, so a frame's earlier items wait
// in the client as a batching client's would.
void SendAll(SessionState* s, uint32_t session, bool segment_mode,
             double rate_per_session, uint64_t t0) {
  pulse::serve::ServeClient& client = *s->client;
  const size_t n = segment_mode ? s->segments.size() : s->tuples.size();
  const size_t max_batch = segment_mode ? 1 : kBatch;
  for (size_t i = 0; i < n;) {
    const size_t end = std::min(n, i + max_batch);
    if (rate_per_session > 0) {
      const uint64_t due = t0 + DueNs(end - 1, rate_per_session);
      WaitUntilNs(due);
      s->lag_ns.push_back(static_cast<double>(NowNs() - due));
    }
    Status st;
    {
      ScopedSpan span("serve.send", session);
      if (segment_mode) {
        st = client.SendSegment(1, std::move(s->segments[i]));
      } else {
        std::vector<Tuple> batch(
            std::make_move_iterator(s->tuples.begin() + i),
            std::make_move_iterator(s->tuples.begin() + end));
        st = client.SendBatch(1, std::move(batch));
      }
    }
    if (!st.ok()) {
      FailStatus("serve.send", st, n - i);
      s->ok = false;
      client.transport()->Close();  // unblocks the reader
      return;
    }
    s->sent += end - i;
    i = end;
  }
  s->drain_sent_ns = NowNs();
  const Status st = client.transport()->Write(
      pulse::serve::EncodeFrameToString(pulse::serve::Frame::Drain()));
  if (!st.ok()) {
    FailStatus("serve.drain", st);
    s->ok = false;
    client.transport()->Close();
  }
}

// Reader thread body: collects outputs until kDrained. A failure
// closes the transport, which unblocks a sender waiting on a full pipe.
void ReadAll(SessionState* s) {
  for (;;) {
    pulse::Result<std::optional<pulse::serve::Frame>> frame =
        s->client->ReadFrame();
    if (!frame.ok()) {
      FailStatus("serve.read", frame.status());
      s->ok = false;
      s->client->transport()->Close();
      return;
    }
    if (!frame->has_value()) {
      ledger().Fail(1, "serve.read: connection closed before kDrained");
      s->ok = false;
      s->client->transport()->Close();
      return;
    }
    pulse::serve::Frame& f = **frame;
    switch (f.type) {
      case pulse::serve::FrameType::kOutputSegment: {
        const uint64_t now = NowNs();
        for (Segment& seg : f.segments) {
          s->outputs.push_back(std::move(seg));
          s->arrivals.push_back(now);
        }
        break;
      }
      case pulse::serve::FrameType::kFlow:
        if (f.flow_event == pulse::serve::FlowEvent::kShed ||
            f.flow_event == pulse::serve::FlowEvent::kDroppedOldest) {
          s->shed += f.flow_count;
        }
        break;
      case pulse::serve::FrameType::kDrained:
        s->drained_ns = NowNs();
        return;
      case pulse::serve::FrameType::kError:
        ledger().Fail(1, "serve.read: server error: " + f.text);
        s->ok = false;
        s->client->transport()->Close();
        return;
      default:
        break;
    }
  }
}

pulse::Result<std::optional<pulse::store::SegmentStore>> OpenStore(
    const std::string& dir, SetupClock* setup) {
  std::optional<pulse::store::SegmentStore> store;
  if (dir.empty()) return store;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(fs::path(dir).parent_path(), ec);
  pulse::store::StoreOptions options;
  options.dir = dir;
  ScopedSpan span("store.open");
  pulse::Result<pulse::store::SegmentStore> opened =
      setup->Time([&] { return pulse::store::SegmentStore::Open(options); });
  if (!opened.ok()) return opened.status();
  store.emplace(std::move(*opened));
  return store;
}

pulse::Result<std::unique_ptr<pulse::serve::StreamServer>> MakeServer(
    const Workload& w, size_t shards, bool default_session,
    pulse::store::SegmentStore* store, SetupClock* setup) {
  pulse::serve::ServerOptions options;
  options.spec = w.spec;
  options.runtime = w.runtime;
  options.num_shards = shards;
  options.store = store;
  if (!default_session) options.session.admission.enabled = false;
  ScopedSpan span("serve.server_make");
  return setup->Time(
      [&] { return pulse::serve::StreamServer::Make(std::move(options)); });
}

std::set<pulse::Key> KeysOf(const std::vector<Segment>& segments) {
  std::set<pulse::Key> keys;
  for (const Segment& s : segments) keys.insert(s.key);
  return keys;
}

// A seeded query set over the whole ingested span.
struct RangeQuery {
  pulse::Key key = 0;
  double lo = 0.0;
  double hi = 0.0;
};

std::vector<RangeQuery> MakeQueries(const std::vector<Segment>& segments,
                                    size_t count, uint64_t seed) {
  std::vector<RangeQuery> out;
  if (segments.empty()) return out;
  const std::set<pulse::Key> key_set = KeysOf(segments);
  const std::vector<pulse::Key> keys(key_set.begin(), key_set.end());
  double t_lo = segments.front().range.lo;
  double t_hi = segments.front().range.hi;
  for (const Segment& s : segments) {
    t_lo = std::min(t_lo, s.range.lo);
    t_hi = std::max(t_hi, s.range.hi);
  }
  pulse::Rng rng(seed);
  for (size_t i = 0; i < count; ++i) {
    RangeQuery q;
    q.key = keys[rng.UniformInt(0, static_cast<int64_t>(keys.size()) - 1)];
    q.lo = rng.Uniform(t_lo, t_hi);
    q.hi = q.lo + rng.Uniform(1.0, (t_hi - t_lo) / 4 + 1.0);
    out.push_back(q);
  }
  return out;
}

}  // namespace

RungRun RunDirect(const Workload& w, const std::vector<Feed>& feeds,
                  SetupClock* setup) {
  RungRun run;
  ScopedSpan rung("rung.direct");
  // The runtimes stay alive until the snapshot: per-operator counters
  // are views that leave the registry with their runtime.
  pulse::obs::MetricsRegistry registry;
  std::vector<pulse::HistoricalRuntime> runtimes;
  runtimes.reserve(feeds.size());
  for (const Feed& feed : feeds) {
    pulse::HistoricalRuntime::Options options = w.runtime;
    options.metrics = &registry;
    {
      ScopedSpan span("core.make");
      pulse::Result<pulse::HistoricalRuntime> made = setup->Time(
          [&] { return pulse::HistoricalRuntime::Make(w.spec, options); });
      if (!made.ok()) {
        FailStatus("core.make", made.status(), feed.size());
        run.outputs.emplace_back();
        continue;
      }
      runtimes.push_back(std::move(*made));
    }
    pulse::HistoricalRuntime* rt = &runtimes.back();
    std::vector<Segment> segments;
    if (feed.segment_mode) segments = feed.segments;
    ledger().Attempt(feed.size());
    const uint64_t t0 = NowNs();
    PushFeed(rt, w.stream, feed, &segments, feed.segment_mode
                                                  ? "core.process_segment"
                                                  : "core.process_tuples");
    {
      ScopedSpan span("core.finish");
      const Status st = rt->Finish();
      if (!st.ok()) FailStatus("core.finish", st);
    }
    run.seconds += (NowNs() - t0) / 1e9;
    run.items += feed.size();
    run.outputs.push_back(rt->TakeOutputSegments());
  }
  run.metrics = registry.Snapshot();
  return run;
}

RungRun RunPredictive(const Workload& w, const std::vector<Feed>& feeds,
                      SetupClock* setup) {
  RungRun run;
  ScopedSpan rung("rung.predictive");
  pulse::obs::MetricsRegistry registry;
  std::vector<pulse::PredictiveRuntime> runtimes;
  runtimes.reserve(feeds.size());
  for (const Feed& feed : feeds) {
    pulse::PredictiveRuntime::Options options;
    options.collect_outputs = true;
    options.metrics = &registry;
    {
      ScopedSpan span("core.predictive.make");
      pulse::Result<pulse::PredictiveRuntime> made = setup->Time(
          [&] { return pulse::PredictiveRuntime::Make(w.spec, options); });
      if (!made.ok()) {
        FailStatus("core.predictive.make", made.status(), feed.tuples.size());
        run.outputs.emplace_back();
        continue;
      }
      runtimes.push_back(std::move(*made));
    }
    pulse::PredictiveRuntime* rt = &runtimes.back();
    const std::vector<Tuple>& tuples = feed.tuples;
    ledger().Attempt(tuples.size());
    const uint64_t t0 = NowNs();
    for (size_t off = 0; off < tuples.size(); off += kBatch) {
      const size_t n = std::min(kBatch, tuples.size() - off);
      Status st;
      {
        ScopedSpan span("core.predictive.process_tuples");
        st = rt->ProcessTuples(w.stream, tuples.data() + off, n);
      }
      if (!st.ok()) FailStatus("core.predictive.process_tuples", st, n);
    }
    {
      ScopedSpan span("core.predictive.finish");
      const Status st = rt->Finish();
      if (!st.ok()) FailStatus("core.predictive.finish", st);
    }
    run.seconds += (NowNs() - t0) / 1e9;
    run.items += tuples.size();
    run.outputs.push_back(rt->TakeOutputSegments());
  }
  run.metrics = registry.Snapshot();
  return run;
}

RungRun RunSharded(const Workload& w, const std::vector<Feed>& feeds,
                   size_t shards, SetupClock* setup) {
  RungRun run;
  ScopedSpan rung("rung.sharded");
  for (const Feed& feed : feeds) {
    pulse::shard::ShardedRuntimeOptions options;
    options.num_shards = shards;
    options.runtime = w.runtime;
    std::optional<pulse::shard::ShardedRuntime> rt;
    {
      ScopedSpan span("shard.make");
      pulse::Result<pulse::shard::ShardedRuntime> made = setup->Time([&] {
        return pulse::shard::ShardedRuntime::Make(w.spec, std::move(options));
      });
      if (!made.ok()) {
        FailStatus("shard.make", made.status(), feed.size());
        run.outputs.emplace_back();
        continue;
      }
      rt.emplace(std::move(*made));
    }
    std::vector<Segment> segments;
    if (feed.segment_mode) segments = feed.segments;
    ledger().Attempt(feed.size());
    const uint64_t t0 = NowNs();
    PushFeed(&*rt, w.stream, feed, &segments, "shard.call");
    const uint64_t f0 = NowNs();
    {
      ScopedSpan span("shard.finish");
      const Status st = rt->Finish();
      if (!st.ok()) FailStatus("shard.finish", st);
    }
    const uint64_t t1 = NowNs();
    run.seconds += (t1 - t0) / 1e9;
    run.items += feed.size();
    run.finish_ms.push_back((t1 - f0) / 1e6);
    run.outputs.push_back(rt->TakeOutputSegments());
    rt->SyncMetrics();
    // Over the configured width: a non-partitionable plan runs on one
    // engine shard, and its skew then reads the width.
    run.skew.push_back(
        Skew(rt->metrics()->Snapshot(), shards, feed.segment_mode));
  }
  return run;
}

ServeRun RunServe(const Workload& w, const std::vector<Feed>& feeds,
                  const ServeConfig& config, SetupClock* setup) {
  ServeRun run;
  const size_t sessions = feeds.size();
  ScopedSpan rung(config.tcp ? "rung.serve_tcp" : "rung.serve");
  pulse::Result<std::optional<pulse::store::SegmentStore>> store =
      OpenStore(config.store_dir, setup);
  if (!store.ok()) {
    FailStatus("store.open", store.status());
    return run;
  }
  pulse::Result<std::unique_ptr<pulse::serve::StreamServer>> server =
      MakeServer(w, config.shards, config.default_session,
                 store->has_value() ? &**store : nullptr, setup);
  if (!server.ok()) {
    FailStatus("serve.server_make", server.status());
    return run;
  }
  if (config.tcp) {
    ScopedSpan span("serve.listen");
    const Status st = setup->Time([&] { return (*server)->ListenTcp(0); });
    if (!st.ok()) {
      FailStatus("serve.listen", st);
      return run;
    }
  }

  std::vector<SessionState> states(sessions);
  for (size_t s = 0; s < sessions; ++s) {
    SessionState& state = states[s];
    ledger().Attempt();
    ScopedSpan span("serve.connect", static_cast<uint32_t>(s + 1));
    pulse::Result<std::unique_ptr<pulse::serve::Transport>> conn =
        setup->Time([&]() -> pulse::Result<std::unique_ptr<pulse::serve::Transport>> {
          if (config.tcp) {
            return pulse::serve::TcpConnect("127.0.0.1", (*server)->tcp_port());
          }
          return (*server)->ConnectInProcess();
        });
    if (!conn.ok()) {
      FailStatus("serve.connect", conn.status());
      state.ok = false;
      continue;
    }
    auto counting = std::make_unique<CountingTransport>(std::move(*conn));
    state.counter = counting.get();
    state.client =
        std::make_unique<pulse::serve::ServeClient>(std::move(counting));
    const Status st = setup->Time([&] {
      PULSE_RETURN_IF_ERROR(state.client->Hello());
      return state.client->OpenStream(1, w.stream);
    });
    if (!st.ok()) {
      FailStatus("serve.hello", st);
      state.ok = false;
      continue;
    }
    if (feeds[s].segment_mode) {
      state.segments = feeds[s].segments;
    } else {
      state.tuples = feeds[s].tuples;
    }
  }

  const double rate_per_session =
      config.rate > 0 ? config.rate / static_cast<double>(sessions) : 0.0;
  std::latch start(1);
  std::atomic<uint64_t> t0{0};
  const uint64_t parent = CurrentSpan();
  std::vector<std::thread> threads;
  for (size_t s = 0; s < sessions; ++s) {
    if (!states[s].ok) continue;
    const uint32_t id = static_cast<uint32_t>(s + 1);
    SessionState* state = &states[s];
    const bool segment_mode = feeds[s].segment_mode;
    ledger().Attempt(feeds[s].size());
    threads.emplace_back([&start, &t0, state, id, segment_mode,
                          rate_per_session, parent] {
      ParentScope scope(parent);
      if (rate_per_session > 0) UsePreciseTimers();
      start.wait();
      SendAll(state, id, segment_mode, rate_per_session, t0.load());
    });
    threads.emplace_back([&start, state, parent, id] {
      ParentScope scope(parent);
      start.wait();
      ScopedSpan span("serve.read", id);
      ReadAll(state);
    });
  }
  t0.store(NowNs());
  start.count_down();
  for (std::thread& t : threads) t.join();
  run.t0_ns = t0.load();

  uint64_t t_end = run.t0_ns;
  for (size_t s = 0; s < sessions; ++s) {
    SessionState& state = states[s];
    if (state.client != nullptr) (void)state.client->Bye();
    if (!state.ok) {
      ledger().Fail(1, "serve: session " + std::to_string(s + 1) + " failed");
    }
    t_end = std::max(t_end, state.drained_ns);
    run.sent += state.sent;
    run.shed += state.shed;
    if (state.drained_ns > state.drain_sent_ns && state.drain_sent_ns > 0) {
      run.drain_ms.push_back((state.drained_ns - state.drain_sent_ns) / 1e6);
    }
    if (state.counter != nullptr) run.bytes_sent += state.counter->written();
    run.lag_ns.insert(run.lag_ns.end(), state.lag_ns.begin(),
                      state.lag_ns.end());
    run.outputs.push_back(std::move(state.outputs));
    run.arrival_ns.push_back(std::move(state.arrivals));
  }
  run.seconds = (t_end - run.t0_ns) / 1e9;
  {
    ScopedSpan span("serve.shutdown");
    (*server)->Drain();
  }
  run.server_metrics = (*server)->metrics()->Snapshot();
  run.accepted = run.server_metrics.counters["serve/queue/accepted"];
  uint64_t offered = 0;
  for (const Feed& feed : feeds) offered += feed.size();
  if (!config.default_session && run.accepted != offered) {
    const uint64_t lost = offered > run.accepted ? offered - run.accepted : 1;
    ledger().Fail(lost, "serve: lossless phase accepted " +
                            std::to_string(run.accepted) + " of " +
                            std::to_string(offered) + " items");
  }
  server->reset();
  store->reset();
  if (!config.store_dir.empty()) {
    std::error_code ec;
    fs::remove_all(config.store_dir, ec);
  }
  return run;
}

RangeRun RunRange(const Workload& w, const std::vector<Segment>& history,
                  const std::vector<Segment>& segments, const std::string& dir,
                  uint64_t seed, size_t shards, SetupClock* setup) {
  RangeRun run;
  ScopedSpan phase("phase.range");
  const size_t n = segments.size();

  pulse::Result<std::optional<pulse::store::SegmentStore>> store =
      OpenStore(dir, setup);
  if (!store.ok()) {
    FailStatus("store.open", store.status());
    return run;
  }
  pulse::store::SegmentStore* live = &**store;
  for (const Segment& s : history) {
    const Status st = live->AppendSegment(w.stream, s);
    if (!st.ok()) FailStatus("store.append", st);
  }
  pulse::Result<std::unique_ptr<pulse::serve::StreamServer>> server =
      MakeServer(w, shards, /*default_session=*/false, live, setup);
  if (!server.ok()) {
    FailStatus("serve.server_make", server.status());
    return run;
  }
  SessionState state;
  ledger().Attempt();
  {
    ScopedSpan span("serve.connect", 1);
    pulse::Result<std::unique_ptr<pulse::serve::Transport>> conn =
        setup->Time([&] { return (*server)->ConnectInProcess(); });
    if (!conn.ok()) {
      FailStatus("serve.connect", conn.status());
      return run;
    }
    state.client = std::make_unique<pulse::serve::ServeClient>(
        std::move(*conn));
    const Status st = setup->Time([&] {
      PULSE_RETURN_IF_ERROR(state.client->Hello());
      return state.client->OpenStream(1, w.stream);
    });
    if (!st.ok()) {
      FailStatus("serve.hello", st);
      return run;
    }
  }
  state.segments = segments;

  // Query j asks for the recent history of the entity of segment j (a
  // live map refreshing the vessel that just moved) once the store holds
  // that segment, as the store's append counter shows. Every query then
  // finds its series changed since the last read and pays for the
  // store's deferred tree work. A query that ran before its segment's
  // append, which the host delays now and then, found the series
  // unchanged and skipped that work: 10-20% of queries did.
  const pulse::obs::Counter* appends =
      live->metrics()->GetCounter("store/appends");
  const uint64_t history_appends = appends->value();
  const uint64_t t0 = NowNs();
  const uint64_t parent = CurrentSpan();
  ledger().Attempt(n);
  std::thread reader([&] {
    ParentScope scope(parent);
    ReadAll(&state);
  });
  std::thread sender([&] {
    ParentScope scope(parent);
    UsePreciseTimers();
    pulse::serve::ServeClient& client = *state.client;
    for (size_t i = 0; i < n; ++i) {
      WaitUntilNs(t0 + DueNs(i, kStoreIngestRate));
      Status st;
      {
        ScopedSpan span("serve.send", 1);
        st = client.SendSegment(1, std::move(state.segments[i]));
      }
      if (!st.ok()) {
        FailStatus("serve.send", st, n - i);
        state.ok = false;
        break;
      }
      ++state.sent;
    }
    const Status st = client.transport()->Write(
        pulse::serve::EncodeFrameToString(pulse::serve::Frame::Drain()));
    if (!st.ok()) FailStatus("serve.drain", st);
  });
  // One querier thread. Each query's latency is the one an ideal
  // open-loop client would see with the measured service time (the
  // QueryRange call, lock wait included): it starts at its due time, or
  // once its segment is appended if that is later, or queues behind the
  // previous query when that one ends later. How long each query waited
  // past its due time, for the append or for the querier's own wake-up,
  // is reported apart as lag. The querier spins between queries instead
  // of sleeping: after a sleep the query runs on a core the host has
  // meanwhile given to other work. In six alternating 15 s keyed_agg
  // runs on a shared 4-vCPU VM, range_p99_us read 73-116 us with a
  // sleeping querier and 78-91 us with a spinning one.
  std::thread querier([&] {
    ParentScope scope(parent);
    pulse::Rng rng(seed ^ 0x5157a11ULL);
    uint64_t prev_done = t0;
    // Query j falls halfway between sends j and j + 1.
    const uint64_t offset = DueNs(1, kStoreIngestRate) / 2;
    for (size_t j = 0; j < n; ++j) {
      const uint64_t due = t0 + offset + DueNs(j, kStoreIngestRate);
      SpinUntilNs(due);
      while (appends->value() - history_appends <= j && state.ok.load() &&
             NowNs() - due < kAppendWaitNs) {
      }
      if (appends->value() - history_appends <= j) {
        ledger().Fail(1, "range: segment " + std::to_string(j) +
                             " was not appended");
        break;
      }
      const uint64_t start = NowNs();
      run.lag_us.push_back((start - due) / 1e3);
      const double hi = segments[j].range.hi;
      const double lo = hi - rng.Uniform(10.0, 300.0);
      ledger().Attempt();
      {
        ScopedSpan span("store.query_live");
        (void)live->QueryRange(w.stream, segments[j].key, "x", lo, hi);
      }
      prev_done = std::max(start, prev_done) + (NowNs() - start);
      run.latency_us.push_back((prev_done - start) / 1e3);
    }
  });
  sender.join();
  querier.join();
  reader.join();
  (void)state.client->Bye();
  if (!state.ok) ledger().Fail(1, "range: ingest session failed");
  {
    ScopedSpan span("serve.shutdown");
    (*server)->Drain();
  }
  const uint64_t accepted =
      (*server)->metrics()->Snapshot().counters["serve/queue/accepted"];
  if (accepted != n) {
    ledger().Fail(n > accepted ? n - accepted : 1,
                  "range: durable session accepted " +
                      std::to_string(accepted) + " of " + std::to_string(n));
  }
  server->reset();

  // The durable session's answers against the direct runtime.
  {
    pulse::Result<pulse::HistoricalRuntime> rt =
        pulse::HistoricalRuntime::Make(w.spec, w.runtime);
    if (rt.ok()) {
      for (const Segment& s : segments) (void)rt->ProcessSegment(w.stream, s);
      (void)rt->Finish();
      CheckOutputs("range.durable_session", 1, rt->TakeOutputSegments(),
                   std::move(state.outputs));
    } else {
      FailStatus("core.make", rt.status());
    }
  }

  const std::vector<RangeQuery> queries =
      MakeQueries(segments, kCheckQueries, seed ^ 0xc4ec5ULL);
  std::vector<pulse::store::RangeAggregate> expected;
  for (const RangeQuery& q : queries) {
    expected.push_back(live->QueryRange(w.stream, q.key, "x", q.lo, q.hi));
  }
  store->reset();

  run.dir = dir;
  for (size_t q = 0; q < queries.size(); ++q) {
    run.checks.push_back({queries[q].key, queries[q].lo, queries[q].hi,
                          expected[q]});
  }
  return run;
}

double TimeRecover(const Workload& w, const RangeRun& range) {
  pulse::store::StoreOptions options;
  options.dir = range.dir;
  ledger().Attempt();
  const uint64_t t0 = NowNs();
  pulse::Result<pulse::store::RecoveredStore> rec = [&] {
    ScopedSpan span("store.recover");
    return pulse::store::SegmentStore::Recover(options);
  }();
  const double seconds = (NowNs() - t0) / 1e9;
  if (!rec.ok()) {
    FailStatus("store.recover", rec.status());
    return seconds;
  }
  if (!rec->report.clean()) {
    ledger().Fail(1, "store.recover: " + rec->report.ToString());
  }
  for (size_t q = 0; q < range.checks.size(); ++q) {
    const RangeCheck& c = range.checks[q];
    const pulse::store::RangeAggregate got =
        rec->store.QueryRange(w.stream, c.key, "x", c.lo, c.hi);
    if (!SameAggregate(c.expected, got)) {
      char buf[200];
      std::snprintf(buf, sizeof(buf),
                    "recovered store: query %zu (t=%.17g, key=%lld, attr=x) "
                    "count %llu vs %llu",
                    q, c.lo, static_cast<long long>(c.key),
                    static_cast<unsigned long long>(got.count),
                    static_cast<unsigned long long>(c.expected.count));
      ledger().Mismatch(buf);
      break;
    }
  }
  return seconds;
}

ModelProbe TimeSegmenter(const Workload& w, const std::vector<Feed>& feeds) {
  ScopedSpan phase("phase.model");
  const pulse::StreamSpec spec = *w.spec.stream(w.stream);
  uint64_t ns = 0;
  uint64_t tuples = 0;
  uint64_t segments = 0;
  for (const Feed& feed : feeds) {
    pulse::MultiAttributeSegmenter segmenter(spec, w.runtime.segmentation);
    ScopedSpan span("model.segment_feed");
    const uint64_t t0 = NowNs();
    for (const Tuple& t : feed.tuples) {
      pulse::Result<std::optional<Segment>> closed = segmenter.Add(t);
      if (closed.ok() && closed->has_value()) ++segments;
    }
    pulse::Result<std::vector<Segment>> rest = segmenter.Flush();
    ns += NowNs() - t0;
    if (rest.ok()) segments += rest->size();
    tuples += feed.tuples.size();
  }
  ModelProbe probe;
  if (tuples > 0) probe.ns_per_tuple = static_cast<double>(ns) / tuples;
  if (segments > 0) probe.tuples_per_segment = static_cast<double>(tuples) / segments;
  return probe;
}

void TimeProcessSegment(const Workload& w,
                        const std::vector<std::vector<Segment>>& feeds) {
  ScopedSpan phase("phase.core_segments");
  for (const std::vector<Segment>& feed : feeds) {
    pulse::Result<pulse::HistoricalRuntime> rt =
        pulse::HistoricalRuntime::Make(w.spec, w.runtime);
    if (!rt.ok()) {
      FailStatus("core.make", rt.status());
      continue;
    }
    std::vector<Segment> segments = feed;
    for (Segment& s : segments) {
      Status st;
      {
        ScopedSpan span("core.process_segment_alone");
        st = rt->ProcessSegment(w.stream, std::move(s));
      }
      if (!st.ok()) FailStatus("core.process_segment_alone", st);
    }
    (void)rt->Finish();
  }
}

StoreProbe TimeStoreAlone(const Workload& w, const std::vector<Segment>& segments,
                          const std::string& dir, uint64_t seed) {
  StoreProbe probe;
  ScopedSpan phase("phase.store_alone");
  SetupClock unused;
  pulse::Result<std::optional<pulse::store::SegmentStore>> store =
      OpenStore(dir, &unused);
  if (!store.ok()) {
    FailStatus("store.open", store.status());
    return probe;
  }
  pulse::store::SegmentStore& st = **store;
  std::vector<double> append_ns;
  for (const Segment& s : segments) {
    const uint64_t t0 = NowNs();
    Status status;
    {
      ScopedSpan span("store.append");
      status = st.AppendSegment(w.stream, s);
    }
    append_ns.push_back(static_cast<double>(NowNs() - t0));
    if (!status.ok()) FailStatus("store.append", status);
  }
  probe.append_ns = Median(append_ns);
  // Build every series' trees first: the timed queries then see a
  // quiescent, warm index.
  for (pulse::Key key : KeysOf(segments)) {
    (void)st.QueryRange(w.stream, key, "x", 0.0, 0.0);
  }
  for (const RangeQuery& q : MakeQueries(segments, 2000, seed ^ 0xa1013eULL)) {
    ScopedSpan span("store.query");
    (void)st.QueryRange(w.stream, q.key, "x", q.lo, q.hi);
  }
  if (st.log_records() > 0) {
    probe.log_bytes_per_segment =
        static_cast<double>(st.log_bytes()) / st.log_records();
  }
  (void)st.WriteCheckpoint(/*finished=*/true);
  const uint64_t records = st.log_records();
  store->reset();
  pulse::store::StoreOptions options;
  options.dir = dir;
  const uint64_t t0 = NowNs();
  pulse::Result<pulse::store::RecoveredStore> rec =
      pulse::store::SegmentStore::Recover(options);
  const double secs = (NowNs() - t0) / 1e9;
  if (rec.ok() && secs > 0) probe.recover_records_per_s = records / secs;
  std::error_code ec;
  fs::remove_all(dir, ec);
  return probe;
}

}  // namespace perfbench
