// Layer-ladder benchmark harness (README.md). One invocation runs one
// workload for one seed:
//
//   perfbench_layers --workload NAME --seed N --seconds T --trace 0|1
//                    [--out-dir DIR] [--perturb-reference]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// is the separate traced run that yields the per-layer metrics and a
// span dump. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The exit code is non-zero when an output check fails.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "check.h"
#include "common.h"
#include "rungs.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool perturb_reference = false;
  std::string out_dir = ".bench_build/perfbench-out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--perturb-reference") {
      args->perturb_reference = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

// Cores this process may run on (what `nproc` prints).
size_t CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return 1;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit) {
    if (!std::isfinite(value)) {
      ledger().Fail(1, "metric " + name + " is not finite");
      value = 0.0;
    }
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  void Print() const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                ledger().correct() ? "true" : "false",
                static_cast<unsigned long long>(std::max<uint64_t>(
                    1, ledger().attempted())),
                static_cast<unsigned long long>(ledger().failed()));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
};

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

double Counter(const pulse::obs::MetricsSnapshot& snap, const std::string& name) {
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// 1e9/a - 1e9/b: nanoseconds per item the upper rung adds.
double AddedNs(double upper_tps, double lower_tps) {
  if (upper_tps <= 0 || lower_tps <= 0) return 0.0;
  return 1e9 / upper_tps - 1e9 / lower_tps;
}

void CheckAll(const std::string& rung, const Outputs& expected,
              const Outputs& actual) {
  if (expected.size() != actual.size()) {
    ledger().Mismatch(rung + ": session count differs");
    return;
  }
  for (size_t s = 0; s < expected.size(); ++s) {
    CheckOutputs(rung, s + 1, expected[s], actual[s]);
  }
}

// Shifts one coefficient of one reference segment: the output checks
// must then fail (the smoke test's negative case).
void Perturb(Outputs* outputs) {
  for (std::vector<pulse::Segment>& session : *outputs) {
    if (session.empty()) continue;
    pulse::Segment& s = session[session.size() / 2];
    if (!s.attributes.empty()) {
      pulse::Polynomial& p = s.attributes.begin()->second;
      std::vector<double> coeffs;
      for (size_t i = 0; i <= p.degree(); ++i) coeffs.push_back(p.coeff(i));
      coeffs[0] += 1e-6 * (1.0 + std::fabs(coeffs[0]));
      p = pulse::Polynomial(std::move(coeffs));
    } else {
      s.key += 1;
    }
    return;
  }
}

// Ingest-to-output latency (ms) of an open-loop serve run, in the
// order the samples were due: each output is timed from the due time
// of the earliest input item whose event time is >= the output's upper
// bound. Outputs with no such input (the finish tail released by the
// drain) are not samples.
std::vector<double> OutputLatenciesMs(const std::vector<Feed>& feeds,
                                      const ServeRun& run, double rate) {
  std::vector<std::pair<uint64_t, double>> samples;
  const double per_session = rate / static_cast<double>(feeds.size());
  for (size_t s = 0; s < feeds.size() && s < run.outputs.size(); ++s) {
    const std::vector<double> times = feeds[s].EventTimes();
    for (size_t j = 0; j < run.outputs[s].size(); ++j) {
      const double hi = run.outputs[s][j].range.hi;
      auto it = std::lower_bound(times.begin(), times.end(), hi);
      if (it == times.end()) continue;
      const uint64_t due =
          run.t0_ns + DueNs(static_cast<size_t>(it - times.begin()), per_session);
      const uint64_t arrival = run.arrival_ns[s][j];
      samples.push_back(
          {due, (static_cast<double>(arrival) - static_cast<double>(due)) / 1e6});
    }
  }
  std::stable_sort(samples.begin(), samples.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<double> out;
  out.reserve(samples.size());
  for (const auto& [due, ms] : samples) out.push_back(ms);
  return out;
}

// Within a pass each rung repeats until it has been timed for at least
// kMinRungSeconds, so the fast single-thread rungs are sampled about as
// long as the served ones. Every repeat's output is checked; set-up is
// counted for the first run of each rung only.
constexpr double kMinRungSeconds = 0.1;

void Accumulate(RungRun* total, RungRun next) {
  total->seconds += next.seconds;
  total->items += next.items;
  total->skew.insert(total->skew.end(), next.skew.begin(), next.skew.end());
  total->finish_ms.insert(total->finish_ms.end(), next.finish_ms.begin(),
                          next.finish_ms.end());
  total->metrics = std::move(next.metrics);
}

void Accumulate(ServeRun* total, ServeRun next) {
  total->seconds += next.seconds;
  total->sent += next.sent;
  total->accepted += next.accepted;
  total->shed += next.shed;
  total->drain_ms.insert(total->drain_ms.end(), next.drain_ms.begin(),
                         next.drain_ms.end());
  total->bytes_sent += next.bytes_sent;
  total->server_metrics = std::move(next.server_metrics);
}

template <typename R, typename F>
R Timed(const std::string& rung, const Outputs& expected, SetupClock* setup,
        F&& run_once) {
  R total = run_once(setup);
  CheckAll(rung, expected, total.outputs);
  total.outputs.clear();
  SetupClock repeats;
  while (total.seconds < kMinRungSeconds) {
    R next = run_once(&repeats);
    CheckAll(rung, expected, next.outputs);
    Accumulate(&total, std::move(next));
  }
  return total;
}

struct Bench {
  Args args;
  Workload w;
  size_t sessions = 1;
  size_t shards = 1;
  std::vector<Feed> feeds;
  Outputs reference;
  Outputs predictive_reference;

  std::string StoreDir(const char* what) const {
    return args.out_dir + "/store-" + w.name + "-" + what;
  }

  ServeConfig Serve(bool tcp) const {
    ServeConfig config;
    config.tcp = tcp;
    config.shards = shards;
    if (w.durable) config.store_dir = StoreDir(tcp ? "tcp" : "inproc");
    return config;
  }

  void Prepare() {
    for (size_t s = 0; s < sessions; ++s) {
      feeds.push_back(MakeFeed(w, args.seed, static_cast<uint32_t>(s), 0,
                               w.pass_items));
    }
    // Untimed warm-up pass; its direct outputs are the reference.
    SetupClock unused;
    reference = RunDirect(w, feeds, &unused).outputs;
    if (args.perturb_reference) Perturb(&reference);
    predictive_reference = RunPredictive(w, feeds, &unused).outputs;
  }

  struct Pass {
    RungRun direct, predictive, sharded;
    ServeRun serve, tcp;
    double setup_s = 0.0;
  };

  Pass RunPass() {
    Pass pass;
    ScopedSpan span("pass");
    SetupClock setup;
    pass.direct = Timed<RungRun>("direct", reference, &setup,
                                 [&](SetupClock* c) { return RunDirect(w, feeds, c); });
    pass.predictive = Timed<RungRun>(
        "predictive", predictive_reference, &setup,
        [&](SetupClock* c) { return RunPredictive(w, feeds, c); });
    pass.sharded = Timed<RungRun>(
        "sharded", reference, &setup,
        [&](SetupClock* c) { return RunSharded(w, feeds, shards, c); });
    pass.serve = Timed<ServeRun>(
        "serve", reference, &setup,
        [&](SetupClock* c) { return RunServe(w, feeds, Serve(false), c); });
    pass.tcp = Timed<ServeRun>(
        "serve_tcp", reference, &setup,
        [&](SetupClock* c) { return RunServe(w, feeds, Serve(true), c); });
    pass.setup_s = setup.ns / 1e9;
    return pass;
  }

  // One trace per session for `seconds` of open loop at the workload's
  // fixed rate.
  std::vector<Feed> OpenLoopFeeds(double seconds, uint32_t purpose) const {
    const size_t per_session = std::max<size_t>(
        1, static_cast<size_t>(w.open_loop_rate * seconds / sessions));
    std::vector<Feed> out;
    for (size_t s = 0; s < sessions; ++s) {
      out.push_back(MakeFeed(w, args.seed, static_cast<uint32_t>(s), purpose,
                             per_session));
    }
    return out;
  }

  // Open-loop phase over `long_feeds` at the workload's fixed rate,
  // lossless unless `default_session`. Returns the run and fills
  // `latency_ms`.
  ServeRun RunOpenLoop(const std::vector<Feed>& long_feeds, bool default_session,
                       double closed_loop_tps, std::vector<double>* latency_ms) {
    ScopedSpan span(default_session ? "phase.shed" : "phase.latency");
    // Latency is only meaningful below saturation.
    if (w.open_loop_rate > 0.8 * closed_loop_tps) {
      ledger().Fail(1, "open loop: offered rate above 80% of closed-loop "
                       "goodput; phase skipped");
      return ServeRun{};
    }
    SetupClock unused;
    ServeConfig config = Serve(false);
    config.rate = w.open_loop_rate;
    config.default_session = default_session;
    ServeRun run = RunServe(w, long_feeds, config, &unused);
    if (!default_session) {
      CheckAll("open_loop", RunDirect(w, long_feeds, &unused).outputs,
               run.outputs);
      if (latency_ms != nullptr) {
        *latency_ms = OutputLatenciesMs(long_feeds, run, w.open_loop_rate);
      }
    }
    return run;
  }
};

// Passes over the throughput rungs until `budget_s` is spent (at least
// three); `before_each` runs before every pass, given the passes so far
// and the seconds since the first began.
template <typename F>
std::vector<Bench::Pass> RunPasses(Bench* b, double budget_s, F&& before_each) {
  std::vector<Bench::Pass> passes;
  const uint64_t t0 = NowNs();
  while (passes.size() < 3 || (NowNs() - t0) / 1e9 < budget_s) {
    before_each(passes, (NowNs() - t0) / 1e9);
    passes.push_back(b->RunPass());
    if (passes.size() >= 200) break;
  }
  return passes;
}

// Items over seconds summed across passes: on a shared host, speed
// swings between states over fractions of a second, and a pooled rate moves
// smoothly with the share of time spent in each, where the median of
// per-pass rates jumps between them.
double ItemsOf(const RungRun& r) { return static_cast<double>(r.items); }
double ItemsOf(const ServeRun& r) { return static_cast<double>(r.accepted); }

template <typename Get>
double PooledTps(const std::vector<Bench::Pass>& passes, Get get) {
  double items = 0.0;
  double seconds = 0.0;
  for (const Bench::Pass& p : passes) {
    const auto& rung = get(p);
    items += ItemsOf(rung);
    seconds += rung.seconds;
  }
  return seconds > 0 ? items / seconds : 0.0;
}

template <typename Get>
double MedianOf(const std::vector<Bench::Pass>& passes, Get get) {
  std::vector<double> v;
  for (const Bench::Pass& p : passes) v.push_back(get(p));
  return Median(v);
}

// Diagnostics on stderr: a sample's quantiles and its chunk p99s.
void PrintQuantiles(const char* label, const std::vector<double>& sample) {
  std::fprintf(stderr, "perfbench: %s quantiles", label);
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999}) {
    std::fprintf(stderr, " p%g=%.4g", q * 100, Quantile(sample, q));
  }
  const size_t chunks = ChunkCount(sample.size());
  std::fprintf(stderr, " | chunk p99s");
  for (size_t c = 0; c < chunks; ++c) {
    const auto lo = sample.begin() + sample.size() * c / chunks;
    const auto hi = sample.begin() + sample.size() * (c + 1) / chunks;
    std::fprintf(stderr, " %.4g", Quantile(std::vector<double>(lo, hi), 0.99));
  }
  std::fprintf(stderr, "\n");
}

void Measured(Bench* b, Report* report) {
  const double T = b->args.seconds;
  // Before every pass, a short store phase on a fresh store and one
  // recovery of the log it wrote. Spreading them over the run samples
  // the host as the pooled throughputs do, and every phase sees the
  // same history length where one long phase would grow it throughout.
  std::vector<pulse::Segment> store_history = MakeSegments(
      b->w, b->args.seed, 0, 3,
      static_cast<size_t>(
          kStoreIngestRate * (kStoreHistorySeconds + kStorePhaseSeconds)));
  const std::vector<pulse::Segment> store_feed(
      store_history.begin() +
          static_cast<size_t>(kStoreIngestRate * kStoreHistorySeconds),
      store_history.end());
  store_history.resize(
      static_cast<size_t>(kStoreIngestRate * kStoreHistorySeconds));
  std::vector<double> range_us;
  std::vector<double> range_lag_us;
  double recover_s = 0.0;
  size_t recoveries = 0;
  // Open-loop pieces on fresh sessions ride between passes too, keeping
  // the open loop at kOpenShare of the time spent so far: a host episode
  // of a few seconds then spoils a few of the latency chunks instead of
  // the whole sample. Pieces start after the first pass, whose closed-loop
  // goodput decides whether the rate is below saturation. Each piece
  // replays its own seeded traces (a trace must start with every key's
  // first sample, or windows open off the pieces' boundaries), all made
  // before the passes: the run holds the open loop's whole input, as a
  // single 0.15 T phase would, so peak_rss_mb is set by the run's inputs
  // rather than by how far the allocator's per-thread arenas happened to
  // grow (made piece by piece, it spread 0.08 across seeds).
  constexpr double kOpenShare = 0.15 / 0.9;
  constexpr double kOpenPieceSeconds = 0.5;
  constexpr uint32_t kFirstPiecePurpose = 16;
  std::vector<std::vector<Feed>> pieces(
      std::max<size_t>(1, static_cast<size_t>(0.15 * T / kOpenPieceSeconds)));
  for (size_t i = 0; i < pieces.size(); ++i) {
    pieces[i] = b->OpenLoopFeeds(
        kOpenPieceSeconds, kFirstPiecePurpose + static_cast<uint32_t>(i));
  }
  std::vector<double> latency_ms;
  std::vector<double> lag_ns;
  size_t pieces_run = 0;
  const auto serve_of = [](const std::vector<Bench::Pass>& done) {
    return PooledTps(done, [](auto& p) -> auto& { return p.serve; });
  };
  const std::vector<Bench::Pass> passes = RunPasses(
      b, 0.9 * T, [&](const std::vector<Bench::Pass>& done, double elapsed_s) {
        SetupClock unused;
        const RangeRun range =
            RunRange(b->w, store_history, store_feed, b->StoreDir("range"),
                     b->args.seed, b->shards, &unused);
        range_us.insert(range_us.end(), range.latency_us.begin(),
                        range.latency_us.end());
        range_lag_us.insert(range_lag_us.end(), range.lag_us.begin(),
                            range.lag_us.end());
        recover_s += TimeRecover(b->w, range);
        ++recoveries;
        std::error_code ec;
        std::filesystem::remove_all(range.dir, ec);
        if (done.empty() || pieces_run == pieces.size() ||
            pieces_run * kOpenPieceSeconds > kOpenShare * elapsed_s) {
          return;
        }
        std::vector<double> piece_ms;
        const ServeRun open = b->RunOpenLoop(pieces[pieces_run], false,
                                             serve_of(done), &piece_ms);
        latency_ms.insert(latency_ms.end(), piece_ms.begin(), piece_ms.end());
        lag_ns.insert(lag_ns.end(), open.lag_ns.begin(), open.lag_ns.end());
        ++pieces_run;
      });

  const double serve = serve_of(passes);
  report->Add("setup_s", MedianOf(passes, [](auto& p) { return p.setup_s; }), "s");
  report->Add("direct_tps",
              PooledTps(passes, [](auto& p) -> auto& { return p.direct; }), "1/s");
  report->Add("predictive_tps",
              PooledTps(passes, [](auto& p) -> auto& { return p.predictive; }),
              "1/s");
  report->Add("serve_tps", serve, "1/s");
  report->Add("serve_tcp_tps",
              PooledTps(passes, [](auto& p) -> auto& { return p.tcp; }), "1/s");
  report->Add("lat_p50_ms", Quantile(latency_ms, 0.5), "ms");
  report->Add("lat_p99_ms", ChunkedQuantile(latency_ms, 0.99), "ms");
  report->Add("range_p50_us", Quantile(range_us, 0.5), "us");
  report->Add("range_p99_us", ChunkedQuantile(range_us, 0.99), "us");
  report->Add("recover_s", recoveries > 0 ? recover_s / recoveries : 0.0, "s");
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu passes, %zu sessions, %zu shards, "
               "%zu latency samples over %.1f s, lag p99 %.3f ms, "
               "%zu range queries\n",
               b->w.name.c_str(), static_cast<unsigned long long>(b->args.seed),
               passes.size(), b->sessions, b->shards, latency_ms.size(),
               pieces_run * kOpenPieceSeconds,
               Quantile(lag_ns, 0.99) / 1e6, range_us.size());
  PrintQuantiles("lat_ms", latency_ms);
  PrintQuantiles("range_us", range_us);
  PrintQuantiles("range_lag_us", range_lag_us);
}

void Traced(Bench* b, Report* report) {
  const double T = b->args.seconds;
  Tracer& tracer = Tracer::Get();
  tracer.Enable(true);
  const std::vector<Bench::Pass> passes =
      RunPasses(b, 0.5 * T, [](const auto&, double) {});
  const double direct = PooledTps(passes, [](auto& p) -> auto& { return p.direct; });
  const double sharded =
      PooledTps(passes, [](auto& p) -> auto& { return p.sharded; });
  const double serve = PooledTps(passes, [](auto& p) -> auto& { return p.serve; });
  const double tcp = PooledTps(passes, [](auto& p) -> auto& { return p.tcp; });
  const Bench::Pass& last = passes.back();
  const pulse::obs::MetricsSnapshot& dm = last.direct.metrics;
  const pulse::obs::MetricsSnapshot& pm = last.predictive.metrics;
  const pulse::obs::MetricsSnapshot& sm = last.serve.server_metrics;
  // Items of the run whose registry was kept (the pass's last repeat).
  const double items =
      Counter(dm, b->w.segment_mode ? "runtime/segments_pushed"
                                    : "runtime/tuples_in");

  double solves = 0.0;
  for (const auto& [name, value] : dm.counters) {
    // op/<node>/solves, with a "#n" suffix per further runtime.
    if (name.rfind("op/", 0) == 0 &&
        name.find("/solves", name.rfind('/')) != std::string::npos) {
      solves += static_cast<double>(value);
    }
  }
  auto hist = [](const pulse::obs::MetricsSnapshot& snap, const char* name) {
    auto it = snap.histograms.find(name);
    return it == snap.histograms.end() ? pulse::obs::HistogramStats{}
                                       : it->second;
  };
  report->Add("core.solves_per_tuple", Ratio(solves, items), "count");
  report->Add("core.predictive.solver_runs_per_tuple",
              Ratio(Counter(pm, "runtime/segments_pushed"),
                    Counter(pm, "runtime/tuples_in")),
              "count");
  report->Add("core.solve_cache.hit_ratio",
              Ratio(Counter(dm, "solve_cache/hits"),
                    Counter(dm, "solve_cache/lookups")),
              "ratio");
  report->Add("core.solve_cache.lookups_per_tuple",
              Ratio(Counter(dm, "solve_cache/lookups"), items), "count");
  report->Add("math.solve_batch_ns.p50", hist(dm, "span/solve/batch").p50, "ns");
  report->Add("math.batch_occupancy",
              Ratio(Counter(dm, "solver/batch/filled"),
                    Counter(dm, "solver/batch/flushed")),
              "count");
  report->Add("shard.tps", sharded, "1/s");
  report->Add("shard.added_ns_per_tuple", AddedNs(sharded, direct), "ns");
  report->Add("shard.call_ns.p99", Quantile(tracer.Durations("shard.call"), 0.99),
              "ns");
  report->Add("shard.finish_ms",
              MedianOf(passes, [](auto& p) { return Median(p.sharded.finish_ms); }),
              "ms");
  report->Add("shard.skew",
              MedianOf(passes, [](auto& p) { return Median(p.sharded.skew); }),
              "ratio");
  report->Add("serve.added_ns_per_tuple", AddedNs(serve, sharded), "ns");
  report->Add("serve.send_us.p99",
              Quantile(tracer.Durations("serve.send"), 0.99) / 1e3, "us");
  report->Add("serve.admit_us.p99", hist(sm, "span/serve/admit").p99 / 1e3, "us");
  report->Add("serve.blocked_ns_per_tuple",
              Ratio(Counter(sm, "serve/queue/blocked_ns"),
                    Counter(sm, "serve/queue/accepted")),
              "ns");
  report->Add("serve.batch_tuples_mean",
              Ratio(Counter(sm, "serve/batch/tuples"),
                    Counter(sm, "serve/batch/dispatched")),
              "count");
  report->Add("serve.drain_ms",
              MedianOf(passes, [](auto& p) { return Median(p.serve.drain_ms); }),
              "ms");
  report->Add("serve.bytes_per_tuple",
              Ratio(static_cast<double>(last.serve.bytes_sent),
                    static_cast<double>(last.serve.sent)),
              "B");
  report->Add("transport.tcp_added_ns_per_tuple", AddedNs(tcp, serve), "ns");

  const ModelProbe model = TimeSegmenter(b->w, b->feeds);
  report->Add("model.segment_ns_per_tuple", model.ns_per_tuple, "ns");
  report->Add("model.tuples_per_segment", model.tuples_per_segment, "count");
  // Pre-fitted segments of fresh traces for the layer-alone probes.
  std::vector<std::vector<pulse::Segment>> fitted;
  for (size_t s = 0; s < b->sessions; ++s) {
    fitted.push_back(MakeSegments(b->w, b->args.seed, static_cast<uint32_t>(s),
                                  4, 2000));
  }
  TimeProcessSegment(b->w, fitted);
  const std::vector<double> push = tracer.Durations("core.process_segment_alone");
  report->Add("core.push_segment_ns.p50", Quantile(push, 0.5), "ns");
  report->Add("core.push_segment_ns.p99", Quantile(push, 0.99), "ns");
  const StoreProbe store =
      TimeStoreAlone(b->w, fitted.front(), b->StoreDir("alone"), b->args.seed);
  const std::vector<double> query = tracer.Durations("store.query");
  report->Add("store.append_ns", store.append_ns, "ns");
  report->Add("store.query_ns.p50", Quantile(query, 0.5), "ns");
  report->Add("store.query_ns.p99", Quantile(query, 0.99), "ns");
  report->Add("store.log_bytes_per_segment", store.log_bytes_per_segment, "B");
  report->Add("store.recover_records_per_s", store.recover_records_per_s, "1/s");

  std::vector<double> latency_ms;
  const ServeRun open =
      b->RunOpenLoop(b->OpenLoopFeeds(0.15 * T, 1), false, serve, &latency_ms);
  report->Add("loadgen.lag_ms.p99", Quantile(open.lag_ns, 0.99) / 1e6, "ms");
  report->Add("loadgen.lat_samples", static_cast<double>(latency_ms.size()),
              "count");
  // Default SessionOptions (admission on) at the same fixed rate: how
  // much input the admission controller sheds below capacity.
  const ServeRun shed =
      b->RunOpenLoop(b->OpenLoopFeeds(0.15 * T, 2), true, serve, nullptr);
  report->Add("serve.admission.shed_frac",
              Ratio(Counter(shed.server_metrics, "serve/queue/shed"),
                    static_cast<double>(shed.sent)),
              "ratio");
  // Direct runs alternating tracing on and off, so both sides see the
  // same cache state and host load.
  double on_items = 0.0, on_s = 0.0, off_items = 0.0, off_s = 0.0;
  for (size_t i = 0; i < 6 || std::min(on_s, off_s) < 0.05 * T; ++i) {
    const bool on = i % 2 == 0;
    tracer.Enable(on);
    SetupClock unused;
    const RungRun run = RunDirect(b->w, b->feeds, &unused);
    (on ? on_items : off_items) += static_cast<double>(run.items);
    (on ? on_s : off_s) += run.seconds;
  }
  tracer.Enable(false);
  report->Add("trace.overhead_frac",
              on_s > 0 && off_items > 0
                  ? 1.0 - (on_items / on_s) / (off_items / off_s)
                  : 0.0,
              "ratio");

  const std::string path = b->args.out_dir + "/spans-" + b->w.name + "-seed" +
                           std::to_string(b->args.seed) + ".json";
  if (!tracer.Dump(path, b->w.name, b->args.seed)) {
    ledger().Fail(1, "span dump: cannot write " + path);
  } else {
    std::fprintf(stderr, "perfbench: spans written to %s\n", path.c_str());
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Bench b;
  if (!ParseArgs(argc, argv, &b.args)) {
    std::fprintf(stderr,
                 "usage: perfbench_layers --workload NAME --seed N "
                 "--seconds T --trace 0|1 [--out-dir DIR] "
                 "[--perturb-reference]\n");
    return 2;
  }
  pulse::Result<Workload> w = MakeWorkload(b.args.workload);
  if (!w.ok()) {
    std::fprintf(stderr, "%s\n", w.status().ToString().c_str());
    return 2;
  }
  b.w = std::move(*w);
  const size_t cores = CpuCount();
  b.sessions = std::max<size_t>(1, cores / 2);
  b.shards = std::min<size_t>(cores, 4);
  std::error_code ec;
  std::filesystem::create_directories(b.args.out_dir, ec);

  b.Prepare();
  Report report;
  if (b.args.trace) {
    Traced(&b, &report);
  } else {
    Measured(&b, &report);
  }
  report.Print();
  std::fflush(stdout);
  return ledger().correct() ? 0 : 1;
}
