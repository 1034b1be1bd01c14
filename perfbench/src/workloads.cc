#include "workloads.h"

#include <algorithm>
#include <utility>

#include "core/predicate.h"
#include "util/rng.h"
#include "workload/ais.h"
#include "workload/moving_object.h"

namespace perfbench {
namespace {

using pulse::Segment;
using pulse::Tuple;

// Moving-object trace shapes: exact linear motion with a velocity
// change every `per_model` samples, so segments close on turns.
struct ObjectShape {
  size_t objects;
  double rate;  // samples/s per object
  size_t per_model;
  double area;
  // 0: each object turns from a seeded sample of the turn period. n > 0:
  // object k's phase is k * n modulo `per_model`, dealt to the objects
  // in seeded order.
  size_t phase_step;
};

// keyed_agg: 2 s pieces at 32 Hz. Sample times are then exact binary
// fractions and every segment lasts exactly 0.5 s, a divisor of the
// 2 s window, so each segment close releases one window-function piece
// ending at that close. (With piece lengths that do not divide the
// window, half the pieces end at an older shifted boundary; latency
// splits into two equal modes and its median is not repeatable.) The
// wide area keeps wall reflections, which end pieces early, rare.
// Phases 0, 2, ..., 14, eight objects each, make the ramp before the
// last object starts 448 tuples, seven whole 64-tuple frames, so every
// later frame is one sampling round of all 64 keys. With seeded phases
// the ramp's length, and with it the offset of frames against rounds,
// followed the seed: outputs whose round straddled two frames waited a
// frame longer, and the share of them moved the latency median by up to
// a frame (1.28 ms) from seed to seed.
constexpr ObjectShape kKeyedShape{64, 32.0, 16, 10000.0, 2};
// proximity_join: the shape of bench_parallel_scaling's Fig. 7 join.
constexpr ObjectShape kJoinShape{32, 25.0, 40, 1000.0, 0};

// AIS shape of segment_store: 10 Hz per vessel, noisy fixes, pieces of
// at most 32 fixes.
constexpr size_t kVessels = 50;
constexpr double kAisRate = 500.0;
constexpr double kAisArea = 100000.0;

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Sessions carry disjoint entities: session s numbers its keys from
// s * kSessionKeys. (Durable sessions share one store, where two
// sessions updating one key would overwrite each other's history.)
constexpr int64_t kSessionKeys = 1000;

// Moves a tuple (key in field 0) into session `session`'s key range.
Tuple OffsetKey(Tuple t, uint32_t session) {
  t.values[0] = pulse::Value(t.values[0].as_int64() + session * kSessionKeys);
  return t;
}

uint64_t FeedSeed(uint64_t seed, uint32_t session, uint32_t purpose) {
  return Mix(Mix(Mix(seed) ^ session) ^ (uint64_t{purpose} << 32));
}

const ObjectShape& ShapeOf(const Workload& w) {
  return w.name == "keyed_agg" ? kKeyedShape : kJoinShape;
}

// One MovingObjectGenerator per object, each starting at a seeded
// sample of the turn period, merged by timestamp. A single multi-object
// generator turns every object on the same sample, so every key's
// segment closes at once and outputs arrive in bursts.
class StaggeredObjects {
 public:
  StaggeredObjects(const ObjectShape& shape, uint64_t seed, int64_t first_key)
      : first_key_(first_key) {
    pulse::Rng rng(seed);
    std::vector<int64_t> phases;
    for (size_t k = 0; k < shape.objects; ++k) {
      phases.push_back(
          shape.phase_step > 0
              ? static_cast<int64_t>(k * shape.phase_step % shape.per_model)
              : rng.UniformInt(0, static_cast<int64_t>(shape.per_model) - 1));
    }
    if (shape.phase_step > 0) {
      for (size_t k = shape.objects; k > 1; --k) {
        std::swap(phases[k - 1],
                  phases[rng.UniformInt(0, static_cast<int64_t>(k) - 1)]);
      }
    }
    for (size_t k = 0; k < shape.objects; ++k) {
      pulse::MovingObjectOptions opts;
      opts.num_objects = 1;
      opts.tuple_rate = shape.rate;
      opts.tuples_per_segment = shape.per_model;
      opts.area = shape.area;
      opts.noise = 0.0;
      opts.start_time = static_cast<double>(phases[k]) / shape.rate;
      opts.seed = Mix(seed + k);
      gens_.emplace_back(opts);
    }
  }

  Tuple NextTuple() {
    size_t best = 0;
    for (size_t k = 1; k < gens_.size(); ++k) {
      if (gens_[k].now() < gens_[best].now()) best = k;
    }
    Tuple t = gens_[best].NextTuple();
    t.values[0] = pulse::Value(first_key_ + static_cast<int64_t>(best));
    return t;
  }

 private:
  int64_t first_key_;
  std::vector<pulse::MovingObjectGenerator> gens_;
};

pulse::AisOptions VesselOptions(uint64_t seed) {
  pulse::AisOptions opts;
  opts.num_vessels = kVessels;
  opts.tuple_rate = kAisRate;
  opts.area = kAisArea;
  opts.noise = 1.0;
  opts.seed = seed;
  return opts;
}

Workload KeyedAgg() {
  Workload w;
  w.name = "keyed_agg";
  w.stream = "objects";
  (void)w.spec.AddStream(pulse::MovingObjectGenerator::MakeStreamSpec(
      w.stream, 100.0 / kKeyedShape.rate));
  pulse::AggregateSpec agg;
  agg.fn = pulse::AggFn::kAvg;
  agg.attribute = "x";
  agg.output_attribute = "avg_x";
  agg.window_seconds = 2.0;
  agg.slide_seconds = 2.0;
  agg.per_key = true;
  w.spec.AddAggregate("agg", pulse::QuerySpec::Input::Stream(w.stream), agg);
  w.open_loop_rate = 100000.0;
  w.pass_items = 20000;
  return w;
}

Workload ProximityJoin() {
  Workload w;
  w.name = "proximity_join";
  w.stream = "objects";
  (void)w.spec.AddStream(pulse::MovingObjectGenerator::MakeStreamSpec(
      w.stream, 100.0 / kJoinShape.rate));
  pulse::JoinSpec join;
  join.predicate = pulse::Predicate::Comparison(
      pulse::ComparisonTerm::Distance2(
          pulse::AttrRef::Left("x"), pulse::AttrRef::Left("y"),
          pulse::AttrRef::Right("x"), pulse::AttrRef::Right("y"),
          pulse::CmpOp::kLt, kJoinShape.area / 10.0));
  join.window_seconds = 4.0;
  join.require_distinct_keys = true;
  w.spec.AddJoin("join", pulse::QuerySpec::Input::Stream(w.stream),
                 pulse::QuerySpec::Input::Stream(w.stream), join);
  w.open_loop_rate = 100000.0;
  w.pass_items = 12000;
  return w;
}

Workload SegmentStoreWorkload() {
  Workload w;
  w.name = "segment_store";
  w.stream = "ais";
  (void)w.spec.AddStream(pulse::AisGenerator::MakeStreamSpec(w.stream, 10.0));
  pulse::FilterSpec filter;
  filter.predicate = pulse::Predicate::Comparison(
      pulse::ComparisonTerm::Simple(pulse::AttrRef::Left("x"),
                                    pulse::CmpOp::kLt,
                                    pulse::Operand::Constant(kAisArea / 2)));
  w.spec.AddFilter("f", pulse::QuerySpec::Input::Stream(w.stream), filter);
  w.segment_mode = true;
  w.durable = true;
  w.runtime.segmentation.max_error = 3.0;
  w.runtime.segmentation.max_points_per_segment = 32;
  w.open_loop_rate = 10000.0;
  w.pass_items = 4000;
  w.predictive_tuples = 40000;
  return w;
}

// Streams generated tuples through the runtime's modeler until `count`
// segments have closed, keeping the first `keep` tuples in `kept`, so
// long feeds never hold every raw tuple. Ordered by upper bound.
template <typename Next>
std::vector<Segment> FitStream(const Workload& w, Next next, size_t count,
                               size_t keep, std::vector<Tuple>* kept) {
  pulse::Result<pulse::StreamSpec> spec = w.spec.stream(w.stream);
  pulse::MultiAttributeSegmenter segmenter(*spec, w.runtime.segmentation);
  std::vector<Segment> out;
  while (out.size() < count) {
    Tuple t = next();
    pulse::Result<std::optional<Segment>> closed = segmenter.Add(t);
    if (closed.ok() && closed->has_value()) out.push_back(std::move(**closed));
    if (kept != nullptr && kept->size() < keep) kept->push_back(std::move(t));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Segment& a, const Segment& b) {
                     return a.range.hi < b.range.hi;
                   });
  return out;
}

}  // namespace

std::vector<double> Feed::EventTimes() const {
  std::vector<double> out;
  out.reserve(size());
  if (segment_mode) {
    for (const Segment& s : segments) out.push_back(s.range.hi);
  } else {
    for (const Tuple& t : tuples) out.push_back(t.timestamp);
  }
  return out;
}

std::vector<std::string> WorkloadNames() {
  return {"keyed_agg", "proximity_join", "segment_store"};
}

pulse::Result<Workload> MakeWorkload(const std::string& name) {
  Workload w;
  if (name == "keyed_agg") {
    w = KeyedAgg();
  } else if (name == "proximity_join") {
    w = ProximityJoin();
  } else if (name == "segment_store") {
    w = SegmentStoreWorkload();
  } else {
    return pulse::Status::InvalidArgument("unknown workload '" + name + "'");
  }
  if (!w.segment_mode) {
    w.runtime.segmentation.degree = 1;
    w.runtime.segmentation.max_error = 0.5;
    w.runtime.segmentation.max_points_per_segment = ShapeOf(w).per_model;
  }
  w.runtime.collect_outputs = true;
  return w;
}

Feed MakeFeed(const Workload& w, uint64_t seed, uint32_t session,
              uint32_t purpose, size_t items) {
  Feed feed;
  feed.segment_mode = w.segment_mode;
  const uint64_t feed_seed = FeedSeed(seed, session, purpose);
  if (!w.segment_mode) {
    StaggeredObjects gen(ShapeOf(w), feed_seed, session * kSessionKeys);
    feed.tuples.reserve(items);
    for (size_t i = 0; i < items; ++i) feed.tuples.push_back(gen.NextTuple());
    return feed;
  }
  pulse::AisGenerator gen(VesselOptions(feed_seed));
  feed.segments =
      FitStream(w, [&] { return OffsetKey(gen.NextTuple(), session); }, items,
                w.predictive_tuples, &feed.tuples);
  return feed;
}

std::vector<Segment> MakeSegments(const Workload& w, uint64_t seed,
                                  uint32_t session, uint32_t purpose,
                                  size_t count) {
  const uint64_t feed_seed = FeedSeed(seed, session, purpose);
  if (w.segment_mode) {
    pulse::AisGenerator gen(VesselOptions(feed_seed));
    return FitStream(w, [&] { return OffsetKey(gen.NextTuple(), session); },
                     count, 0, nullptr);
  }
  StaggeredObjects gen(ShapeOf(w), feed_seed, session * kSessionKeys);
  return FitStream(w, [&] { return gen.NextTuple(); }, count, 0, nullptr);
}

}  // namespace perfbench
