// The counter registry: every (node, component) track of the machine, each
// owning the statistics cells its component counts into while attached
// (perf/sink.hpp), plus the shared span timeline.
//
// Components never see this class — they count through a perf::Stats
// attached to a track that track() hands out; the registry owns the tracks
// and keeps them in a sorted map so every query and every serialised dump
// is deterministic. It must outlive every machine attached to it. Attach a
// registry to a whole machine with core::TSeries::enable_perf, or to a
// standalone node with node::Node::attach_perf.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "perf/sink.hpp"
#include "perf/timeline.hpp"
#include "sim/time.hpp"

namespace fpst::perf {

class CounterRegistry {
 public:
  struct Options {
    /// Ring bound for the span timeline.
    std::size_t timeline_capacity = Timeline::kDefaultCapacity;
  };

  /// Machine shape and labelling carried into every dump.
  struct Meta {
    int dimension = 0;
    std::uint32_t nodes = 1;
    std::string workload;  ///< free-form label, e.g. "saxpy n=65536"
  };

  CounterRegistry() : CounterRegistry(Options{}) {}
  explicit CounterRegistry(Options opts) : timeline_{opts.timeline_capacity} {}

  CounterRegistry(const CounterRegistry&) = delete;
  CounterRegistry& operator=(const CounterRegistry&) = delete;

  /// The track for (node, component), created on first use with the
  /// component's field table and zeroed cells. Pointers stay valid for the
  /// registry's lifetime.
  PerfSink& track(std::uint32_t node, std::string_view component,
                  const FieldTable& fields);
  /// Lookup without creation (nullptr when the track never existed).
  const PerfSink* find(std::uint32_t node, std::string_view component) const;

  /// Sum of the count `name` over every node's `component` track (one
  /// track's values: perf::snapshot's Dump::value).
  std::uint64_t total(std::string_view component, std::string_view name) const;

  /// All tracks in deterministic (node, component) order.
  const std::map<std::pair<std::uint32_t, std::string>,
                 std::unique_ptr<PerfSink>>&
  tracks() const {
    return tracks_;
  }

  Timeline& timeline() { return timeline_; }
  const Timeline& timeline() const { return timeline_; }

  /// Parallel-engine mode: give each of `shards` shards its own span
  /// timeline (same capacity as the shared one) so worker threads never
  /// write a common ring. `shard_of_node[n]` is node n's shard; existing
  /// tracks are re-pointed and tracks created later route by their
  /// node's shard (out-of-range nodes go to shard 0). Counters
  /// are untouched — each track is single-writer already. The dump
  /// (perf/chrome_trace.cpp) merges shard timelines deterministically.
  /// Call before the run starts, from the construction thread.
  void shard_spans(std::vector<int> shard_of_node, int shards);

  /// True once shard_spans() was applied.
  bool span_sharded() const { return !shard_timelines_.empty(); }
  const std::vector<std::unique_ptr<Timeline>>& shard_timelines() const {
    return shard_timelines_;
  }

  Meta& meta() { return meta_; }
  const Meta& meta() const { return meta_; }

 private:
  Timeline* timeline_for(std::uint32_t node);

  std::map<std::pair<std::uint32_t, std::string>, std::unique_ptr<PerfSink>>
      tracks_;
  Timeline timeline_;
  Meta meta_;
  std::vector<int> shard_of_node_;
  std::vector<std::unique_ptr<Timeline>> shard_timelines_;
  std::uint32_t next_id_ = 0;
};

}  // namespace fpst::perf
