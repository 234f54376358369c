// The counter registry: every (node, component) track of the machine, each
// owning the statistics cells its component counts into while attached
// (perf/sink.hpp), plus the shared span timeline.
//
// Components never see this class — they count through a perf::Stats
// attached to a track that track() hands out. The registry keeps its
// tracks in one flat table in creation order, so a track's id is its
// index, and each node's tracks on a chain through the table. Queries and
// dumps put the tracks in (node, component) order with ordered(), which
// walks the chains node by node, so every serialised dump is deterministic
// whatever order the tracks were made in. It must outlive every machine
// attached to it. Attach a registry to a whole machine with
// core::TSeries::enable_perf, or to a standalone node with
// node::Node::attach_perf.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "perf/sink.hpp"
#include "perf/timeline.hpp"
#include "sim/time.hpp"

namespace fpst::perf {

/// Tracks in creation order, so a track's id is its index. They live in
/// blocks that double in size and never move: a track's address is fixed
/// for the table's lifetime, and a machine's thousands of tracks take a
/// handful of allocations.
class TrackTable {
 public:
  class const_iterator {
   public:
    const PerfSink& operator*() const { return (*table_)[id_]; }
    const PerfSink* operator->() const { return &(*table_)[id_]; }
    const_iterator& operator++() {
      ++id_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return id_ == o.id_; }

   private:
    friend class TrackTable;
    const_iterator(const TrackTable* table, std::size_t id)
        : table_{table}, id_{id} {}

    const TrackTable* table_;
    std::size_t id_;
  };

  TrackTable() = default;
  TrackTable(const TrackTable&) = delete;
  TrackTable& operator=(const TrackTable&) = delete;
  ~TrackTable();

  std::size_t size() const { return size_; }
  PerfSink& operator[](std::size_t id) {
    const auto [block, at] = locate(id);
    return blocks_[block][at];
  }
  const PerfSink& operator[](std::size_t id) const {
    const auto [block, at] = locate(id);
    return blocks_[block][at];
  }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size_}; }

  /// Appends a track whose id is its index.
  PerfSink& emplace_back(std::uint32_t node, std::string_view component,
                         Timeline* timeline, const FieldTable& fields);

 private:
  /// Block b holds kFirstBlock << b tracks.
  static constexpr std::size_t kFirstBlock = 64;
  static constexpr std::size_t kBlocks = 26;  // 2^32 - 64 tracks in all

  static std::size_t block_size(std::size_t block) {
    return kFirstBlock << block;
  }
  /// (block, index in block) of track `id`: blocks 0..b-1 hold
  /// kFirstBlock * (2^b - 1) tracks.
  static std::pair<std::size_t, std::size_t> locate(std::size_t id) {
    const auto block =
        static_cast<std::size_t>(std::bit_width(id / kFirstBlock + 1)) - 1;
    return {block, id - kFirstBlock * ((std::size_t{1} << block) - 1)};
  }

  std::array<PerfSink*, kBlocks> blocks_{};
  std::size_t size_ = 0;
};

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
  /// registry's lifetime. Throws std::invalid_argument for a component
  /// name that is not plain_name(): the dump prints names unescaped.
  PerfSink& track(std::uint32_t node, std::string_view component,
                  const FieldTable& fields);
  /// Lookup without creation (nullptr when the track never existed).
  const PerfSink* find(std::uint32_t node, std::string_view component) const;

  /// Sum of the count `name` over every node's `component` track (one
  /// track's values: perf::snapshot's Dump::value).
  std::uint64_t total(std::string_view component, std::string_view name) const;

  /// All tracks in creation order: tracks()[id] is the track of that id.
  const TrackTable& tracks() const { return tracks_; }
  /// All tracks in (node, component) order, the order of every dump:
  /// nodes ascending, a node's components in byte order of their names.
  std::vector<const PerfSink*> ordered() const;

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
  /// One node's tracks: the ends of its chain through the table.
  struct NodeRun {
    std::uint32_t node;
    std::uint32_t first;
    std::uint32_t last;
  };

  Timeline* timeline_for(std::uint32_t node);
  /// Where node `node`'s run is in nodes_, or would be inserted when the
  /// node has no track yet.
  std::size_t run_of(std::uint32_t node) const;
  /// The id of (node, component)'s track, given run_of(node), or
  /// PerfSink::kNoTrack.
  std::uint32_t find_id(std::size_t run, std::uint32_t node,
                        std::string_view component) const;
  /// The registry's copy of a component name, made on first use.
  std::string_view intern(std::string_view component);

  TrackTable tracks_;
  /// The runs of every node with a track, by node. A machine's nodes make
  /// their first tracks in node order, so nodes_[n] is node n's run.
  std::vector<NodeRun> nodes_;
  /// Each distinct component name once; a deque never moves its strings.
  std::deque<std::string> components_;
  Timeline timeline_;
  Meta meta_;
  std::vector<int> shard_of_node_;
  std::vector<std::unique_ptr<Timeline>> shard_timelines_;
};

}  // namespace fpst::perf
