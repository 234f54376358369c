#include "perf/counters.hpp"

#include <algorithm>
#include <new>
#include <stdexcept>
#include <type_traits>

namespace fpst::perf {

// The table frees its blocks without running destructors.
static_assert(std::is_trivially_destructible_v<PerfSink>);

TrackTable::~TrackTable() {
  for (std::size_t b = 0; b < kBlocks; ++b) {
    if (blocks_[b] != nullptr) {
      std::allocator<PerfSink>{}.deallocate(blocks_[b], block_size(b));
    }
  }
}

PerfSink& TrackTable::emplace_back(std::uint32_t node,
                                   std::string_view component,
                                   Timeline* timeline,
                                   const FieldTable& fields) {
  const auto [block, at] = locate(size_);
  if (blocks_[block] == nullptr) {
    blocks_[block] = std::allocator<PerfSink>{}.allocate(block_size(block));
  }
  PerfSink* made = ::new (static_cast<void*>(blocks_[block] + at))
      PerfSink(node, component, static_cast<std::uint32_t>(size_), timeline,
               fields);
  ++size_;
  return *made;
}

std::size_t CounterRegistry::run_of(std::uint32_t node) const {
  if (node < nodes_.size() && nodes_[node].node == node) {
    return node;
  }
  return static_cast<std::size_t>(
      std::lower_bound(
          nodes_.begin(), nodes_.end(), node,
          [](const NodeRun& r, std::uint32_t n) { return r.node < n; }) -
      nodes_.begin());
}

std::string_view CounterRegistry::intern(std::string_view component) {
  for (const std::string& c : components_) {
    if (c == component) {
      return c;
    }
  }
  return components_.emplace_back(component);
}

std::uint32_t CounterRegistry::find_id(std::size_t run, std::uint32_t node,
                                       std::string_view component) const {
  if (run == nodes_.size() || nodes_[run].node != node) {
    return PerfSink::kNoTrack;
  }
  std::uint32_t id = nodes_[run].first;
  while (id != PerfSink::kNoTrack && tracks_[id].component_ != component) {
    id = tracks_[id].next_;
  }
  return id;
}

PerfSink& CounterRegistry::track(std::uint32_t node,
                                 std::string_view component,
                                 const FieldTable& fields) {
  const std::size_t run = run_of(node);
  if (const std::uint32_t id = find_id(run, node, component);
      id != PerfSink::kNoTrack) {
    return tracks_[id];
  }
  if (!plain_name(component)) {
    throw std::invalid_argument(std::string("perf: component name '")
                                    .append(component)
                                    .append("' needs JSON escaping"));
  }
  PerfSink& made = tracks_.emplace_back(node, intern(component),
                                        timeline_for(node), fields);
  if (run < nodes_.size() && nodes_[run].node == node) {
    tracks_[nodes_[run].last].next_ = made.id_;
    nodes_[run].last = made.id_;
  } else {
    nodes_.insert(nodes_.begin() + static_cast<std::ptrdiff_t>(run),
                  NodeRun{node, made.id_, made.id_});
  }
  return made;
}

Timeline* CounterRegistry::timeline_for(std::uint32_t node) {
  if (shard_timelines_.empty()) {
    return &timeline_;
  }
  const std::size_t s = node < shard_of_node_.size()
                            ? static_cast<std::size_t>(shard_of_node_[node])
                            : 0;
  return shard_timelines_.at(s).get();
}

void CounterRegistry::shard_spans(std::vector<int> shard_of_node,
                                  int shards) {
  shard_of_node_ = std::move(shard_of_node);
  shard_timelines_.clear();
  shard_timelines_.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    shard_timelines_.push_back(
        std::make_unique<Timeline>(timeline_.capacity()));
  }
  for (std::size_t id = 0; id < tracks_.size(); ++id) {
    tracks_[id].timeline_ = timeline_for(tracks_[id].node_);
  }
}

const PerfSink* CounterRegistry::find(std::uint32_t node,
                                      std::string_view component) const {
  const std::uint32_t id = find_id(run_of(node), node, component);
  return id == PerfSink::kNoTrack ? nullptr : &tracks_[id];
}

std::vector<const PerfSink*> CounterRegistry::ordered() const {
  std::vector<const PerfSink*> out;
  out.reserve(tracks_.size());
  for (const NodeRun& run : nodes_) {
    const std::size_t first = out.size();
    for (std::uint32_t id = run.first; id != PerfSink::kNoTrack;
         id = tracks_[id].next_) {
      out.push_back(&tracks_[id]);
    }
    // A node has a few tracks, so this sorts a short run.
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
              [](const PerfSink* a, const PerfSink* b) {
                return a->component() < b->component();
              });
  }
  return out;
}

std::uint64_t CounterRegistry::total(std::string_view component,
                                     std::string_view name) const {
  std::uint64_t sum = 0;
  for (const PerfSink& sink : tracks_) {
    if (sink.component() == component) {
      sink.each_touched(Field::count, [&](std::string_view n, std::int64_t v) {
        sum += n == name ? static_cast<std::uint64_t>(v) : 0;
      });
    }
  }
  return sum;
}

}  // namespace fpst::perf
