#include "perf/counters.hpp"

namespace fpst::perf {

std::uint64_t PerfSink::value(std::string_view name) const {
  const auto it = counts_.find(name);
  return it == counts_.end() ? 0 : it->second;
}

sim::SimTime PerfSink::time_value(std::string_view name) const {
  const auto it = times_.find(name);
  return it == times_.end() ? sim::SimTime{} : it->second;
}

PerfSink& CounterRegistry::track(std::uint32_t node,
                                 std::string_view component) {
  const auto key = std::make_pair(node, std::string(component));
  const auto it = tracks_.find(key);
  if (it != tracks_.end()) {
    return *it->second;
  }
  auto sink = std::unique_ptr<PerfSink>(
      new PerfSink(node, key.second, next_id_++, timeline_for(node)));
  PerfSink& ref = *sink;
  tracks_.emplace(key, std::move(sink));
  return ref;
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
  for (auto& [key, sink] : tracks_) {
    sink->timeline_ = timeline_for(key.first);
  }
}

const PerfSink* CounterRegistry::find(std::uint32_t node,
                                      std::string_view component) const {
  const auto it = tracks_.find(std::make_pair(node, std::string(component)));
  return it == tracks_.end() ? nullptr : it->second.get();
}

std::uint64_t CounterRegistry::value(std::uint32_t node,
                                     std::string_view component,
                                     std::string_view name) const {
  const PerfSink* t = find(node, component);
  return t == nullptr ? 0 : t->value(name);
}

sim::SimTime CounterRegistry::time_value(std::uint32_t node,
                                         std::string_view component,
                                         std::string_view name) const {
  const PerfSink* t = find(node, component);
  return t == nullptr ? sim::SimTime{} : t->time_value(name);
}

std::uint64_t CounterRegistry::total(std::string_view component,
                                     std::string_view name) const {
  std::uint64_t sum = 0;
  for (const auto& [key, sink] : tracks_) {
    if (key.second == component) {
      sum += sink->value(name);
    }
  }
  return sum;
}

sim::SimTime CounterRegistry::total_time(std::string_view component,
                                         std::string_view name) const {
  sim::SimTime sum{};
  for (const auto& [key, sink] : tracks_) {
    if (key.second == component) {
      sum += sink->time_value(name);
    }
  }
  return sum;
}

}  // namespace fpst::perf
