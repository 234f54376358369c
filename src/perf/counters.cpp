#include "perf/counters.hpp"

#include <stdexcept>
#include <tuple>

namespace fpst::perf {

PerfSink& CounterRegistry::track(std::uint32_t node,
                                 std::string_view component,
                                 const FieldTable& fields) {
  auto key = std::make_pair(node, std::string(component));
  const auto it = tracks_.lower_bound(key);
  if (it != tracks_.end() && it->first == key) {
    return it->second;
  }
  if (!plain_name(component)) {
    throw std::invalid_argument(std::string("perf: component name '")
                                    .append(component)
                                    .append("' needs JSON escaping"));
  }
  return tracks_
      .emplace_hint(it, std::piecewise_construct,
                    std::forward_as_tuple(std::move(key)),
                    std::forward_as_tuple(node, std::string(component),
                                          next_id_++, timeline_for(node),
                                          fields))
      ->second;
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
    sink.timeline_ = timeline_for(key.first);
  }
}

const PerfSink* CounterRegistry::find(std::uint32_t node,
                                      std::string_view component) const {
  const auto it = tracks_.find(std::make_pair(node, std::string(component)));
  return it == tracks_.end() ? nullptr : &it->second;
}

std::uint64_t CounterRegistry::total(std::string_view component,
                                     std::string_view name) const {
  std::uint64_t sum = 0;
  for (const auto& [key, sink] : tracks_) {
    if (key.second == component) {
      sink.each_touched(Field::count, [&](std::string_view n, std::int64_t v) {
        sum += n == name ? static_cast<std::uint64_t>(v) : 0;
      });
    }
  }
  return sum;
}

}  // namespace fpst::perf
