#include "perf/chrome_trace.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace fpst::perf {

namespace {

// trace_event timestamps are microseconds; SimTime is picoseconds. A double
// keeps sub-microsecond resolution (Perfetto accepts fractional ts/dur).
double to_us(sim::SimTime t) { return t.us(); }

std::string track_key(std::uint32_t node, const std::string& component) {
  return "node" + std::to_string(node) + "." + component;
}

json::Value metadata_event(const char* name, std::int64_t pid, std::int64_t tid,
                           const std::string& value) {
  json::Value e = json::Value::object();
  e["ph"] = json::Value::string("M");
  e["name"] = json::Value::string(name);
  e["pid"] = json::Value::integer(pid);
  e["tid"] = json::Value::integer(tid);
  json::Value args = json::Value::object();
  args["name"] = json::Value::string(value);
  e["args"] = std::move(args);
  return e;
}

std::uint64_t spans_dropped(const CounterRegistry& reg) {
  if (!reg.span_sharded()) {
    return reg.timeline().dropped();
  }
  std::uint64_t dropped = 0;
  for (const auto& tl : reg.shard_timelines()) {
    dropped += tl->dropped();
  }
  return dropped;
}

/// Visit the registry's spans in dump order.
template <typename Fn>
void for_each_span(const CounterRegistry& reg, Fn&& fn) {
  if (!reg.span_sharded()) {
    const Timeline& tl = reg.timeline();
    for (std::size_t i = 0; i < tl.size(); ++i) {
      fn(tl[i]);
    }
    return;
  }
  // Merge the per-shard timelines into one deterministic order: by start
  // time, ties broken by shard number (the stable sort sees the spans
  // shard-major) and then per-shard emission order. Host thread timing
  // never influences the result — each shard's ring is already in that
  // shard's deterministic execution order.
  std::vector<const Span*> merged;
  for (const auto& tl : reg.shard_timelines()) {
    for (std::size_t i = 0; i < tl->size(); ++i) {
      merged.push_back(&(*tl)[i]);
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const Span* a, const Span* b) {
                     return a->start < b->start;
                   });
  for (const Span* s : merged) {
    fn(*s);
  }
}

void write_metadata_event(json::Writer& w, const char* name, std::int64_t pid,
                          std::int64_t tid, std::string_view value) {
  w.begin_object();
  w.key("args").begin_object().key("name").string(value).end_object();
  w.key("name").string(name);
  w.key("ph").string("M");
  w.key("pid").integer(pid);
  w.key("tid").integer(tid);
  w.end_object();
}

void write_bytes(const std::string& path, std::string_view text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("perf: cannot open " + path + " for writing");
  }
  out << text << '\n';
  if (!out) {
    throw std::runtime_error("perf: write to " + path + " failed");
  }
}

}  // namespace

Dump snapshot(const CounterRegistry& reg, sim::SimTime wall) {
  Dump d;
  d.meta = reg.meta();
  d.wall = wall;
  d.span_capacity = reg.timeline().capacity();
  d.spans_dropped = spans_dropped(reg);
  // Track-id -> (node, component) so timeline spans regain their identity.
  std::map<std::uint32_t, std::pair<std::uint32_t, const std::string*>> by_id;
  for (const auto& [key, sink] : reg.tracks()) {
    by_id.emplace(sink->track_id(),
                  std::make_pair(key.first, &key.second));
    DumpTrack t;
    t.node = key.first;
    t.component = key.second;
    t.counts = sink->counts();
    t.times = sink->times();
    d.tracks.push_back(std::move(t));
  }
  for_each_span(reg, [&](const Span& s) {
    const auto it = by_id.find(s.track);
    if (it == by_id.end()) {
      return;  // track was never registered (cannot happen via TrackSink)
    }
    DumpSpan out;
    out.node = it->second.first;
    out.component = *it->second.second;
    out.start = s.start;
    out.duration = s.duration;
    out.name = s.name;
    out.is_instant = s.is_instant;
    d.spans.push_back(std::move(out));
  });
  return d;
}

void write_dump(std::string& out, const CounterRegistry& reg,
                sim::SimTime wall, const json::Value& results) {
  // Members go out in the sorted key order of to_json()'s std::map objects.
  json::Writer w{out, 2};
  w.begin_object();

  // Counter tracks are keyed "node<k>.<component>" and print in string
  // order (node10 before node2), not the registry's (node, component) order.
  std::vector<std::pair<std::string, const TrackSink*>> keyed;
  keyed.reserve(reg.tracks().size());
  for (const auto& [key, sink] : reg.tracks()) {
    keyed.emplace_back(track_key(key.first, key.second), sink.get());
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w.key("counters").begin_object();
  for (const auto& [key, sink] : keyed) {
    w.key(key).begin_object();
    w.key("busy_ps").begin_object();
    for (const auto& [name, tm] : sink->times()) {
      w.key(name).integer(tm.ps());
    }
    w.end_object();
    w.key("counts").begin_object();
    for (const auto& [name, v] : sink->counts()) {
      w.key(name).integer(static_cast<std::int64_t>(v));
    }
    w.end_object();
    w.end_object();
  }
  w.end_object();

  w.key("displayTimeUnit").string("ns");

  const CounterRegistry::Meta& meta = reg.meta();
  w.key("metadata").begin_object();
  w.key("dimension").integer(meta.dimension);
  w.key("nodes").integer(static_cast<std::int64_t>(meta.nodes));
  w.key("span_capacity")
      .integer(static_cast<std::int64_t>(reg.timeline().capacity()));
  w.key("spans_dropped")
      .integer(static_cast<std::int64_t>(spans_dropped(reg)));
  w.key("tool").string("tperf");
  w.key("wall_ps").integer(wall.ps());
  w.key("workload").string(meta.workload);
  w.end_object();

  if (!results.is_null()) {
    w.key("results").value(results);
  }

  // Thread-name events in (node, component) order; tid is the component's
  // rank within its node, as in to_json(). pid_tid[track id] feeds spans.
  w.key("traceEvents").begin_array();
  std::vector<std::pair<std::int64_t, std::int64_t>> pid_tid(
      reg.tracks().size());
  std::optional<std::uint32_t> prev_node;
  std::int64_t tid = 0;
  for (const auto& [key, sink] : reg.tracks()) {
    const std::int64_t pid = static_cast<std::int64_t>(key.first);
    if (key.first != prev_node) {
      prev_node = key.first;
      tid = 0;
      write_metadata_event(w, "process_name", pid, 0,
                           "node" + std::to_string(key.first));
    }
    write_metadata_event(w, "thread_name", pid, tid, key.second);
    pid_tid[sink->track_id()] = {pid, tid++};
  }
  for_each_span(reg, [&](const Span& s) {
    if (s.track >= pid_tid.size()) {
      return;  // track was never registered (cannot happen via TrackSink)
    }
    w.begin_object();
    w.key("args").begin_object();
    w.key("dur_ps").integer(s.duration.ps());
    w.key("start_ps").integer(s.start.ps());
    w.end_object();
    if (!s.is_instant) {
      w.key("dur").number(to_us(s.duration));
    }
    w.key("name").string(s.name);
    w.key("ph").string(s.is_instant ? "i" : "X");
    w.key("pid").integer(pid_tid[s.track].first);
    if (s.is_instant) {
      w.key("s").string("t");
    }
    w.key("tid").integer(pid_tid[s.track].second);
    w.key("ts").number(to_us(s.start));
    w.end_object();
  });
  w.end_array();
  w.end_object();
}

void write_file(const std::string& path, const CounterRegistry& reg,
                sim::SimTime wall, const json::Value& results) {
  std::string text;
  write_dump(text, reg, wall, results);
  write_bytes(path, text);
}

json::Value to_json(const CounterRegistry& reg, sim::SimTime wall) {
  return to_json(snapshot(reg, wall));
}

json::Value to_json(const Dump& d) {
  json::Value doc = json::Value::object();

  // --- metadata -----------------------------------------------------------
  json::Value md = json::Value::object();
  md["tool"] = json::Value::string("tperf");
  md["dimension"] = json::Value::integer(d.meta.dimension);
  md["nodes"] = json::Value::integer(static_cast<std::int64_t>(d.meta.nodes));
  md["workload"] = json::Value::string(d.meta.workload);
  md["wall_ps"] = json::Value::integer(d.wall.ps());
  md["spans_dropped"] =
      json::Value::integer(static_cast<std::int64_t>(d.spans_dropped));
  md["span_capacity"] =
      json::Value::integer(static_cast<std::int64_t>(d.span_capacity));
  doc["metadata"] = std::move(md);

  // --- counters + (node, component) -> (pid, tid) map ----------------------
  // tid is the component's rank within its node (deterministic: tracks are
  // sorted by (node, component)), so each node's threads sort stably in the
  // viewer.
  std::map<std::pair<std::uint32_t, std::string>,
           std::pair<std::int64_t, std::int64_t>>
      track_ref;
  std::map<std::uint32_t, std::int64_t> next_tid;

  json::Value counters = json::Value::object();
  json::Value events = json::Value::array();
  for (const DumpTrack& t : d.tracks) {
    const std::int64_t pid = static_cast<std::int64_t>(t.node);
    const std::int64_t tid = next_tid[t.node]++;
    track_ref.emplace(std::make_pair(t.node, t.component),
                      std::make_pair(pid, tid));

    if (tid == 0) {
      events.append(metadata_event("process_name", pid, 0,
                                   "node" + std::to_string(t.node)));
    }
    events.append(metadata_event("thread_name", pid, tid, t.component));

    json::Value track = json::Value::object();
    json::Value counts = json::Value::object();
    for (const auto& [name, v] : t.counts) {
      counts[name] = json::Value::integer(static_cast<std::int64_t>(v));
    }
    json::Value busy = json::Value::object();
    for (const auto& [name, tm] : t.times) {
      busy[name] = json::Value::integer(tm.ps());
    }
    track["counts"] = std::move(counts);
    track["busy_ps"] = std::move(busy);
    counters[track_key(t.node, t.component)] = std::move(track);
  }
  doc["counters"] = std::move(counters);

  // --- spans --------------------------------------------------------------
  for (const DumpSpan& s : d.spans) {
    const auto it = track_ref.find(std::make_pair(s.node, s.component));
    if (it == track_ref.end()) {
      continue;  // span without a counter track (cannot happen via TrackSink)
    }
    json::Value e = json::Value::object();
    e["name"] = json::Value::string(s.name);
    e["pid"] = json::Value::integer(it->second.first);
    e["tid"] = json::Value::integer(it->second.second);
    e["ts"] = json::Value::number(to_us(s.start));
    if (s.is_instant) {
      e["ph"] = json::Value::string("i");
      e["s"] = json::Value::string("t");  // thread-scoped instant
    } else {
      e["ph"] = json::Value::string("X");
      e["dur"] = json::Value::number(to_us(s.duration));
    }
    // Exact picosecond times ride along for lossless reload.
    json::Value args = json::Value::object();
    args["start_ps"] = json::Value::integer(s.start.ps());
    args["dur_ps"] = json::Value::integer(s.duration.ps());
    e["args"] = std::move(args);
    events.append(std::move(e));
  }
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = json::Value::string("ns");
  if (!d.results.is_null()) {
    doc["results"] = d.results;
  }
  return doc;
}

void write_file(const std::string& path, const json::Value& doc) {
  write_bytes(path, doc.dump(2));
}

const DumpTrack* Dump::find(std::uint32_t node,
                            std::string_view component) const {
  for (const DumpTrack& t : tracks) {
    if (t.node == node && t.component == component) {
      return &t;
    }
  }
  return nullptr;
}

std::uint64_t Dump::value(std::uint32_t node, std::string_view component,
                          std::string_view name) const {
  const DumpTrack* t = find(node, component);
  if (t == nullptr) {
    return 0;
  }
  const auto it = t->counts.find(name);
  return it == t->counts.end() ? 0 : it->second;
}

sim::SimTime Dump::time_value(std::uint32_t node, std::string_view component,
                              std::string_view name) const {
  const DumpTrack* t = find(node, component);
  if (t == nullptr) {
    return sim::SimTime{};
  }
  const auto it = t->times.find(name);
  return it == t->times.end() ? sim::SimTime{} : it->second;
}

namespace {

[[noreturn]] void bad_dump(const std::string& what) {
  throw std::runtime_error("perf: not a tperf dump: " + what);
}

const json::Value& require(const json::Value& obj, std::string_view key) {
  const json::Value* v = obj.find(key);
  if (v == nullptr) {
    bad_dump("missing key '" + std::string(key) + "'");
  }
  return *v;
}

}  // namespace

Dump from_json(const json::Value& doc) {
  Dump d;

  const json::Value& md = require(doc, "metadata");
  if (const json::Value* tool = md.find("tool");
      tool == nullptr || tool->as_string() != "tperf") {
    bad_dump("metadata.tool != \"tperf\"");
  }
  d.meta.dimension = static_cast<int>(require(md, "dimension").as_int());
  d.meta.nodes = static_cast<std::uint32_t>(require(md, "nodes").as_int());
  d.meta.workload = require(md, "workload").as_string();
  d.wall = sim::SimTime::picoseconds(require(md, "wall_ps").as_int());
  d.spans_dropped =
      static_cast<std::uint64_t>(require(md, "spans_dropped").as_int());
  d.span_capacity =
      static_cast<std::uint64_t>(require(md, "span_capacity").as_int());

  // --- counters -----------------------------------------------------------
  for (const auto& [key, track] : require(doc, "counters").as_object()) {
    // Keys look like "node<k>.<component>".
    const std::size_t dot = key.find('.');
    if (key.rfind("node", 0) != 0 || dot == std::string::npos) {
      bad_dump("bad counter track key '" + key + "'");
    }
    DumpTrack t;
    t.node = static_cast<std::uint32_t>(
        std::stoul(key.substr(4, dot - 4)));
    t.component = key.substr(dot + 1);
    for (const auto& [name, v] : require(track, "counts").as_object()) {
      t.counts.emplace(name, static_cast<std::uint64_t>(v.as_int()));
    }
    for (const auto& [name, v] : require(track, "busy_ps").as_object()) {
      t.times.emplace(name, sim::SimTime::picoseconds(v.as_int()));
    }
    d.tracks.push_back(std::move(t));
  }
  std::sort(d.tracks.begin(), d.tracks.end(),
            [](const DumpTrack& a, const DumpTrack& b) {
              return std::tie(a.node, a.component) <
                     std::tie(b.node, b.component);
            });

  // --- spans: rebuild identity from the thread_name metadata events --------
  std::map<std::pair<std::int64_t, std::int64_t>, std::string> thread_names;
  const json::Value& events = require(doc, "traceEvents");
  for (const json::Value& e : events.as_array()) {
    if (const json::Value* ph = e.find("ph");
        ph != nullptr && ph->as_string() == "M" &&
        require(e, "name").as_string() == "thread_name") {
      thread_names[{require(e, "pid").as_int(), require(e, "tid").as_int()}] =
          require(require(e, "args"), "name").as_string();
    }
  }
  for (const json::Value& e : events.as_array()) {
    const std::string& ph = require(e, "ph").as_string();
    if (ph != "X" && ph != "i") {
      continue;
    }
    DumpSpan s;
    const std::int64_t pid = require(e, "pid").as_int();
    const std::int64_t tid = require(e, "tid").as_int();
    s.node = static_cast<std::uint32_t>(pid);
    const auto it = thread_names.find({pid, tid});
    if (it == thread_names.end()) {
      bad_dump("span references unnamed thread");
    }
    s.component = it->second;
    s.name = require(e, "name").as_string();
    s.is_instant = ph == "i";
    const json::Value& args = require(e, "args");
    s.start = sim::SimTime::picoseconds(require(args, "start_ps").as_int());
    s.duration = sim::SimTime::picoseconds(require(args, "dur_ps").as_int());
    d.spans.push_back(std::move(s));
  }

  if (const json::Value* results = doc.find("results")) {
    d.results = *results;
  }
  return d;
}

Dump load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("perf: cannot open " + path);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return from_json(json::Value::parse(ss.str()));
}

}  // namespace fpst::perf
