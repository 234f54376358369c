#include "perf/chrome_trace.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>
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

/// The registry's spans in dump order, ready to be walked more than once.
class SpanOrder {
 public:
  explicit SpanOrder(const CounterRegistry& reg) {
    if (!reg.span_sharded()) {
      serial_ = &reg.timeline();
      return;
    }
    // Merge the per-shard timelines into one deterministic order: by start
    // time, ties broken by shard number (the stable sort sees the spans
    // shard-major) and then per-shard emission order. Host thread timing
    // never influences the result — each shard's ring is already in that
    // shard's deterministic execution order.
    for (const auto& tl : reg.shard_timelines()) {
      for (std::size_t i = 0; i < tl->size(); ++i) {
        merged_.push_back(&(*tl)[i]);
      }
    }
    std::stable_sort(merged_.begin(), merged_.end(),
                     [](const Span* a, const Span* b) {
                       return a->start < b->start;
                     });
  }

  template <typename Fn>
  void each(Fn&& fn) const {
    if (serial_ != nullptr) {
      for (std::size_t i = 0; i < serial_->size(); ++i) {
        fn((*serial_)[i]);
      }
      return;
    }
    for (const Span* s : merged_) {
      fn(*s);
    }
  }

 private:
  const Timeline* serial_ = nullptr;
  std::vector<const Span*> merged_;
};

// --- span names -------------------------------------------------------------

/// Longest label a name prints; the vector form names are at most 7.
constexpr std::size_t kMaxLabel = 16;
/// Longest name format_name() writes (msg_inject with every field at its
/// widest is 58 characters).
constexpr std::size_t kMaxSpanName = 64;

/// Widest text std::to_chars gives an int64 or uint64, and a double.
constexpr std::size_t kIntChars = 20;
constexpr std::size_t kDoubleChars = 24;

char* put(char* p, std::string_view t) {
  std::memcpy(p, t.data(), t.size());
  return p + t.size();
}

template <typename Int>
char* put_int(char* p, Int v) {
  return std::to_chars(p, p + kIntChars, v).ptr;
}

/// Decimal digits of `v`.
std::size_t digits(std::uint64_t v) {
  std::size_t n = 1;
  for (; v >= 10; v /= 10) {
    ++n;
  }
  return n;
}

/// Writes a name's text.
struct NameText {
  char* p;
  void text(std::string_view t) { p = put(p, t); }
  void num(std::uint64_t v) { p = put_int(p, v); }
};

/// Counts a name's text without writing it.
struct NameSize {
  std::size_t n = 0;
  void text(std::string_view t) { n += t.size(); }
  void num(std::uint64_t v) { n += digits(v); }
};

std::string_view label_of(const Span& s) {
  return s.label == nullptr ? std::string_view{}
                            : std::string_view(s.label).substr(0, kMaxLabel);
}

/// The one spelling of every span kind's name (see SpanKind), through a
/// NameText or a NameSize.
template <typename Out>
void format_name(Out& out, const Span& s) {
  switch (s.kind) {
    case SpanKind::vector_op:
      out.text(label_of(s));
      out.text(" n=");
      out.num(s.n);
      return;
    case SpanKind::row_move:
      out.text("rowmove ");
      out.num(s.n);
      return;
    case SpanKind::gather32:
      out.text("gather32 ");
      out.num(s.n);
      return;
    case SpanKind::gather64:
      out.text("gather64 ");
      out.num(s.n);
      return;
    case SpanKind::scatter64:
      out.text("scatter64 ");
      out.num(s.n);
      return;
    case SpanKind::cp_work:
      out.text("work ");
      out.num(s.n);
      out.text(" instr");
      return;
    case SpanKind::link_tx:
      // Traced packets prefix the trace id so the tscope stitcher can join
      // this hop into the flight record.
      if (s.trace != 0) {
        out.text("m");
        out.num(s.trace);
        out.text(" ");
      }
      out.text("tx->node");
      out.num(s.peer);
      out.text(" ");
      out.num(s.n);
      out.text("B");
      return;
    case SpanKind::msg_enqueue:
      out.text("m");
      out.num(s.trace);
      out.text(" enq");
      return;
    case SpanKind::msg_inject:
      out.text("m");
      out.num(s.trace);
      out.text(" inj ->n");
      out.num(s.peer);
      out.text(" t");
      out.num(s.tag);
      out.text(" ");
      out.num(s.n);
      out.text("B");
      return;
    case SpanKind::msg_deliver:
      out.text("m");
      out.num(s.trace);
      out.text(" dlv <-n");
      out.num(s.peer);
      return;
    case SpanKind::msg_forward:
      out.text("m");
      out.num(s.trace);
      out.text(" fwd");
      return;
  }
}

// --- the direct span writer -------------------------------------------------
//
// A trace event prints as the fixed text below around its variable fields,
// exactly as json::Writer lays out the to_json() object at indent 2 inside
// the traceEvents array (members in sorted key order; "dur" only on
// complete spans, "s" only on instants). Every span follows at least one
// metadata event, so each opens with the array's comma.

constexpr std::string_view kOpen =
    ",\n    {\n      \"args\": {\n        \"dur_ps\": ";
constexpr std::string_view kStartPs = ",\n        \"start_ps\": ";
constexpr std::string_view kArgsEnd = "\n      },\n      ";
constexpr std::string_view kDur = "\"dur\": ";
constexpr std::string_view kDurEnd = ",\n      ";
constexpr std::string_view kName = "\"name\": \"";
constexpr std::string_view kPidX = "\",\n      \"ph\": \"X\",\n      \"pid\": ";
constexpr std::string_view kPidI = "\",\n      \"ph\": \"i\",\n      \"pid\": ";
constexpr std::string_view kTidX = ",\n      \"tid\": ";
constexpr std::string_view kTidI = ",\n      \"s\": \"t\",\n      \"tid\": ";
constexpr std::string_view kTs = ",\n      \"ts\": ";
constexpr std::string_view kClose = "\n    }";

constexpr std::size_t kFixedX = kOpen.size() + kStartPs.size() +
                                kArgsEnd.size() + kDur.size() +
                                kDurEnd.size() + kName.size() + kPidX.size() +
                                kTidX.size() + kTs.size() + kClose.size();
constexpr std::size_t kFixedI = kOpen.size() + kStartPs.size() +
                                kArgsEnd.size() + kName.size() + kPidI.size() +
                                kTidI.size() + kTs.size() + kClose.size();
constexpr std::size_t kMaxSpanText = std::max(kFixedX, kFixedI) + 2 * 10 +
                                     kMaxSpanName + 2 * kIntChars +
                                     2 * kDoubleChars;

/// A track's "pid" and "tid" values as text, computed once per dump.
struct TrackIds {
  char pid[10]{};
  char tid[10]{};
  std::uint8_t pid_len = 0;
  std::uint8_t tid_len = 0;
};

std::size_t int_chars(std::int64_t v) {
  return v < 0 ? 1 + digits(0 - static_cast<std::uint64_t>(v))
               : digits(static_cast<std::uint64_t>(v));
}

/// Upper bound on the shortest round-trip text of `ps` in microseconds:
/// 17 significant digits at most, so "ddddd.dddddddddddd" (18) from 1 us
/// up and "d.dddddddddddddddde-0d" (22) below.
std::size_t us_chars_bound(std::int64_t ps) {
  if (ps == 0) {
    return 1;
  }
  if (ps < 0) {
    return kDoubleChars;
  }
  return ps < 1'000'000 ? 22 : 18;
}

/// Like json::Writer::number(): shortest round-trip text. A SimTime in
/// microseconds is always finite, so the writer's null case cannot arise.
char* put_us(char* p, sim::SimTime t) {
  return std::to_chars(p, p + kDoubleChars, to_us(t)).ptr;
}

/// Bytes write_span() may produce for `s`: exact but for the doubles.
std::size_t span_text_bound(const Span& s, const TrackIds& ids) {
  NameSize name;
  format_name(name, s);
  std::size_t n = name.n + ids.pid_len + ids.tid_len +
                  int_chars(s.duration.ps()) + int_chars(s.start.ps()) +
                  us_chars_bound(s.start.ps());
  if (s.is_instant()) {
    return n + kFixedI;
  }
  return n + kFixedX + us_chars_bound(s.duration.ps());
}

void write_span(std::string& out, const Span& s, const TrackIds& ids) {
  char buf[kMaxSpanText];
  char* p = put(buf, kOpen);
  p = put_int(p, s.duration.ps());
  p = put(p, kStartPs);
  p = put_int(p, s.start.ps());
  p = put(p, kArgsEnd);
  const bool instant = s.is_instant();
  if (!instant) {
    p = put(p, kDur);
    p = put_us(p, s.duration);
    p = put(p, kDurEnd);
  }
  p = put(p, kName);
  NameText name{p};
  format_name(name, s);
  p = put(name.p, instant ? kPidI : kPidX);
  p = put(p, {ids.pid, ids.pid_len});
  p = put(p, instant ? kTidI : kTidX);
  p = put(p, {ids.tid, ids.tid_len});
  p = put(p, kTs);
  p = put_us(p, s.start);
  p = put(p, kClose);
  out.append(buf, static_cast<std::size_t>(p - buf));
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

std::string span_name(const Span& s) {
  char buf[kMaxSpanName];
  NameText name{buf};
  format_name(name, s);
  return std::string(buf, name.p);
}

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
    sink->each_touched(Field::time, [&t](std::string_view n, std::int64_t v) {
      t.times.emplace(n, sim::SimTime::picoseconds(v));
    });
    sink->each_touched(Field::count, [&t](std::string_view n, std::int64_t v) {
      t.counts.emplace(n, static_cast<std::uint64_t>(v));
    });
    d.tracks.push_back(std::move(t));
  }
  SpanOrder(reg).each([&](const Span& s) {
    const auto it = by_id.find(s.track);
    if (it == by_id.end()) {
      return;  // track was never registered (cannot happen via PerfSink)
    }
    DumpSpan out;
    out.node = it->second.first;
    out.component = *it->second.second;
    out.start = s.start;
    out.duration = s.duration;
    out.name = span_name(s);
    out.is_instant = s.is_instant();
    d.spans.push_back(std::move(out));
  });
  return d;
}

void write_dump(std::string& out, const CounterRegistry& reg,
                sim::SimTime wall, const json::Value& results) {
  // Everything before the spans goes through the generic writer into
  // `head`, members in the sorted key order of to_json()'s std::map
  // objects; the spans, most of the bytes, are written directly after it.
  std::string head;
  json::Writer w{head, 2};
  w.begin_object();

  // Counter tracks are keyed "node<k>.<component>" and print in string
  // order (node10 before node2), not the registry's (node, component) order.
  std::vector<std::pair<std::string, const PerfSink*>> keyed;
  keyed.reserve(reg.tracks().size());
  for (const auto& [key, sink] : reg.tracks()) {
    keyed.emplace_back(track_key(key.first, key.second), sink.get());
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w.key("counters").begin_object();
  for (const auto& [key, sink] : keyed) {
    w.key(key).begin_object();
    const auto field = [&w](std::string_view name, std::int64_t v) {
      w.key(name).integer(v);
    };
    w.key("busy_ps").begin_object();
    sink->each_touched(Field::time, field);
    w.end_object();
    w.key("counts").begin_object();
    sink->each_touched(Field::count, field);
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
  // rank within its node, as in to_json(). ids[track id] feeds the spans.
  w.key("traceEvents").begin_array();
  std::vector<TrackIds> ids(reg.tracks().size());
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
    TrackIds& t = ids[sink->track_id()];
    t.pid_len = static_cast<std::uint8_t>(
        std::to_chars(t.pid, t.pid + sizeof t.pid, key.first).ptr - t.pid);
    t.tid_len = static_cast<std::uint8_t>(
        std::to_chars(t.tid, t.tid + sizeof t.tid, tid).ptr - t.tid);
    ++tid;
  }

  const SpanOrder order(reg);
  std::size_t span_bytes = 0;
  order.each([&](const Span& s) {
    if (s.track < ids.size()) {
      span_bytes += span_text_bound(s, ids[s.track]);
    }
  });
  // The array closes on its own line once it holds an event.
  const std::string_view tail = ids.empty() ? "]\n}" : "\n  ]\n}";
  out.reserve(out.size() + head.size() + span_bytes + tail.size() + 1);
  out += head;
  order.each([&](const Span& s) {
    if (s.track < ids.size()) {  // else never registered (cannot happen)
      write_span(out, s, ids[s.track]);
    }
  });
  out += tail;
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
      continue;  // span without a counter track (cannot happen via PerfSink)
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

/// A node number: plain decimal digits, nothing else, that fit uint32.
std::optional<std::uint32_t> parse_node(std::string_view digits) {
  std::uint32_t node = 0;
  const char* end = digits.data() + digits.size();
  const auto [ptr, ec] = std::from_chars(digits.data(), end, node);
  if (digits.empty() || ec != std::errc{} || ptr != end) {
    return std::nullopt;
  }
  return node;
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
    const std::optional<std::uint32_t> node =
        key.rfind("node", 0) == 0 && dot != std::string::npos
            ? parse_node(std::string_view(key).substr(4, dot - 4))
            : std::nullopt;
    if (!node) {
      bad_dump("bad counter track key '" + key + "'");
    }
    DumpTrack t;
    t.node = *node;
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
    if (pid < 0 || pid > std::numeric_limits<std::uint32_t>::max()) {
      bad_dump("span pid " + std::to_string(pid) + " is not a node number");
    }
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
