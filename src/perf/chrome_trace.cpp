#include "perf/chrome_trace.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>
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

// --- text -------------------------------------------------------------------

/// Longest label a name prints; the vector form names are at most 7.
constexpr std::size_t kMaxLabel = 16;
/// Longest name format_name() writes (msg_inject with every field at its
/// widest is 58 characters).
constexpr std::size_t kMaxSpanName = 64;

/// Widest text std::to_chars gives an int64 or uint64.
constexpr std::size_t kIntChars = 20;

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

std::size_t int_chars(std::int64_t v) {
  return v < 0 ? 1 + digits(0 - static_cast<std::uint64_t>(v))
               : digits(static_cast<std::uint64_t>(v));
}

/// Writes text at a pointer into room sized for it: a span into its
/// buffer, or the dump's head into its region of the output.
struct TextAt {
  char* p;
  void text(std::string_view t) { p = put(p, t); }
  template <typename Int>
  void num(Int v) {
    p = put_int(p, v);
  }
  /// `len` bytes of text made earlier, copied at the full width of the
  /// block that holds them: a fixed-size copy compiles to a few moves,
  /// where a variable-length one does not. The room must allow for that.
  template <std::size_t N>
  void block(const char (&b)[N], std::size_t len) {
    std::memcpy(p, b, N);
    p += len;
  }
};

/// Counts the bytes a TextAt would write.
struct TextSize {
  std::size_t n = 0;
  void text(std::string_view t) { n += t.size(); }
  template <typename Int>
  void num(Int v) {
    if constexpr (std::is_signed_v<Int>) {
      n += int_chars(v);
    } else {
      n += digits(v);
    }
  }
  template <std::size_t N>
  void block(const char (&)[N], std::size_t len) {
    n += len;
  }
};

// --- microseconds -----------------------------------------------------------

/// Below this many picoseconds, ps / 10^6 has at most 15 significant
/// digits, and two decimals of at most 15 significant digits never round
/// to one double.
constexpr std::int64_t kExactPs = 1'000'000'000'000'000;

}  // namespace

// SimTime::us() is the product ps * 1e-6, and std::to_chars prints it as
// the shortest text that reads back as that double, fixed or scientific,
// whichever is shorter, ties to fixed. When 0 <= ps < kExactPs and the
// product is also the correctly rounded quotient ps / 10^6, that text is
// the exact decimal ps / 10^6, printed here from the integer. Otherwise
// to_chars prints the product: for about a fifth of a large cube's start
// times it is one ulp off the quotient, and 881999940 ps prints as
// 881.9999399999999.
char* write_us(char* p, std::int64_t ps) {
  const double us = sim::SimTime::picoseconds(ps).us();
  if (ps < 0 || ps >= kExactPs || us != static_cast<double>(ps) / 1e6) {
    return std::to_chars(p, p + kUsChars, us).ptr;
  }
  if (ps == 0) {
    *p = '0';
    return p + 1;
  }
  // ps is the k digits d free of trailing zeros, times 10^z, so the value
  // is 0.d * 10^(whole - 6) and its exponent d.dd * 10^(whole - 7) lies
  // in [-6, 8].
  auto m = static_cast<std::uint64_t>(ps);
  std::size_t z = 0;
  for (; m % 10 == 0; m /= 10) {
    ++z;
  }
  char d[kIntChars];
  const auto k = static_cast<std::size_t>(put_int(d, m) - d);
  const std::size_t whole = k + z;
  const std::size_t fixed = z >= 6      ? whole - 6
                            : whole > 6 ? k + 1
                                        : k + 8 - whole;
  const std::size_t scientific = k + (k > 1 ? 5 : 4);
  if (fixed <= scientific) {
    if (z >= 6) {  // whole microseconds: "24080"
      p = put(p, {d, k});
      std::memset(p, '0', z - 6);
      return p + (z - 6);
    }
    if (whole > 6) {  // "1.5"
      p = put(p, {d, whole - 6});
      *p++ = '.';
      return put(p, {d + (whole - 6), k - (whole - 6)});
    }
    p = put(p, "0.");  // "0.005"
    std::memset(p, '0', 6 - whole);
    return put(p + (6 - whole), {d, k});
  }
  *p++ = d[0];  // "5e-04", "1.5e+05"
  if (k > 1) {
    *p++ = '.';
    p = put(p, {d + 1, k - 1});
  }
  *p++ = 'e';
  *p++ = whole >= 7 ? '+' : '-';
  *p++ = '0';
  *p++ = static_cast<char>('0' + (whole >= 7 ? whole - 7 : 7 - whole));
  return p;
}

namespace {

/// One time field of a span as text: its picoseconds (for "args") and its
/// microseconds ("ts" or "dur"), each in a block for TextAt::block(). The
/// machine runs lock-step, so consecutive spans mostly share a start and a
/// duration (a 7-cube allreduce's 16,128 starts change 64 times in dump
/// order): the text is made again only when the value changes.
struct TimeText {
  static constexpr std::size_t kBlock = 32;
  static_assert(kBlock >= kIntChars && kBlock >= kUsChars);

  std::int64_t value = 0;
  char ps[kBlock] = "0";
  char us[kBlock] = "0";
  std::uint8_t ps_len = 1;
  std::uint8_t us_len = 1;

  void set(std::int64_t t) {
    if (t != value) {
      value = t;
      ps_len = static_cast<std::uint8_t>(put_int(ps, t) - ps);
      us_len = static_cast<std::uint8_t>(write_us(us, t) - us);
    }
  }
};

/// The start and duration text of the span last seen. The sizing pass and
/// the writing pass each keep one, per write_dump() call: serve writes
/// dumps on several workers at once.
struct SpanTimes {
  TimeText start;
  TimeText dur;

  void set(const Span& s) {
    start.set(s.start.ps());
    dur.set(s.duration.ps());
  }
};

// --- span names -------------------------------------------------------------

std::string_view label_of(const Span& s) {
  return s.label == nullptr ? std::string_view{}
                            : std::string_view(s.label).substr(0, kMaxLabel);
}

/// The one spelling of every span kind's name (see SpanKind), through a
/// TextAt or a TextSize.
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

/// A track's "pid" and "tid" values as text, computed once per dump, each
/// in a block for TextAt::block().
struct TrackIds {
  static constexpr std::size_t kBlock = 16;
  char pid[kBlock]{};
  char tid[kBlock]{};
  std::uint8_t pid_len = 0;
  std::uint8_t tid_len = 0;
};

/// Room for the longest span text, counting every block at its full width,
/// which also covers the last block copy's overhang.
constexpr std::size_t kSpanRoom =
    kOpen.size() + kStartPs.size() + kArgsEnd.size() + kDur.size() +
    kDurEnd.size() + kName.size() + kPidI.size() + kTidI.size() +
    kTs.size() + kClose.size() + kMaxSpanName + 2 * TrackIds::kBlock +
    4 * TimeText::kBlock;

/// A span's trace event; `times` holds the text of its start and duration.
template <typename Out>
void span_text(Out& out, const Span& s, const TrackIds& ids,
               const SpanTimes& times) {
  const bool instant = s.is_instant();
  out.text(kOpen);
  out.block(times.dur.ps, times.dur.ps_len);
  out.text(kStartPs);
  out.block(times.start.ps, times.start.ps_len);
  out.text(kArgsEnd);
  if (!instant) {
    out.text(kDur);
    out.block(times.dur.us, times.dur.us_len);
    out.text(kDurEnd);
  }
  out.text(kName);
  format_name(out, s);
  out.text(instant ? kPidI : kPidX);
  out.block(ids.pid, ids.pid_len);
  out.text(instant ? kTidI : kTidX);
  out.block(ids.tid, ids.tid_len);
  out.text(kTs);
  out.block(times.start.us, times.start.us_len);
  out.text(kClose);
}

/// Bytes write_span() writes for `s`, given the spans before it in `times`.
std::size_t span_size(const Span& s, const TrackIds& ids, SpanTimes& times) {
  times.set(s);
  TextSize size;
  span_text(size, s, ids, times);
  return size.n;
}

void write_span(std::string& out, const Span& s, const TrackIds& ids,
                SpanTimes& times) {
  times.set(s);
  char buf[kSpanRoom];
  TextAt text{buf};
  span_text(text, s, ids, times);
  out.append(buf, static_cast<std::size_t>(text.p - buf));
}

// --- the direct head writer -------------------------------------------------
//
// The counters object and the metadata events that name processes and
// threads, as json::Writer lays them out at indent 2. Names need no
// escaping: component and field names are plain_name() by construction,
// and node names are decimal.

/// One node's tracks: a run of the registry's (node, component) order.
struct NodeTracks {
  const PerfSink* const* first;
  const PerfSink* const* last;
  char text[10]{};  ///< the node number in decimal
  std::uint8_t len = 0;

  std::string_view number() const { return {text, len}; }
};

/// The touched fields of one kind, as the members of a track's "busy_ps"
/// or "counts" object.
template <typename Out>
void fields_text(Out& out, const PerfSink& sink, Field::Kind kind) {
  bool any = false;
  sink.each_touched(kind, [&](std::string_view name, std::int64_t v) {
    out.text(any ? ",\n        \"" : "\n        \"");
    out.text(name);
    out.text("\": ");
    out.num(v);
    any = true;
  });
  out.text(any ? "\n      }" : "}");
}

/// The "counters" object. Its keys, "node<k>.<component>", print in byte
/// order: `by_text` lists the nodes in the order of their decimal text
/// (node1. < node10. < node2.), and a node's components follow in registry
/// order.
template <typename Out>
void counters_text(Out& out, const std::vector<const NodeTracks*>& by_text) {
  out.text("{");
  std::string_view sep = "\n    \"node";
  for (const NodeTracks* n : by_text) {
    for (auto it = n->first; it != n->last; ++it) {
      out.text(sep);
      out.text(n->number());
      out.text(".");
      out.text((*it)->component());
      out.text("\": {\n      \"busy_ps\": {");
      fields_text(out, **it, Field::time);
      out.text(",\n      \"counts\": {");
      fields_text(out, **it, Field::count);
      out.text("\n    }");
      sep = ",\n    \"node";
    }
  }
  out.text(by_text.empty() ? "}" : "\n  }");
}

/// One "M" event naming a process (a node) or a thread (a track).
template <typename Out>
void name_event(Out& out, std::string_view sep, std::string_view prefix,
                std::string_view name, std::string_view event,
                std::string_view pid, std::size_t tid) {
  out.text(sep);
  out.text("{\n      \"args\": {\n        \"name\": \"");
  out.text(prefix);
  out.text(name);
  out.text("\"\n      },\n      \"name\": \"");
  out.text(event);
  out.text("\",\n      \"ph\": \"M\",\n      \"pid\": ");
  out.text(pid);
  out.text(",\n      \"tid\": ");
  out.num(tid);
  out.text("\n    }");
}

/// The traceEvents array's metadata events, in registry order: a node's
/// process_name, then a thread_name per track, tid the component's rank
/// within its node, as in to_json().
template <typename Out>
void names_text(Out& out, const std::vector<NodeTracks>& nodes) {
  std::string_view sep = "\n    ";
  for (const NodeTracks& n : nodes) {
    name_event(out, sep, "node", n.number(), "process_name", n.number(), 0);
    sep = ",\n    ";
    std::size_t tid = 0;
    for (auto it = n.first; it != n.last; ++it) {
      name_event(out, sep, "", (*it)->component(), "thread_name",
                 n.number(), tid++);
    }
  }
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
  TextAt name{buf};
  format_name(name, s);
  return std::string(buf, name.p);
}

Dump snapshot(const CounterRegistry& reg, sim::SimTime wall) {
  Dump d;
  d.meta = reg.meta();
  d.wall = wall;
  d.span_capacity = reg.timeline().capacity();
  d.spans_dropped = spans_dropped(reg);
  for (const PerfSink* sink : reg.ordered()) {
    DumpTrack t;
    t.node = sink->node();
    t.component = sink->component();
    sink->each_touched(Field::time, [&t](std::string_view n, std::int64_t v) {
      t.times.emplace(n, sim::SimTime::picoseconds(v));
    });
    sink->each_touched(Field::count, [&t](std::string_view n, std::int64_t v) {
      t.counts.emplace(n, static_cast<std::uint64_t>(v));
    });
    d.tracks.push_back(std::move(t));
  }
  // A span's track id is its track's index, which gives back its identity.
  SpanOrder(reg).each([&](const Span& s) {
    if (s.track >= reg.tracks().size()) {
      return;  // track was never registered (cannot happen via PerfSink)
    }
    const PerfSink& track = reg.tracks()[s.track];
    DumpSpan out;
    out.node = track.node();
    out.component = track.component();
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
  // The document's frame goes through json::Writer, which owns the escapes
  // a workload label or a results table may need: the braces, the
  // displayTimeUnit, metadata and results members, and the traceEvents
  // array's opening bracket. Members print in the sorted key order of
  // to_json()'s std::map objects. The counters object, spliced in for the
  // frame's "{}", and the events after the bracket are nearly all the
  // bytes; they are written directly.
  std::string frame;
  json::Writer w{frame, 2};
  w.begin_object();
  w.key("counters");
  const std::size_t splice = frame.size();
  w.begin_object().end_object();
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
  w.key("traceEvents").begin_array();
  const std::string_view before = std::string_view(frame).substr(0, splice);
  const std::string_view after = std::string_view(frame).substr(splice + 2);

  // Each node's run of tracks, and each track's pid and tid text by track
  // id for the spans.
  const std::vector<const PerfSink*> tracks = reg.ordered();
  std::vector<NodeTracks> nodes;
  std::vector<TrackIds> ids(tracks.size());
  const PerfSink* const* const end = tracks.data() + tracks.size();
  for (const PerfSink* const* it = tracks.data(); it != end;) {
    NodeTracks& n = nodes.emplace_back();
    const std::uint32_t node = (*it)->node();
    n.first = it;
    n.len = static_cast<std::uint8_t>(
        std::to_chars(n.text, n.text + sizeof n.text, node).ptr - n.text);
    for (std::size_t tid = 0; it != end && (*it)->node() == node;
         ++it, ++tid) {
      TrackIds& t = ids[(*it)->track_id()];
      std::memcpy(t.pid, n.text, n.len);
      t.pid_len = n.len;
      t.tid_len = static_cast<std::uint8_t>(
          std::to_chars(t.tid, t.tid + sizeof t.tid, tid).ptr - t.tid);
    }
    n.last = it;
  }
  std::vector<const NodeTracks*> by_text;
  by_text.reserve(nodes.size());
  for (const NodeTracks& n : nodes) {
    by_text.push_back(&n);
  }
  std::sort(by_text.begin(), by_text.end(),
            [](const NodeTracks* a, const NodeTracks* b) {
              return a->number() < b->number();
            });

  // Size everything first, so `out` grows by one reservation that also
  // holds the newline write_file() and serve append.
  TextSize head;
  head.text(before);
  counters_text(head, by_text);
  head.text(after);
  names_text(head, nodes);
  const SpanOrder order(reg);
  std::size_t span_bytes = 0;
  SpanTimes sizing;
  order.each([&](const Span& s) {
    if (s.track < ids.size()) {  // else never registered (cannot happen)
      span_bytes += span_size(s, ids[s.track], sizing);
    }
  });
  // The array closes on its own line once it holds an event.
  const std::string_view tail = ids.empty() ? "]\n}" : "\n  ]\n}";
  const std::size_t at = out.size();
  out.reserve(at + head.n + span_bytes + tail.size() + 1);

  // The head is written in place, into a region of exactly its size.
  out.resize(at + head.n);
  TextAt text{out.data() + at};
  text.text(before);
  counters_text(text, by_text);
  text.text(after);
  names_text(text, nodes);
  assert(text.p == out.data() + out.size());
  SpanTimes times;
  order.each([&](const Span& s) {
    if (s.track < ids.size()) {
      write_span(out, s, ids[s.track], times);
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
