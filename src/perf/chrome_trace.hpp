// Dump format for a perf collection run, and its loader.
//
// The dump is one JSON document that serves two consumers at once:
//   * Chrome trace viewers: a `traceEvents` array in the trace_event
//     format — one "process" (pid) per node, one "thread" (tid) per
//     component, complete spans as ph:"X" — so the file opens unmodified
//     in chrome://tracing or https://ui.perfetto.dev;
//   * machine consumers (tools/ttrace, the BENCH trajectory, tests): a
//     `counters` object with every track's counters and duration
//     accumulators, a `metadata` object with the machine shape, and an
//     optional caller-supplied `results` object (benches put their
//     headline tables there).
//
// write_dump() is the one writer: it writes the document from a registry
// straight to bytes, in the canonical form json::Value::dump(2) prints, so
// parsing a dump and printing it again gives back its bytes. from_json()
// loads a parsed dump back into a Dump, the view the analyzers start from.
//
// Timestamps in traceEvents are microseconds (the trace_event unit); the
// counters/metadata sections carry exact integer picoseconds (`*_ps`).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "perf/counters.hpp"
#include "perf/json.hpp"
#include "sim/time.hpp"

namespace fpst::perf {

/// Write a registry's dump (counters + timeline + meta, and `results` as
/// its "results" member unless null) straight to bytes, appending to `out`.
/// The text is canonical: json::Value::parse(text).dump(2) == text. `out`
/// grows by one reservation, which also holds the trailing newline
/// write_file() and serve append. `wall` is the simulated end time of the
/// run; `results` carries a caller's tables (bench rows, a serve job's
/// spec). Serve and every dump-writing example and bench use this.
void write_dump(std::string& out, const CounterRegistry& reg,
                sim::SimTime wall, const json::Value& results = json::Value{});

/// write_dump() to `path`, plus the trailing newline write_file(path, doc)
/// adds. Throws std::runtime_error on I/O failure.
void write_file(const std::string& path, const CounterRegistry& reg,
                sim::SimTime wall, const json::Value& results = json::Value{});

/// The same dump as a document tree: write_dump()'s bytes, parsed.
json::Value to_json(const CounterRegistry& reg, sim::SimTime wall);

/// Write any JSON document to `path` (pretty-printed). Throws
/// std::runtime_error on I/O failure.
void write_file(const std::string& path, const json::Value& doc);

/// Room write_us() needs: the widest shortest round-trip double.
inline constexpr std::size_t kUsChars = 24;

/// Write SimTime::picoseconds(ps).us() at `p` exactly as std::to_chars
/// prints that double, and return the end of the text: the dump's "ts" and
/// "dur". Where the double is the exact decimal ps / 10^6 rounded, the text
/// is printed from the integer (DESIGN.md §4.2).
char* write_us(char* p, std::int64_t ps);

/// A span's display name, as every dump prints it: the one formatter
/// write_dump(), snapshot() and the tests share. Names need no JSON escaping
/// by construction: fixed ASCII text, decimal integers and a static label
/// (a vector form's name, cut at 16 characters).
std::string span_name(const Span& s);

/// One track's counters as loaded back from a dump.
struct DumpTrack {
  std::uint32_t node = 0;
  std::string component;
  std::map<std::string, std::uint64_t, std::less<>> counts;
  std::map<std::string, sim::SimTime, std::less<>> times;

  bool operator==(const DumpTrack&) const = default;
};

/// One span as loaded back from a dump.
struct DumpSpan {
  std::uint32_t node = 0;
  std::string component;
  sim::SimTime start{};
  sim::SimTime duration{};
  std::string name;
  bool is_instant = false;

  bool operator==(const DumpSpan&) const = default;
};

/// A loaded dump: everything tools/ttrace and the report builder need.
struct Dump {
  CounterRegistry::Meta meta;
  sim::SimTime wall{};
  std::uint64_t spans_dropped = 0;
  std::uint64_t span_capacity = 0;
  std::vector<DumpTrack> tracks;  ///< sorted by (node, component)
  std::vector<DumpSpan> spans;    ///< in recorded order
  json::Value results;            ///< null when the dump carried none

  const DumpTrack* find(std::uint32_t node, std::string_view component) const;
  std::uint64_t value(std::uint32_t node, std::string_view component,
                      std::string_view name) const;
  sim::SimTime time_value(std::uint32_t node, std::string_view component,
                          std::string_view name) const;
};

/// Capture a registry's current state as a Dump without serialising — the
/// in-process path to the analyzers (perf/report, perf/tscope).
Dump snapshot(const CounterRegistry& reg, sim::SimTime wall);

/// Rebuild a Dump from a parsed document. Throws std::runtime_error on a
/// document that is not a perf dump, including a track key or span pid
/// whose node number is not a plain decimal uint32.
Dump from_json(const json::Value& doc);

/// Read + parse + rebuild in one step.
Dump load_file(const std::string& path);

}  // namespace fpst::perf
