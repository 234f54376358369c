// The instrumentation seam between the hardware models and the perf
// subsystem (DESIGN.md §4.2).
//
// Every component that reports counters or timeline spans — the vector
// unit, node memory, link engines, control processor, node, occam runtime —
// holds at most a `PerfSink*` (bare or in a Probe), null by default. A null
// sink is the "collection disabled" state: each instrumentation point is
// then a single pointer test, so uninstrumented runs pay (almost) nothing
// and the substrate libraries depend only on this header (and the timeline
// record it includes), never on the registry or the exporters.
//
// A sink is one (node, component) track, handed out by the CounterRegistry,
// so call sites pass bare counter names ("flops", "bytes") and the
// machinery supplies the identity. It is plain data with no virtual calls:
//   * counters are slots. counter(name) and busy(name) return a reference
//     that stays valid for the registry's lifetime; a hot call site keeps
//     it in a Slot, resolved on the site's first add, so each later event
//     is one add. A component holds its sink and its slots together in a
//     Probe, whose attach() empties the slots. A name prints in the dump
//     iff some call touched it, even with a zero delta.
//   * spans are fixed-size records (perf/timeline.hpp). A call site fills
//     in a kind and a few integers; the name is formatted only when a dump
//     or snapshot is made.
//
// Counter-name conventions (consumed by perf/report.cpp and tools/ttrace):
//   vpu     counts: ops, flops, adder_results, mul_results, bank_conflicts
//           times:  busy, busy.<FORM>          (per vector form)
//   mem     counts: row_loads, row_stores, word_reads, word_writes
//   cp      counts: instr, deschedules, gather_elems, scatter_elems
//           times:  busy
//   link<p> counts: bytes, payload_bytes, packets, acks, dma_starts
//           times:  busy, busy.sublink<k>
//   occam   counts: msgs_sent, msgs_recv, pkts_forwarded
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "perf/timeline.hpp"
#include "sim/time.hpp"

namespace fpst::perf {

class CounterRegistry;

/// One (node, component) track: two sorted name→value maps plus a handle
/// into the timeline its spans go to.
class PerfSink {
 public:
  using Counts = std::map<std::string, std::uint64_t, std::less<>>;
  using Times = std::map<std::string, sim::SimTime, std::less<>>;

  PerfSink(const PerfSink&) = delete;
  PerfSink& operator=(const PerfSink&) = delete;

  std::uint32_t node() const { return node_; }
  const std::string& component() const { return component_; }
  std::uint32_t track_id() const { return id_; }

  /// The monotonically increasing counter `name`, created at zero by the
  /// first call.
  std::uint64_t& counter(std::string_view name) { return slot(counts_, name); }
  /// The duration accumulator `name`, created at zero by the first call.
  sim::SimTime& busy(std::string_view name) { return slot(times_, name); }

  /// Record a span or instant marker on this track.
  void record(Span s) {
    s.track = id_;
    timeline_->record(s);
  }

  const Counts& counts() const { return counts_; }
  const Times& times() const { return times_; }
  /// Value of one counter (0 when never touched).
  std::uint64_t value(std::string_view name) const;
  /// Value of one duration accumulator (zero when never touched).
  sim::SimTime time_value(std::string_view name) const;

 private:
  friend class CounterRegistry;
  PerfSink(std::uint32_t node, std::string component, std::uint32_t id,
           Timeline* timeline)
      : node_{node},
        component_{std::move(component)},
        id_{id},
        timeline_{timeline} {}

  template <typename Map>
  static typename Map::mapped_type& slot(Map& m, std::string_view name) {
    auto it = m.lower_bound(name);
    if (it == m.end() || it->first != name) {
      it = m.emplace_hint(it, std::string(name),
                          typename Map::mapped_type{});
    }
    return it->second;
  }

  std::uint32_t node_;
  std::string component_;
  std::uint32_t id_;
  Timeline* timeline_;
  Counts counts_;
  Times times_;
};

/// A counter or duration slot that a hot call site keeps. It is empty until
/// the site's first add resolves it through PerfSink::counter() or busy(),
/// so a name no call touches never reaches the dump; after that an add is
/// one addition. A slot lives in a Probe and is always given that probe's
/// sink, which empties it whenever the sink changes.
template <typename T>
class Slot {
 public:
  void add(PerfSink& sink, std::string_view name, T delta) {
    if (slot_ == nullptr) {
      if constexpr (std::is_same_v<T, sim::SimTime>) {
        slot_ = &sink.busy(name);
      } else {
        slot_ = &sink.counter(name);
      }
    }
    *slot_ += delta;
  }

 private:
  T* slot_ = nullptr;
};

using CounterSlot = Slot<std::uint64_t>;
using BusySlot = Slot<sim::SimTime>;

/// A component's hookup to its track: the sink together with the slots its
/// hot call sites keep (`Slots` is a plain struct of Slot members).
/// attach() is the one way to change the sink and it empties every slot, so
/// no slot ever points into a track, or a registry, other than the current
/// one.
template <typename Slots>
class Probe {
 public:
  /// Report to `sink` from now on; null disables collection.
  void attach(PerfSink* sink) {
    // Slots resolve only against a non-null sink, so they are still empty
    // while sink_ is null; skipping the clear then keeps a machine-wide
    // first attach from touching every component's cold slot lines.
    if (sink_ != nullptr) {
      slots_ = Slots{};
    }
    sink_ = sink;
  }
  PerfSink* sink() const { return sink_; }
  Slots& slots() { return slots_; }

 private:
  PerfSink* sink_ = nullptr;
  Slots slots_{};
};

}  // namespace fpst::perf
