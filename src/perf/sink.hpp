// The instrumentation seam between the hardware models and the perf
// subsystem (DESIGN.md §4.2).
//
// Every component that counts — the vector unit, node memory, link engines,
// control processor and occam runtime — declares its statistics once, as a
// FieldTable: each field's name in the dump, and whether it sums a count or
// a duration. It counts into one block of cells, a Stats, with one
// unconditional add per field, so a run with perf attached and one without
// execute the same adds. The cells are the component's own until attach()
// points it at a registry track's cells; from then on the track owns them.
// The dump, the registry's queries and the model's accessors all read that
// one copy, so a registry read after its machine is gone still reads valid
// cells. A field prints iff some add touched it, zero deltas included.
//
// A track (PerfSink) is one (node, component) row, handed out by the
// CounterRegistry: the cells, plus a handle into the timeline the
// component's spans go to. Spans are fixed-size records (perf/timeline.hpp)
// named only when a dump or snapshot is made. Recording spans is what
// attaching perf adds, so a span call site tests its track pointer for null.
//
// Lifetime: a registry outlives every machine attached to it, and a model's
// accessors count from its last attach (a fresh registry starts at zero).
// The substrate libraries depend only on this header and the timeline
// record it includes, never on the registry or the exporters.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "perf/timeline.hpp"
#include "sim/time.hpp"

namespace fpst::perf {

class CounterRegistry;

/// One statistic a component keeps: its name in the dump, and whether it
/// sums a count or a duration (printed under busy_ps, in picoseconds).
struct Field {
  enum Kind : bool { count, time };

  std::string_view name;
  Kind kind = count;
};

/// True when `name` prints in a JSON string as it is: no quote, backslash
/// or control character. Field and component names must be, since the dump
/// writes them without escaping (FieldTable and CounterRegistry::track
/// refuse any other).
constexpr bool plain_name(std::string_view name) {
  return std::none_of(name.begin(), name.end(), [](char c) {
    return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
  });
}

/// The most fields one component declares (the vector unit's); each has a
/// bit in a 32-bit touched mask.
inline constexpr std::size_t kMaxFields = 21;
static_assert(kMaxFields <= 32);

/// A component's fields. A field's position in the table is its cell index;
/// the dump prints the fields in byte order of their names.
class FieldTable {
 public:
  constexpr FieldTable(std::initializer_list<Field> fields) {
    if (fields.size() > kMaxFields) {
      throw std::length_error("perf::FieldTable: more than kMaxFields");
    }
    for (const Field& f : fields) {
      if (!plain_name(f.name)) {
        throw std::invalid_argument("perf::FieldTable: name needs escaping");
      }
      order_[size_] = static_cast<std::uint8_t>(size_);
      fields_[size_++] = f;
    }
    std::sort(order_.begin(), order_.begin() + size_,
              [this](std::uint8_t a, std::uint8_t b) {
                return fields_[a].name < fields_[b].name;
              });
  }

  constexpr std::size_t size() const { return size_; }
  constexpr const Field& operator[](std::size_t f) const { return fields_[f]; }
  /// Field indices in dump order.
  constexpr std::span<const std::uint8_t> dump_order() const {
    return {order_.data(), size_};
  }

 private:
  std::array<Field, kMaxFields> fields_{};
  std::array<std::uint8_t, kMaxFields> order_{};
  std::size_t size_ = 0;
};

/// One (node, component) track: the cells its component counts into while
/// attached, and a handle into the timeline its spans go to.
class PerfSink {
 public:
  /// Made by CounterRegistry::track, which holds it in place and owns the
  /// component name.
  PerfSink(std::uint32_t node, std::string_view component, std::uint32_t id,
           Timeline* timeline, const FieldTable& fields)
      : node_{node},
        id_{id},
        component_{component},
        timeline_{timeline},
        fields_{&fields} {}
  PerfSink(const PerfSink&) = delete;
  PerfSink& operator=(const PerfSink&) = delete;

  std::uint32_t node() const { return node_; }
  std::string_view component() const { return component_; }
  std::uint32_t track_id() const { return id_; }
  const FieldTable& fields() const { return *fields_; }

  /// Call fn(name, cell) for every touched field of `kind`, in dump order.
  /// A duration's cell is picoseconds.
  template <class Fn>
  void each_touched(Field::Kind kind, Fn&& fn) const {
    for (const std::uint8_t f : fields_->dump_order()) {
      if ((*fields_)[f].kind == kind && ((touched_ >> f) & 1U) != 0) {
        fn((*fields_)[f].name, static_cast<std::int64_t>(cells_[f]));
      }
    }
  }

  /// Record a span or instant marker on this track.
  void record(Span s) {
    s.track = id_;
    timeline_->record(s);
  }

 private:
  friend class CounterRegistry;
  template <const FieldTable&>
  friend class Stats;

  /// No next track: the end of a node's chain.
  static constexpr std::uint32_t kNoTrack = ~std::uint32_t{0};

  std::uint32_t node_;
  std::uint32_t id_;
  std::string_view component_;
  Timeline* timeline_;
  const FieldTable* fields_;
  /// The id of the node's next track, in creation order (the registry's).
  std::uint32_t next_ = kNoTrack;
  std::uint32_t touched_ = 0;
  std::array<std::uint64_t, kMaxFields> cells_{};
};

/// Where a component counts: one cell per field of `Fields`, and a touched
/// bit per field. The cells are the Stats' own until attach() points it at
/// a track's (or at the cells another Stats counts into); add() is one add
/// and one bit set, whoever owns them.
template <const FieldTable& Fields>
class Stats {
 public:
  Stats() = default;
  Stats(const Stats&) = delete;
  Stats& operator=(const Stats&) = delete;

  void add(std::size_t f, std::uint64_t delta) {
    cells_[f] += delta;
    *touched_ |= std::uint32_t{1} << f;
  }
  void add(std::size_t f, sim::SimTime delta) {
    add(f, static_cast<std::uint64_t>(delta.ps()));
  }

  std::uint64_t count(std::size_t f) const { return cells_[f]; }
  sim::SimTime time(std::size_t f) const {
    return sim::SimTime::picoseconds(static_cast<std::int64_t>(cells_[f]));
  }

  /// Count into `track`'s cells from now on. The track must have been made
  /// with this table (CounterRegistry::track(node, component, Fields)).
  void attach(PerfSink& track) {
    cells_ = track.cells_.data();
    touched_ = &track.touched_;
  }
  /// Count into whatever cells `owner` counts into now.
  void attach(const Stats& owner) {
    cells_ = owner.cells_;
    touched_ = owner.touched_;
  }

 private:
  std::array<std::uint64_t, Fields.size()> own_{};
  std::uint32_t own_touched_ = 0;
  std::uint64_t* cells_ = own_.data();
  std::uint32_t* touched_ = &own_touched_;
};

}  // namespace fpst::perf
