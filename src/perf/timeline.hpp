// The structured span timeline: the machine-wide record of *when* each
// component was busy, bounded by a ring buffer so long runs cannot exhaust
// host memory.
//
// A span is a fixed-size plain record: track id, times, a kind from a
// closed set, a static label and a few integers. Recording one copies it
// into the ring; nothing is formatted. Its display name ("VSAXPY n=16",
// "m5 inj ->n3 t32768 12B") is built only when a dump or a snapshot is made
// (perf::span_name, perf/chrome_trace.hpp), so the spans a full ring
// overwrites never cost a string. The track table maps ids back to (node,
// component) identity; the Chrome trace_event exporter turns each node
// into a "process" and each component into a "thread" so any dump opens
// directly in chrome://tracing or Perfetto.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/ring.hpp"
#include "sim/time.hpp"

namespace fpst::perf {

/// What a span records, and so how its name is spelled. The message kinds
/// are the tscope grammar (perf/tscope.hpp).
enum class SpanKind : std::uint8_t {
  // Complete spans.
  vector_op,  ///< "<label> n=<n>": one vector form (label: the form's name)
  row_move,   ///< "rowmove <n>"
  gather32,   ///< "gather32 <n>"
  gather64,   ///< "gather64 <n>"
  scatter64,  ///< "scatter64 <n>"
  cp_work,    ///< "work <n> instr"
  link_tx,    ///< "m<trace> tx->node<peer> <n>B"; no "m<trace> " if untraced
  // Instant markers; every kind from here on is one.
  msg_enqueue,  ///< "m<trace> enq"
  msg_inject,   ///< "m<trace> inj ->n<peer> t<tag> <n>B"
  msg_deliver,  ///< "m<trace> dlv <-n<peer>"
  msg_forward,  ///< "m<trace> fwd"
};

/// One timeline record. `duration` is zero for instant markers.
struct Span {
  sim::SimTime start{};
  sim::SimTime duration{};
  std::uint64_t n = 0;          ///< elements, instructions, rows or bytes
  const char* label = nullptr;  ///< static text: vector_op's form name
  std::uint32_t track = 0;      ///< set by PerfSink::record
  std::uint32_t trace = 0;      ///< tscope message id, 0 when untraced
  std::uint32_t peer = 0;       ///< the other node of a hop or a message
  std::uint16_t tag = 0;        ///< msg_inject's message tag
  SpanKind kind = SpanKind::vector_op;

  bool is_instant() const { return kind >= SpanKind::msg_enqueue; }
};

class Timeline {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  Timeline() : ring_{kDefaultCapacity} {}
  explicit Timeline(std::size_t capacity) : ring_{capacity} {}

  void record(const Span& s) { ring_.push(s); }

  std::size_t size() const { return ring_.size(); }
  std::size_t capacity() const { return ring_.capacity(); }
  /// Spans overwritten because the ring was full (reported in dumps so a
  /// truncated timeline is never mistaken for a complete one).
  std::uint64_t dropped() const { return ring_.dropped(); }
  const Span& operator[](std::size_t i) const { return ring_[i]; }
  std::vector<Span> snapshot() const { return ring_.snapshot(); }
  void clear() { ring_.clear(); }

 private:
  sim::RingBuffer<Span> ring_;
};

}  // namespace fpst::perf
