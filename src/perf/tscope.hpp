// tscope: cross-node message observability for the hypercube fabric.
//
// The transport layers (occam runtime, TSeries::send_dim, link::Link) tag
// every message with a monotonically increasing trace id and record one
// timeline event per lifecycle transition:
//
//   occam  track of src:   instant  "m<id> inj ->n<dst> t<tag> <bytes>B"
//   link<p> track of hop:  instant  "m<id> enq"          (queued for port)
//   link<p> track of hop:  span     "m<id> tx->node<dst> <bytes>B"
//                                   (DMA start; duration = 5 us startup
//                                    + wire time at 0.5 MB/s)
//   occam  track of via:   instant  "m<id> fwd"          (store-and-forward)
//   occam  track of dst:   instant  "m<id> dlv <-n<src>"
//
// This header is the stitcher: it joins those events (from a loaded Dump or
// an in-process snapshot) into per-message *flight records* — source, dest,
// bytes, hop-by-hop queueing vs wire time, hops taken vs the e-cube minimum
// — and derives the three analyses the paper's Figures 2-3 call for:
// latency/queue histograms with p50/p90/p99, the per-cube-edge congestion
// heatmap, and the critical path through the message-causality DAG.
//
// perf sits below net in the layering, so the e-cube *minimum* here is pure
// bit arithmetic (popcount of src XOR dst); the comparison against
// net/hypercube's static congestion prediction lives in tools/tscope, which
// links both libraries.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "perf/chrome_trace.hpp"
#include "perf/histogram.hpp"
#include "perf/json.hpp"
#include "sim/time.hpp"

namespace fpst::perf {

/// One store-and-forward hop of a message flight.
struct FlightHop {
  std::uint32_t from = 0;       ///< transmitting node
  std::uint32_t to = 0;         ///< receiving node (next transmitter or dst)
  sim::SimTime enq{};           ///< entered the node's link-send layer
  sim::SimTime dma_start{};     ///< wire acquired; 5 us DMA startup begins
  sim::SimTime queue{};         ///< dma_start - enq (port + direction wait)
  sim::SimTime transfer{};      ///< DMA startup + wire time
};

/// One message's life, stitched across nodes.
struct Flight {
  std::uint32_t id = 0;         ///< trace id (monotonic at injection)
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint32_t tag = 0;
  std::uint64_t bytes = 0;      ///< wire payload bytes
  sim::SimTime inject{};
  sim::SimTime deliver{};
  std::vector<FlightHop> hops;  ///< in traversal order; empty for self-sends
  int ecube_min = 0;            ///< popcount(src ^ dst)
  bool complete = false;        ///< all lifecycle events were present

  sim::SimTime latency() const { return deliver - inject; }
};

/// Crossings of one undirected cube edge (a < b).
struct EdgeLoad {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint64_t crossings = 0;
};

/// Per-node message activity (the tscope --summary table).
struct NodeMsgStats {
  std::uint32_t node = 0;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t hops_sent = 0;  ///< total hops over messages this node sent

  double mean_hops() const {
    return sent == 0 ? 0.0
                     : static_cast<double>(hops_sent) /
                           static_cast<double>(sent);
  }
};

/// The longest deliver -> send dependency chain in the run.
struct CriticalPath {
  sim::SimTime length{};              ///< sum of flight latencies on the chain
  double wall_fraction = 0.0;         ///< length / wall
  std::vector<std::uint32_t> chain;   ///< flight ids, in injection order
};

struct MessageReport {
  CounterRegistry::Meta meta;
  sim::SimTime wall{};
  std::uint64_t spans_dropped = 0;
  std::uint64_t incomplete = 0;       ///< flights missing lifecycle events
  std::vector<Flight> flights;        ///< complete flights, sorted by id
  std::vector<EdgeLoad> edges;        ///< observed crossings, sorted (a, b)
  std::vector<NodeMsgStats> per_node; ///< sorted by node
  Histogram latency_ps;               ///< end-to-end, per message
  Histogram queue_ps;                 ///< per hop
  Histogram transfer_ps;              ///< per hop (DMA startup + wire)
  int max_hops = 0;
  std::uint64_t total_hops = 0;
  bool ecube_minimal = true;          ///< every flight took popcount hops
  CriticalPath critical;
};

/// Stitch a dump's message-lifecycle events into flight records and build
/// the full message report. Dumps without message events yield an empty
/// (zero-message) report.
MessageReport analyze_messages(const Dump& dump);

/// Serialise the report (flight records, histograms with p50/p90/p99, edge
/// heatmap, per-node table, critical path) as a deterministic JSON object —
/// the schema is documented in DESIGN.md section 4.3.
json::Value messages_to_json(const MessageReport& r);

/// Serialise an edge-load table as the `edges` array of that schema
/// ([{a, b, crossings}, ...]). Shared by tools/tscope and tools/tcheck so
/// the static prediction and the measurement diff structurally.
json::Value edges_to_json(const std::vector<EdgeLoad>& edges);

/// Human-readable report: counts, latency percentiles, queueing vs wire
/// breakdown, the paper's Figure 2/3 constants next to the measurements,
/// and the critical path.
std::string render_messages(const MessageReport& r);

/// The per-node message table (tscope --summary).
std::string render_message_summary(const MessageReport& r);

/// The per-edge congestion table. `predicted` may be empty (no comparison
/// column) or must be sorted by (a, b) like `r.edges`.
std::string render_edges(const MessageReport& r,
                         const std::vector<EdgeLoad>& predicted);

}  // namespace fpst::perf
