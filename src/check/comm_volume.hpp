// Static per-cube-edge communication volume and channel-protocol checks
// (DESIGN.md §4.4).
//
// analyze_volume() lowers a CommSpec with the exact collective schedules
// the runtime executes (check/chan_graph.hpp's lower_comm), routes every
// resulting point-to-point message e-cube through
// net::ecube_edge_traffic — the same router the simulator's store-and-
// forward layer uses — and tallies, per undirected cube edge, how many
// messages cross it and how many payload bytes they carry.
//
// On top of the volume prediction it runs two channel-protocol checks
// that the deadlock search in chan_graph.cpp does not express:
//
//   * `chan-arity` (validity error): on a (destination, tag) channel with
//     no recvany, some source's send count differs from the matching recv
//     count; with a recvany the totals must balance instead.
//   * `payload-mismatch` (validity error): ops on one channel disagree on
//     the payload size (`elems`), so the receiver would copy a different
//     number of bytes than the sender staged.
//
// Both checks cover the user tags only. A collective's tags
// (occam::collective_tag) are lowered pairwise and always balance, and
// CommSpec refuses a user op tagged in their range.
//
// When the spec declares a per-edge wire-byte budget (the `budget`
// directive), edges whose predicted bytes exceed it raise `edge-overload`
// as a performance-class error — the input would run, but violates the
// stated link capacity.
#pragma once

#include <cstdint>
#include <vector>

#include "check/diagnostics.hpp"
#include "net/hypercube.hpp"
#include "occam/commspec.hpp"

namespace fpst::check {

struct VolumeAnalysis {
  Report report;
  int dimension = 0;
  /// Point-to-point messages after lowering (collective hops included).
  std::uint64_t messages = 0;
  /// Payload bytes summed over messages (8 bytes per element).
  std::uint64_t payload_bytes = 0;
  /// Edge crossings summed over all e-cube routes.
  std::uint64_t total_hops = 0;
  /// Heaviest single edge, in crossings.
  std::uint64_t max_edge_crossings = 0;
  /// Per-edge loads, sorted by (a, b); zero-load edges omitted.
  std::vector<net::EdgeTraffic> edges;
};

VolumeAnalysis analyze_volume(const occam::CommSpec& spec);

}  // namespace fpst::check
