// Static deadlock checker for Occam communication skeletons
// (DESIGN.md §6.2).
//
// Input is an occam::CommSpec — the per-node sequence of sends, receives
// and collectives a program performs. The checker lowers every collective
// to the exact point-to-point schedule occam.cpp executes (binomial trees
// through net::tree_parent_dim, dimension exchange, the per-node
// collective tag counter of occam/commspec.hpp) and then abstractly
// executes the whole machine: sends are buffered (the runtime's routers
// always drain the links), receives block until a matching (src, tag)
// message is available. When execution stalls, the blocked nodes form a
// wait-for graph — node i waits on node j when i's pending receive names
// j as source — and any cycle in it is reported as a communication
// deadlock; acyclic stalls are reported as receives whose message is never
// sent. This flags at build time what occam::DeadlockError only reports
// after the simulated event queue drains.
//
// The lowering itself (lower_comm) is shared with the static volume
// analysis in check/comm_volume.hpp, which reuses the same point-to-point
// event streams to compute per-cube-edge traffic.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/diagnostics.hpp"
#include "net/hypercube.hpp"
#include "occam/commspec.hpp"

namespace fpst::check {

/// One point-to-point event a CommOp lowers to. User sends/recvs map
/// one-to-one; collectives expand to the occam.cpp schedule, tagged with
/// occam::collective_tag.
struct CommEvent {
  bool is_send = false;
  bool any = false;        ///< recv_any: match the tag from any source
  net::NodeId peer = 0;    ///< dst for sends, src for receives
  std::uint32_t tag = 0;
  std::uint32_t elems = 1;  ///< payload, 64-bit elements
  std::size_t origin = 0;   ///< index of the CommOp this lowered from
  std::string detail;       ///< e.g. "barrier exchange, dimension 2"
};

/// Lower one node's CommOp sequence to point-to-point events, mirroring
/// the schedules in occam.cpp: the same tag numbering (one
/// occam::collective_tag per collective call, as Ctx::internal_tag) and the
/// same binomial tree (net::tree_parent_dim).
std::vector<CommEvent> lower_comm(const occam::CommSpec& spec,
                                  net::NodeId id);

struct CommAnalysis {
  Report report;
  bool deadlock = false;           ///< a wait-for cycle was found
  std::vector<net::NodeId> cycle;  ///< the cycle, first node repeated last
};

CommAnalysis analyze_comm(const occam::CommSpec& spec);

}  // namespace fpst::check
