// Declarative communication skeletons for Occam programs.
//
// A CommSpec states, per node, the sequence of communications a node body
// performs — sends, receives, and collectives — without any of the
// computation. It mirrors the Ctx messaging API one-for-one (send/recv/
// recv_any/barrier/broadcast/reduce_sum/allreduce_sum), so writing the
// spec next to the body is mechanical, and the static deadlock checker in
// check/chan_graph.hpp can prove the communication structure sound before
// a single simulated cycle runs. The checker lowers collectives with the
// exact binomial-tree / dimension-exchange schedules occam.cpp executes,
// including the per-node collective tag counter, so tag-skew bugs (one
// node running a different number of collectives than another) are caught
// too. The tag space itself is defined here, once, for the runtime and
// the checkers (collective_tag, is_user_tag).
//
// The textual `.comm` form consumed by tools/tcheck is parsed by
// parse_comm_spec:
//
//   # one line per node; ops separated by ';'
//   dim 2
//   budget 4096          # optional: per-cube-edge wire-byte budget
//   0: send 1 7 ; recv 1 7 ; barrier
//   1: recv 0 7 16 ; send 0 7 ; barrier
//   2: barrier
//   3: barrier
//
// Ops: send <dst> <tag> [elems] | recv <src> <tag> [elems] |
//      recvany <tag> | barrier | bcast <root> | reduce <root> | allreduce.
//      A tag is a user tag, 0 .. 0x7FFF (is_user_tag below).
//      `elems` is the payload size in 64-bit elements (default 1); it
//      feeds the static per-edge volume analysis (check/comm_volume.hpp)
//      and the send/recv payload-consistency check. Unlisted nodes run an
//      empty body.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/hypercube.hpp"

namespace fpst::occam {

enum class CommKind : std::uint8_t {
  kSend,
  kRecv,
  kRecvAny,
  kBarrier,
  kBroadcast,
  kReduce,
  kAllreduce,
};

/// The message tag space, the one definition the runtime, its static
/// checkers and the spec builder share. User messages carry tags 0 ..
/// 0x7FFF; a node's n-th collective call carries kCollectiveTagBase | n
/// (n mod 0x8000), so no user message can match a collective's receive.
inline constexpr std::uint16_t kCollectiveTagBase = 0x8000;
inline constexpr bool is_user_tag(std::uint32_t tag) {
  return tag < kCollectiveTagBase;
}
inline constexpr std::uint16_t collective_tag(std::uint32_t n) {
  return static_cast<std::uint16_t>(kCollectiveTagBase |
                                    (n % kCollectiveTagBase));
}

/// Payload size (64-bit elements) assumed when an op does not declare one:
/// one double, matching the scalar exchanges the collectives perform.
inline constexpr std::uint32_t kDefaultElems = 1;

struct CommOp {
  CommKind kind;
  net::NodeId peer = 0;    ///< dst (send), src (recv), root (collectives)
  std::uint16_t tag = 0;   ///< user tag (is_user_tag); unused for collectives
  std::uint32_t elems = kDefaultElems;  ///< payload, 64-bit elements
  std::size_t line = 0;    ///< 1-based `.comm` source line (0 = built in C++)
};

/// Human-readable form, e.g. "send(dst=1, tag=7)" or "barrier".
std::string to_string(const CommOp& op);

class CommSpecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class CommSpec {
 public:
  /// A spec for a 2^dimension-node cube, every node initially empty.
  explicit CommSpec(int dimension);

  /// Builder handle for one node's sequence; methods mirror occam::Ctx.
  /// They throw CommSpecError for a node out of range, an empty payload or
  /// a tag in the collective range.
  class NodeSeq {
   public:
    NodeSeq& send(net::NodeId dst, std::uint16_t tag,
                  std::uint32_t elems = kDefaultElems);
    NodeSeq& recv(net::NodeId src, std::uint16_t tag,
                  std::uint32_t elems = kDefaultElems);
    NodeSeq& recv_any(std::uint16_t tag);
    NodeSeq& barrier();
    NodeSeq& broadcast(net::NodeId root);
    NodeSeq& reduce_sum(net::NodeId root);
    NodeSeq& allreduce_sum();

   private:
    friend class CommSpec;
    NodeSeq(CommSpec& spec, net::NodeId id) : spec_{&spec}, id_{id} {}
    CommSpec* spec_;
    net::NodeId id_;
  };

  NodeSeq node(net::NodeId id);

  int dimension() const { return dim_; }
  std::size_t size() const { return ops_.size(); }
  const std::vector<CommOp>& ops(net::NodeId id) const {
    return ops_.at(id);
  }

  /// Optional per-cube-edge wire-byte budget (the `budget` directive);
  /// enforced by check/comm_volume.hpp when set.
  std::optional<std::uint64_t> edge_budget() const { return edge_budget_; }
  void set_edge_budget(std::uint64_t bytes) { edge_budget_ = bytes; }

 private:
  friend CommSpec parse_comm_spec(const std::string& text);
  void append(net::NodeId id, CommOp op);
  void check_node(net::NodeId id) const;

  int dim_;
  std::vector<std::vector<CommOp>> ops_;
  std::optional<std::uint64_t> edge_budget_;
};

/// Parse the `.comm` text format (see file header). Throws CommSpecError
/// with a line-numbered message on malformed input. Every parsed op
/// records its 1-based source line so downstream analyses can report
/// file:line diagnostics.
CommSpec parse_comm_spec(const std::string& text);

}  // namespace fpst::occam
