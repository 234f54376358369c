// Occam-flavoured runtime for programming the simulated T Series.
//
// The paper (§II "Control") emphasises that the node language, Occam,
// "directly provides for the execution of parallel, communicating
// processes". This runtime reproduces that programming model on the host
// side: you give every node a coroutine body, bodies exchange messages over
// the cube links, and the SEQ/PAR/ALT structure of Occam maps onto
// sequential co_await, sim::WhenAll and Mailbox::recv_any.
//
// Message transport is faithful to the machine: a message travels as one
// link packet per hop under deterministic e-cube routing; intermediate
// nodes store-and-forward in software (a router daemon per node charging
// control-processor time per forwarded packet), because the hardware has
// neighbour links only. Collectives (barrier, broadcast, reduce, allreduce)
// are the standard binomial-tree / dimension-exchange algorithms from
// net/hypercube.hpp, expressed as per-node code.
//
// A message's doubles are its packet's payload words: the vector a body
// hands to send travels, uncopied, into the receiving node's mailbox and
// then into the vector recv fills. The packet's src names the originating
// node, and the wire charges the 4-byte source word the node software
// frames each message with: 4 + 8n payload bytes for n doubles.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "core/machine.hpp"
#include "net/hypercube.hpp"
#include "node/node.hpp"
#include "occam/commspec.hpp"
#include "sim/pinned_array.hpp"
#include "sim/proc.hpp"
#include "sim/sync.hpp"

namespace fpst::occam {

/// Occam PAR: run child processes concurrently, join all.
using Par = sim::WhenAll;

/// Thrown by Runtime::run when the simulation drains with node bodies still
/// blocked — a communication deadlock in the program.
class DeadlockError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A delivered message.
struct Msg {
  net::NodeId src = 0;
  std::uint16_t tag = 0;
  /// tscope trace id (0 when the run is not perf-enabled).
  std::uint32_t trace = 0;
  std::vector<double> data;
};

/// A node's messaging statistics (perf/sink.hpp): messages injected and
/// delivered, and transit packets it forwarded.
inline constexpr perf::FieldTable kFields{
    {"msgs_sent"}, {"msgs_recv"}, {"pkts_forwarded"}};
/// kFields' cells.
enum Stat : std::size_t { kMsgsSent, kMsgsRecv, kPktsForwarded };

/// Runtime tuning knobs (software costs on the control processor).
struct RtParams {
  /// CP instructions to packetise/depacketise one message.
  static constexpr std::uint64_t kSendInstr = 60;
  /// CP instructions to examine and forward one transit packet.
  static constexpr std::uint64_t kForwardInstr = 60;
};

class Runtime;

/// Per-node execution context handed to node bodies.
class Ctx {
 public:
  net::NodeId id() const { return id_; }
  std::size_t size() const;
  int dimension() const;
  node::Node& node();
  core::TSeries& machine();

  // ---- point-to-point messaging (multi-hop, e-cube routed) ----
  // A body's tags must be user tags, 0 .. 0x7FFF (occam/commspec.hpp's
  // is_user_tag): the collectives below tag their messages from 0x8000 up,
  // and a receive takes the oldest message that matches its source and
  // tag, so a user message tagged in that range could be consumed by a
  // collective. The runtime does not check; CommSpec and tcheck do.
  sim::Proc send(net::NodeId dst, std::uint16_t tag,
                 std::vector<double> data);
  /// Receive the oldest message matching (src, tag).
  sim::Proc recv(net::NodeId src, std::uint16_t tag, std::vector<double>* out);
  /// Occam ALT: wait for the first message with tag `tag` from any source.
  sim::Proc recv_any(std::uint16_t tag, Msg* out);

  // ---- collectives (log2 N steps on the cube) ----
  sim::Proc barrier();
  /// Root's `data` is distributed to every node's `data`.
  sim::Proc broadcast(net::NodeId root, std::vector<double>* data);
  /// Sum-reduce `*x` to the root (other nodes' *x become partial garbage).
  sim::Proc reduce_sum(net::NodeId root, double* x);
  /// Dimension-exchange allreduce: every node ends with the global sum.
  sim::Proc allreduce_sum(double* x);
  /// Vector allreduce (elementwise sums).
  sim::Proc allreduce_sum(std::vector<double>* xs);
  /// Max-allreduce on (value, payload) pairs: every node ends with the
  /// globally largest value and its payload (ties: smaller payload). Used
  /// for global pivot selection.
  sim::Proc allreduce_max(double* value, double* payload);

 private:
  friend class Runtime;
  Ctx(Runtime& rt, net::NodeId id) : rt_{&rt}, id_{id} {}

  /// Send `*out` (moving it away) to the neighbour across `dim` while
  /// receiving the neighbour's message into `*in`.
  sim::Proc exchange(int dim, std::uint16_t tag, std::vector<double>* out,
                     std::vector<double>* in);
  std::uint16_t internal_tag();

  Runtime* rt_;
  net::NodeId id_;
  std::uint32_t internal_seq_ = 0;
};

class Runtime {
 public:
  explicit Runtime(core::TSeries& machine);

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  using Body = std::function<sim::Proc(Ctx&)>;

  /// Run `body` on every node (Occam PAR over the whole machine) and drive
  /// the simulation until everything completes. Returns elapsed simulated
  /// time for the program. On a sharded machine (TSeries built over a
  /// ParallelSim) every node body, mailbox and router daemon lives on its
  /// node's shard simulator and the run is driven by the parallel engine.
  sim::SimTime run(const Body& body);

  /// Run a distinct body per node.
  sim::SimTime run(const std::vector<Body>& bodies);

  core::TSeries& machine() { return *machine_; }
  Ctx& ctx(net::NodeId id) { return ctxs_.at(id); }

  /// Messages forwarded in transit (router workload), for the benches.
  std::uint64_t packets_forwarded() const;

 private:
  friend class Ctx;

  /// A node's delivered messages, oldest first. A consumed message's slot
  /// takes a later arrival, so a warm mailbox allocates nothing, and a
  /// receive unlinks its match wherever it waits.
  class Mailbox {
   public:
    explicit Mailbox(sim::Simulator& sim) : arrived{sim} {}

    void push(Msg m);
    /// Move the data of the oldest message from `src` tagged `tag` into
    /// *out; false when none waits.
    bool take(net::NodeId src, std::uint16_t tag, std::vector<double>* out);
    /// Move the oldest message tagged `tag` into *out; false when none
    /// waits.
    bool take_any(std::uint16_t tag, Msg* out);

    sim::Event arrived;

   private:
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};
    struct Slot {
      Msg msg;
      std::uint32_t next = kNone;
    };

    /// Unlink the oldest message `match` accepts and free its slot, whose
    /// message stays readable until the next push; kNone when none does.
    template <class Match>
    std::uint32_t unlink(Match match);

    std::vector<Slot> slots_;
    std::uint32_t head_ = kNone;  ///< oldest message
    std::uint32_t tail_ = kNone;  ///< newest message
    std::uint32_t free_ = kNone;  ///< consumed slots, linked through next
  };

  sim::Proc router_listener(net::NodeId at, int dim);
  void start_routers();
  /// Put packet `p`, addressed to node `at`, in that node's mailbox.
  void deliver(net::NodeId at, link::Packet& p);
  /// Send `data` (moving it away) from `from` to `dst`; `data` must
  /// outlive the process.
  sim::Proc send_packet(net::NodeId from, net::NodeId dst, std::uint16_t tag,
                        std::vector<double>&& data);
  std::uint32_t alloc_trace(net::NodeId from);
  sim::SimTime run_parallel(const std::vector<Body>& bodies);
  /// Node `at`'s occam track, or null while perf is off. The node's
  /// statistics count into it from the first call, its first message.
  perf::PerfSink* occam_track(net::NodeId at);

  core::TSeries* machine_;
  std::vector<Ctx> ctxs_;
  sim::PinnedArray<Mailbox> mailboxes_;
  bool routers_started_ = false;
  /// Next tscope trace id; assigned at injection when perf is attached.
  /// Starts at 1 so 0 can mean "untraced" in link::Packet. Serial runs
  /// draw from this global counter (kept for byte-identical dumps);
  /// parallel runs use the per-source scheme in alloc_trace so ids stay
  /// monotonic per source without a cross-thread counter.
  std::uint32_t next_trace_ = 1;
  /// Parallel trace allocation: per-source message sequence numbers. Entry
  /// n is written only by node n's shard worker.
  std::vector<std::uint32_t> per_node_seq_;
  /// Per-node statistics; entry n is written only by node n's shard.
  std::vector<perf::Stats<kFields>> stats_;
  /// Per-node occam tracks for spans, resolved once instead of per message;
  /// empty while perf is off. Sharded runs fill every entry before the
  /// workers start (a lazy fill from shard threads would race on the
  /// registry). Serial runs fill an entry on the node's first message, so
  /// nodes that never communicate grow no track and serial dumps keep
  /// their bytes.
  std::vector<perf::PerfSink*> occam_tracks_;
};

}  // namespace fpst::occam
