// The T Series inter-node communication links (paper §II "Communications").
//
// Each control processor drives four serial, bidirectional links. Every
// 8-bit byte travels with two synchronisation bits and one stop bit (11 bit
// times) and requires two acknowledge bits from the receiver before the next
// byte — 13 bit times per byte in all, giving a maximum unidirectional
// bandwidth of ~0.5 MB/s per link (so a 64-bit word costs 16 us, the "130"
// in the paper's 1:13:130 balance ratio). Links operate by DMA with a
// startup of about 5 us and are multiplexed four ways in software, for 16
// bidirectional sublinks per node.
//
// Model: a Link is a full-duplex cable between two node ports. Each
// direction is an exclusive resource; concurrent sends on the same
// direction (e.g. from different sublinks) queue FIFO, which is exactly the
// "sublinks divide the available bandwidth" behaviour. Delivery demuxes on
// the packet's sublink number into per-sublink rendezvous channels, and the
// cable's two ports may live on different shards of the parallel engine
// (see Link).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "perf/sink.hpp"
#include "sim/parallel_sim.hpp"
#include "sim/proc.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "sim/time.hpp"

namespace fpst::link {

/// §II communications constants.
struct LinkParams {
  static constexpr int kPhysicalLinks = 4;   // per node
  static constexpr int kSublinksPerLink = 4;  // 4-way multiplex
  static constexpr int kSublinksPerNode = kPhysicalLinks * kSublinksPerLink;
  /// 8 data + 2 sync + 1 stop bits out, 2 ack bits back.
  static constexpr int kBitTimesPerByte = 13;
  /// Effective byte period: 2 us => 0.5 MB/s unidirectional.
  static constexpr sim::SimTime byte_time() {
    return sim::SimTime::nanoseconds(2000);
  }
  /// DMA startup ("about 5 us").
  static constexpr sim::SimTime dma_startup() {
    return sim::SimTime::microseconds(5);
  }
  /// Per-packet wire header: source, destination, tag, sublink, length.
  static constexpr std::size_t kHeaderBytes = 8;

  static constexpr double unidir_bandwidth_mb_s() {
    return 1.0 / byte_time().us();  // 0.5 MB/s
  }
  /// Wire time for a payload of n bytes (excluding DMA startup).
  static constexpr sim::SimTime wire_time(std::size_t payload_bytes) {
    return static_cast<std::int64_t>(payload_bytes + kHeaderBytes) *
           byte_time();
  }
  /// Full cost of one DMA message.
  static constexpr sim::SimTime transfer_time(std::size_t payload_bytes) {
    return dma_startup() + wire_time(payload_bytes);
  }
};

/// One message travelling over a link. Payload is raw bytes; higher layers
/// (net/occam) define their own framing inside it.
struct Packet {
  std::uint32_t src = 0;  ///< originating node id
  std::uint32_t dst = 0;  ///< final destination node id (multi-hop routing)
  std::uint16_t tag = 0;  ///< user message tag
  std::uint8_t sublink = 0;  ///< receive-side demux (0..3)
  std::uint8_t hops = 0;     ///< forwarding count, maintained by the router
  /// tscope trace id (0 = untraced). Side-band simulator metadata — not part
  /// of the wire format, so it never contributes to wire_bytes() or timing.
  std::uint32_t trace = 0;
  std::vector<std::uint8_t> payload;

  std::size_t wire_bytes() const {
    return payload.size() + LinkParams::kHeaderBytes;
  }
};

/// A link engine's statistics (perf/sink.hpp): bytes on the wire (headers
/// included) and of payload, packets, acknowledge bits, DMA starts, and
/// busy time in all and per sublink.
inline constexpr perf::FieldTable kFields{
    {"bytes"}, {"payload_bytes"}, {"packets"}, {"acks"}, {"dma_starts"},
    {"busy", perf::Field::time}, {"busy.sublink0", perf::Field::time},
    {"busy.sublink1", perf::Field::time}, {"busy.sublink2", perf::Field::time},
    {"busy.sublink3", perf::Field::time}};
/// kFields' cells; kBusySublink + k is sublink k's busy time.
enum Stat : std::size_t { kBytes, kPayloadBytes, kPackets, kAcks, kDmaStarts,
                          kBusy, kBusySublink };
static_assert(kFields.size() == kBusySublink + LinkParams::kSublinksPerLink);
using LinkStats = perf::Stats<kFields>;

/// One transmit direction of a cable: the wire's FIFO mutex, where it
/// counts, and the track its tx spans go to. Link holds both directions
/// inline, so attaching a whole machine touches no separate allocation per
/// direction.
class TxDirection {
 public:
  explicit TxDirection(sim::Simulator& sim) : mutex{sim, 1} {}

  /// Account one packet that held the wire for [start, start + elapsed):
  /// the statistics and, while perf is attached, the tx span.
  void sent(sim::SimTime start, sim::SimTime elapsed,
            std::uint64_t wire_bytes, std::uint64_t payload_bytes,
            int sublink, std::uint32_t trace, std::uint32_t dst);

  sim::Semaphore mutex;
  /// The direction's own cells on a standalone cable; in a machine, the
  /// sending node's port cells, which every cable on that port shares.
  LinkStats stats;
  /// The sending node's link track for tx spans; null while perf is off.
  perf::PerfSink* track = nullptr;
};

/// A full-duplex cable between two link ports. Side 0 and side 1 each own an
/// independent transmit direction, an exclusive FIFO resource charging DMA
/// startup + wire time. Wire timing and statistics do not depend on where
/// the two ports live; the hand-off to the receiver does:
///
///   * Both ports on one simulator: rendezvous. The packet is offered to
///     the receiving side's per-sublink inbox, and the send completes when
///     the receiver takes it — the transputer's byte-level acknowledge.
///   * Ports on different shards of a ParallelSim: mailbox post. The
///     arrival is posted through the engine's cross-shard mailbox at send
///     start + transfer_time, and a delivery process spawned on the
///     receiving shard performs the rendezvous into the inbox locally. The
///     sender blocks only for the wire occupancy it would have paid anyway.
///     This is the conservative-PDES relaxation of the rendezvous: a sender
///     cannot wait on a remote receiver without collapsing the lookahead
///     window. Because the arrival is posted at send start, it lands at
///     least transfer_time(0) — the engine's lookahead — in the future, so
///     no epoch ever admits it early.
class Link {
 public:
  /// Both sides on `sim`.
  explicit Link(sim::Simulator& sim);
  /// Side 0 lives on `shard0`'s simulator, side 1 on `shard1`'s.
  Link(sim::ParallelSim& psim, int shard0, int shard1);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Transmit `p` from `from_side` (0/1): acquires that direction, charges
  /// DMA startup + wire time, then hands the packet to the receiving side's
  /// per-sublink inbox. Runs on the sending side's simulator; co_await the
  /// returned Proc. Throws std::logic_error for a bad side or sublink.
  sim::Proc transmit(int from_side, Packet p);

  /// Inbox of `side` for packets arriving addressed to `sublink` (a channel
  /// on that side's simulator).
  sim::Channel<Packet>& inbox(int side, int sublink);

  /// Count `side`'s transmissions wherever `port` counts (its node port's
  /// statistics) and record their tx spans on `track` (null: none).
  void attach(int side, const LinkStats& port, perf::PerfSink* track) {
    TxDirection& d = dir_[static_cast<std::size_t>(side)];
    d.stats.attach(port);
    d.track = track;
  }

  // --- statistics per direction (0: side0->side1, 1: side1->side0); on a
  // machine's cable, those of the sending node's port ---
  std::uint64_t bytes_sent(int d) const { return stats(d).count(kBytes); }
  sim::SimTime busy_time(int d) const { return stats(d).time(kBusy); }
  std::uint64_t packets_sent(int d) const { return stats(d).count(kPackets); }

 private:
  /// Same-simulator hand-off: the sender blocks until the receiver takes
  /// the packet.
  sim::Proc rendezvous(int from_side, Packet p);
  /// Cross-shard hand-off: the arrival travels through the engine mailbox.
  sim::Proc post(int from_side, Packet p);
  const LinkStats& stats(int d) const {
    return dir_[static_cast<std::size_t>(d)].stats;
  }

  /// The sharded engine, or null when both sides share one simulator.
  sim::ParallelSim* psim_ = nullptr;
  std::array<int, 2> shard_{};
  std::array<sim::Simulator*, 2> sim_{};
  // A direction's mutex belongs to the *sending* side's simulator; the
  // receiving channels belong to the side that reads them.
  std::array<TxDirection, 2> dir_;
  // inboxes_[side][sublink]: the channels on which `side` receives.
  std::array<std::array<sim::Channel<Packet>, LinkParams::kSublinksPerLink>,
             2>
      inboxes_;
};

/// The four link ports of one node, wired to Links by the topology builder.
/// Port p of this node is some side of some Link; sends and inboxes are
/// addressed (port, sublink). Every call rejects a port outside
/// [0, kPhysicalLinks) with std::logic_error ("...: bad port") — a TISA
/// hard-channel word carries a 4-bit port, so programs can name ports 4-15.
class NodeLinks {
 public:
  NodeLinks() = default;

  void attach(int port, Link& cable, int side);
  bool attached(int port) const;
  /// Number of ports wired to cables.
  int attached_count() const;

  /// Send via a port. The Proc fails with std::logic_error when the port
  /// is bad or not wired.
  sim::Proc send(int port, Packet p);
  /// Throws std::logic_error when the port is bad or not wired.
  sim::Channel<Packet>& inbox(int port, int sublink);

 private:
  struct PortRef {
    Link* cable = nullptr;
    int side = 0;
  };

  /// Range-checked ports_[port]; `who` prefixes the error.
  const PortRef& port_at(int port, const char* who) const;

  std::array<PortRef, LinkParams::kPhysicalLinks> ports_{};
};

}  // namespace fpst::link
