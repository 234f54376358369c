#include "link/link.hpp"

#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace fpst::link {

namespace {

/// Receiver-side half of a cross-shard transfer: performs the rendezvous
/// into the inbox locally on the destination shard, buffering the packet in
/// its own frame until a receiver arrives.
sim::Proc cross_deliver(sim::Channel<Packet>& box, Packet p) {
  co_await box.send(std::move(p));
}

/// "busy.sublink<k>": the per-sublink busy accumulator's counter name.
static_assert(LinkParams::kSublinksPerLink == 4);
constexpr std::array<std::string_view, LinkParams::kSublinksPerLink>
    kSublinkBusy = {"busy.sublink0", "busy.sublink1", "busy.sublink2",
                    "busy.sublink3"};

/// One side's inbox channels, built in place: a Channel cannot move.
std::array<sim::Channel<Packet>, LinkParams::kSublinksPerLink> make_inboxes(
    sim::Simulator& sim) {
  return {{sim::Channel<Packet>{sim}, sim::Channel<Packet>{sim},
           sim::Channel<Packet>{sim}, sim::Channel<Packet>{sim}}};
}

}  // namespace

void TxDirection::sent(sim::SimTime start, sim::SimTime elapsed,
                       std::uint64_t wire_bytes, std::uint64_t payload_bytes,
                       int sublink, std::uint32_t trace, std::uint32_t dst) {
  bytes += wire_bytes;
  ++packets;
  busy += elapsed;
  perf::PerfSink* sink = perf_.sink();
  if (sink == nullptr) {
    return;
  }
  Slots& s = perf_.slots();
  s.bytes.add(*sink, "bytes", wire_bytes);
  s.payload_bytes.add(*sink, "payload_bytes", payload_bytes);
  s.packets.add(*sink, "packets", 1);
  // Two acknowledge bits return per byte sent (13 bit times per byte).
  s.acks.add(*sink, "acks", 2 * wire_bytes);
  s.dma_starts.add(*sink, "dma_starts", 1);
  s.busy.add(*sink, "busy", elapsed);
  const auto k = static_cast<std::size_t>(sublink);
  s.sublink_busy[k].add(*sink, kSublinkBusy[k], elapsed);
  sink->record({.start = start,
                .duration = elapsed,
                .n = payload_bytes,
                .trace = trace,
                .peer = dst,
                .kind = perf::SpanKind::link_tx});
}

Link::Link(sim::Simulator& sim)
    : sim_{&sim, &sim},
      dir_{{TxDirection{sim}, TxDirection{sim}}},
      inboxes_{{make_inboxes(sim), make_inboxes(sim)}} {}

Link::Link(sim::ParallelSim& psim, int shard0, int shard1)
    : psim_{&psim},
      shard_{shard0, shard1},
      sim_{&psim.shard(shard0), &psim.shard(shard1)},
      dir_{{TxDirection{*sim_[0]}, TxDirection{*sim_[1]}}},
      inboxes_{{make_inboxes(*sim_[0]), make_inboxes(*sim_[1])}} {}

sim::Proc Link::transmit(int from_side, Packet p) {
  if (from_side != 0 && from_side != 1) {
    throw std::logic_error("Link::transmit: bad side");
  }
  if (p.sublink >= LinkParams::kSublinksPerLink) {
    throw std::logic_error("Link::transmit: bad sublink");
  }
  return psim_ == nullptr ? rendezvous(from_side, std::move(p))
                          : post(from_side, std::move(p));
}

sim::Proc Link::rendezvous(int from_side, Packet p) {
  TxDirection& d = dir_[static_cast<std::size_t>(from_side)];
  const int to_side = 1 - from_side;
  // One DMA at a time per direction; sublinks queue FIFO and thereby share
  // the physical bandwidth.
  co_await d.mutex.acquire();
  const sim::SimTime start = (co_await sim::ThisSim{}).now();
  co_await sim::Delay{LinkParams::dma_startup()};
  co_await sim::Delay{LinkParams::wire_time(p.payload.size())};
  const sim::SimTime elapsed = (co_await sim::ThisSim{}).now() - start;
  d.sent(start, elapsed, p.wire_bytes(), p.payload.size(), p.sublink,
         p.trace, p.dst);
  const int sub = p.sublink;
  sim::Channel<Packet>& box = inbox(to_side, sub);
  d.mutex.release();  // the wire frees as soon as the last ack returns
  co_await box.send(std::move(p));
}

sim::Proc Link::post(int from_side, Packet p) {
  TxDirection& d = dir_[static_cast<std::size_t>(from_side)];
  const int to_side = 1 - from_side;
  co_await d.mutex.acquire();
  const sim::SimTime start = (co_await sim::ThisSim{}).now();
  const sim::SimTime elapsed = LinkParams::transfer_time(p.payload.size());
  const auto wire = static_cast<std::uint64_t>(p.wire_bytes());
  const std::size_t payload_bytes = p.payload.size();
  const std::uint32_t trace = p.trace;
  const std::uint32_t dst = p.dst;
  const int sub = p.sublink;
  // Post the arrival *now*, at send start: it lands at start + transfer
  // time, which is at least the engine lookahead in the future, so the
  // conservative window can never admit it early. The packet itself rides
  // in the closure; trace is the deterministic same-instant merge key.
  {
    sim::Channel<Packet>& box = inbox(to_side, sub);
    sim::Simulator& dest = *sim_[static_cast<std::size_t>(to_side)];
    psim_->post(shard_[static_cast<std::size_t>(from_side)],
                shard_[static_cast<std::size_t>(to_side)], start + elapsed,
                trace, [&dest, &box, pkt = std::move(p)]() mutable {
                  dest.spawn(cross_deliver(box, std::move(pkt)));
                });
  }
  co_await sim::Delay{elapsed};
  d.sent(start, elapsed, wire, payload_bytes, sub, trace, dst);
  d.mutex.release();
}

sim::Channel<Packet>& Link::inbox(int side, int sublink) {
  return inboxes_[static_cast<std::size_t>(side)]
                 [static_cast<std::size_t>(sublink)];
}

std::uint64_t Link::bytes_sent(int direction) const {
  return dir_[static_cast<std::size_t>(direction)].bytes;
}

sim::SimTime Link::busy_time(int direction) const {
  return dir_[static_cast<std::size_t>(direction)].busy;
}

std::uint64_t Link::packets_sent(int direction) const {
  return dir_[static_cast<std::size_t>(direction)].packets;
}

const NodeLinks::PortRef& NodeLinks::port_at(int port, const char* who) const {
  if (port < 0 || port >= LinkParams::kPhysicalLinks) {
    throw std::logic_error(std::string(who) + ": bad port");
  }
  return ports_[static_cast<std::size_t>(port)];
}

void NodeLinks::attach(int port, Link& cable, int side) {
  if (port < 0 || port >= LinkParams::kPhysicalLinks) {
    throw std::logic_error("NodeLinks::attach: bad port");
  }
  ports_[static_cast<std::size_t>(port)] = PortRef{&cable, side};
}

bool NodeLinks::attached(int port) const {
  return port_at(port, "NodeLinks::attached").cable != nullptr;
}

int NodeLinks::attached_count() const {
  int n = 0;
  for (const PortRef& p : ports_) {
    n += (p.cable != nullptr) ? 1 : 0;
  }
  return n;
}

sim::Proc NodeLinks::send(int port, Packet p) {
  const PortRef ref = port_at(port, "NodeLinks::send");
  if (ref.cable == nullptr) {
    throw std::logic_error("NodeLinks::send: port not wired");
  }
  co_await ref.cable->transmit(ref.side, std::move(p));
}

sim::Channel<Packet>& NodeLinks::inbox(int port, int sublink) {
  const PortRef ref = port_at(port, "NodeLinks::inbox");
  if (ref.cable == nullptr) {
    throw std::logic_error("NodeLinks::inbox: port not wired");
  }
  return ref.cable->inbox(ref.side, sublink);
}

}  // namespace fpst::link
