#include "occam/occam.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>

namespace fpst::occam {

namespace {

/// Wire format inside a packet payload: [orig_src u32][doubles...]. The
/// Packet's own src field is rewritten hop by hop, so the originating node
/// travels in-band.
std::vector<std::uint8_t> encode_payload(net::NodeId src,
                                         const std::vector<double>& data) {
  std::vector<std::uint8_t> bytes(4 + 8 * data.size());
  std::memcpy(bytes.data(), &src, 4);
  if (!data.empty()) {
    std::memcpy(bytes.data() + 4, data.data(), 8 * data.size());
  }
  return bytes;
}

Msg decode_payload(const link::Packet& p) {
  Msg m;
  m.tag = p.tag;
  m.trace = p.trace;
  if (p.payload.size() < 4 || (p.payload.size() - 4) % 8 != 0) {
    throw std::runtime_error("occam: malformed packet payload");
  }
  std::memcpy(&m.src, p.payload.data(), 4);
  m.data.resize((p.payload.size() - 4) / 8);
  if (!m.data.empty()) {
    std::memcpy(m.data.data(), p.payload.data() + 4, 8 * m.data.size());
  }
  return m;
}

int first_route_dim(net::NodeId at, net::NodeId dst) {
  return std::countr_zero(at ^ dst);  // e-cube: lowest differing dimension
}

}  // namespace

std::size_t Ctx::size() const { return rt_->machine_->size(); }
int Ctx::dimension() const { return rt_->machine_->dimension(); }
node::Node& Ctx::node() { return rt_->machine_->node(id_); }
core::TSeries& Ctx::machine() { return *rt_->machine_; }

std::uint16_t Ctx::internal_tag() {
  return static_cast<std::uint16_t>(0x8000u | (internal_seq_++ & 0x7FFFu));
}

sim::Proc Ctx::send(net::NodeId dst, std::uint16_t tag,
                    std::vector<double> data) {
  co_await rt_->send_packet(id_, dst, tag, std::move(data));
}

sim::Proc Ctx::recv(net::NodeId src, std::uint16_t tag,
                    std::vector<double>* out) {
  Runtime::Mailbox& box = *rt_->mailboxes_[id_];
  for (;;) {
    for (auto it = box.queue.begin(); it != box.queue.end(); ++it) {
      if (it->src == src && it->tag == tag) {
        *out = std::move(it->data);
        box.queue.erase(it);
        co_return;
      }
    }
    co_await box.arrived.wait();
  }
}

sim::Proc Ctx::recv_any(std::uint16_t tag, Msg* out) {
  Runtime::Mailbox& box = *rt_->mailboxes_[id_];
  for (;;) {
    for (auto it = box.queue.begin(); it != box.queue.end(); ++it) {
      if (it->tag == tag) {
        *out = std::move(*it);
        box.queue.erase(it);
        co_return;
      }
    }
    co_await box.arrived.wait();
  }
}

sim::Proc Ctx::exchange(int dim, std::uint16_t tag,
                        std::vector<double> out_data,
                        std::vector<double>* in_data) {
  const net::NodeId peer = rt_->machine_->cube().neighbor(id_, dim);
  co_await Par{send(peer, tag, std::move(out_data)),
               recv(peer, tag, in_data)};
}

sim::Proc Ctx::barrier() {
  const std::uint16_t tag = internal_tag();
  for (int k = 0; k < dimension(); ++k) {
    std::vector<double> token(1, 0.0);
    std::vector<double> dummy_in;
    co_await exchange(k, tag, std::move(token), &dummy_in);
  }
}

sim::Proc Ctx::broadcast(net::NodeId root, std::vector<double>* data) {
  const std::uint16_t tag = internal_tag();
  const std::uint32_t rel = id_ ^ root;
  int first_send_dim = 0;
  if (rel != 0) {
    const int j = static_cast<int>(std::bit_width(rel)) - 1;  // arrival dim
    co_await recv(id_ ^ (net::NodeId{1} << j), tag, data);
    first_send_dim = j + 1;
  }
  for (int k = first_send_dim; k < dimension(); ++k) {
    co_await send(id_ ^ (net::NodeId{1} << k), tag, *data);
  }
}

sim::Proc Ctx::reduce_sum(net::NodeId root, double* x) {
  const std::uint16_t tag = internal_tag();
  const std::uint32_t rel = id_ ^ root;
  for (int k = dimension() - 1; k >= 0; --k) {
    const std::uint32_t bit = std::uint32_t{1} << k;
    if (rel < bit) {
      std::vector<double> partial;
      co_await recv(id_ ^ bit, tag, &partial);
      *x += partial.at(0);
    } else if (rel < 2 * bit) {
      std::vector<double> partial(1, *x);
      co_await send(id_ ^ bit, tag, std::move(partial));
      co_return;  // this node's part is merged upstream
    }
  }
}

sim::Proc Ctx::allreduce_sum(double* x) {
  std::vector<double> xs{*x};
  co_await allreduce_sum(&xs);
  *x = xs[0];
}

sim::Proc Ctx::allreduce_sum(std::vector<double>* xs) {
  const std::uint16_t tag = internal_tag();
  for (int k = 0; k < dimension(); ++k) {
    std::vector<double> in;
    co_await exchange(k, tag, *xs, &in);
    for (std::size_t i = 0; i < xs->size(); ++i) {
      (*xs)[i] += in.at(i);
    }
  }
}

sim::Proc Ctx::allreduce_max(double* value, double* payload) {
  const std::uint16_t tag = internal_tag();
  for (int k = 0; k < dimension(); ++k) {
    std::vector<double> out(2);
    out[0] = *value;
    out[1] = *payload;
    std::vector<double> in;
    co_await exchange(k, tag, std::move(out), &in);
    if (in.at(0) > *value ||
        (in.at(0) == *value && in.at(1) < *payload)) {
      *value = in[0];
      *payload = in[1];
    }
  }
}

Runtime::Runtime(core::TSeries& machine) : machine_{&machine} {
  per_node_seq_.resize(machine_->size(), 0);
  for (net::NodeId id = 0; id < machine_->size(); ++id) {
    ctxs_.push_back(std::unique_ptr<Ctx>(new Ctx(*this, id)));
    // Each node's mailbox signals on that node's shard simulator (the
    // single simulator when the machine is serial).
    mailboxes_.push_back(std::make_unique<Mailbox>(machine_->sim_for(id)));
  }
}

Runtime::OccamTrack* Runtime::occam_track(net::NodeId at) {
  if (occam_tracks_.empty()) {
    return nullptr;
  }
  OccamTrack& t = occam_tracks_[at];
  if (t.sink() == nullptr) {
    t.attach(&machine_->perf()->track(at, "occam"));
  }
  return &t;
}

void Runtime::deliver(net::NodeId at, Msg m) {
  if (OccamTrack* t = occam_track(at)) {
    t->slots().recv.add(*t->sink(), "msgs_recv", 1);
    if (m.trace != 0) {
      t->sink()->record({.start = machine_->sim_for(at).now(),
                         .trace = m.trace,
                         .peer = m.src,
                         .kind = perf::SpanKind::msg_deliver});
    }
  }
  Mailbox& box = *mailboxes_[at];
  box.queue.push_back(std::move(m));
  box.arrived.notify_all();
}

sim::Proc Runtime::send_packet(net::NodeId from, net::NodeId dst,
                               std::uint16_t tag, std::vector<double> data) {
  // Packetisation is control-processor work.
  co_await machine_->node(from).cp_work(RtParams::kSendInstr);
  std::uint32_t trace = 0;
  if (OccamTrack* t = occam_track(from)) {
    t->slots().sent.add(*t->sink(), "msgs_sent", 1);
    // tscope injection marker: id, destination, tag and encoded payload
    // size, in the grammar perf/tscope.hpp documents.
    trace = alloc_trace(from);
    t->sink()->record({.start = machine_->sim_for(from).now(),
                       .n = 4 + 8 * data.size(),
                       .trace = trace,
                       .peer = dst,
                       .tag = tag,
                       .kind = perf::SpanKind::msg_inject});
  }
  if (dst == from) {
    deliver(from, Msg{from, tag, trace, std::move(data)});
    co_return;
  }
  link::Packet p;
  p.dst = dst;
  p.tag = tag;
  p.trace = trace;
  p.payload = encode_payload(from, data);
  co_await machine_->send_dim(from, first_route_dim(from, dst), std::move(p));
}

sim::Proc Runtime::router_listener(net::NodeId at, int dim) {
  for (;;) {
    link::Packet p = co_await machine_->inbox(at, dim).recv();
    if (p.dst == at) {
      co_await machine_->node(at).cp_work(RtParams::kSendInstr);
      deliver(at, decode_payload(p));
      continue;
    }
    // Store-and-forward: inspect and retransmit along the next e-cube
    // dimension; the hop count rides in the packet.
    forwarded_.fetch_add(1, std::memory_order_relaxed);
    ++p.hops;
    if (OccamTrack* t = occam_track(at)) {
      t->slots().forwarded.add(*t->sink(), "pkts_forwarded", 1);
      if (p.trace != 0) {
        t->sink()->record({.start = machine_->sim_for(at).now(),
                           .trace = p.trace,
                           .kind = perf::SpanKind::msg_forward});
      }
    }
    co_await machine_->node(at).cp_work(RtParams::kForwardInstr);
    co_await machine_->send_dim(at, first_route_dim(at, p.dst), std::move(p));
  }
}

std::uint32_t Runtime::alloc_trace(net::NodeId from) {
  if (machine_->parallel() == nullptr) {
    return next_trace_++;
  }
  // Parallel: a shared counter would race (and its values would depend on
  // host thread timing). Instead node n's k-th traced message gets id
  // 1 + n + nodes*k — unique machine-wide, strictly monotonic per source,
  // and a pure function of the program, so dumps stay byte-identical
  // across thread counts.
  const auto nodes = static_cast<std::uint32_t>(machine_->size());
  return 1 + from + nodes * per_node_seq_[from]++;
}

void Runtime::start_routers() {
  if (routers_started_) {
    return;
  }
  routers_started_ = true;
  for (net::NodeId id = 0; id < machine_->size(); ++id) {
    for (int d = 0; d < machine_->dimension(); ++d) {
      machine_->sim_for(id).spawn(router_listener(id, d));
    }
  }
}

namespace {
sim::Proc run_all(const std::vector<Runtime::Body>* bodies,
                  std::vector<std::unique_ptr<Ctx>>* ctxs, bool* done) {
  std::vector<sim::Proc> procs;
  procs.reserve(bodies->size());
  for (std::size_t i = 0; i < bodies->size(); ++i) {
    procs.push_back((*bodies)[i](*(*ctxs)[i]));
  }
  co_await Par{std::move(procs)};
  *done = true;
}

sim::Proc run_one(const Runtime::Body* body, Ctx* ctx,
                  std::atomic<std::size_t>* done) {
  co_await (*body)(*ctx);
  done->fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

sim::SimTime Runtime::run(const Body& body) {
  std::vector<Body> bodies(machine_->size(), body);
  return run(bodies);
}

sim::SimTime Runtime::run(const std::vector<Body>& bodies) {
  if (bodies.size() != machine_->size()) {
    throw std::invalid_argument("Runtime::run: one body per node required");
  }
  occam_tracks_.assign(machine_->perf() != nullptr ? machine_->size() : 0,
                       OccamTrack{});
  if (machine_->parallel() != nullptr) {
    return run_parallel(bodies);
  }
  start_routers();
  sim::Simulator& sim = machine_->simulator();
  const sim::SimTime start = sim.now();
  bool done = false;
  sim.spawn(run_all(&bodies, &ctxs_, &done));
  sim.run();
  if (!done) {
    // The event queue drained with node bodies still suspended: every
    // remaining process is blocked on a recv/send that can never complete.
    throw DeadlockError(
        "occam: program deadlocked — node bodies are blocked on channels "
        "with no matching communication");
  }
  return sim.now() - start;
}

sim::SimTime Runtime::run_parallel(const std::vector<Body>& bodies) {
  sim::ParallelSim& psim = *machine_->parallel();
  // Resolve every node's occam track while still single-threaded.
  for (net::NodeId id = 0; id < occam_tracks_.size(); ++id) {
    occam_track(id);
  }
  start_routers();
  const sim::SimTime start = psim.now();
  std::atomic<std::size_t> done{0};
  for (net::NodeId id = 0; id < machine_->size(); ++id) {
    machine_->sim_for(id).spawn(run_one(&bodies[id], ctxs_[id].get(), &done));
  }
  psim.run();
  if (done.load(std::memory_order_relaxed) != machine_->size()) {
    // Every shard drained and no mail is in flight, yet bodies are still
    // suspended: the same communication deadlock the serial path reports.
    throw DeadlockError(
        "occam: program deadlocked — node bodies are blocked on channels "
        "with no matching communication");
  }
  return psim.now() - start;
}

}  // namespace fpst::occam
