#include "occam/occam.hpp"

#include <atomic>
#include <bit>
#include <stdexcept>
#include <string>

namespace fpst::occam {

namespace {

/// The source word the node software frames every message with: the
/// packet's src carries the node, and the wire still charges the word.
constexpr std::uint32_t kSourceWordBytes = 4;

int first_route_dim(net::NodeId at, net::NodeId dst) {
  return std::countr_zero(at ^ dst);  // e-cube: lowest differing dimension
}

/// xs[i] += in[i] for each element of xs, in index order. Checking the
/// length once, not per element, lets the loop vectorize; the sums are the
/// same element-wise adds.
void add_into(std::vector<double>* xs, const std::vector<double>& in) {
  const std::size_t n = xs->size();
  if (in.size() < n) {
    std::string what = "occam: allreduce_sum: a neighbour's vector holds ";
    what += std::to_string(in.size());
    what += " values, fewer than this node's ";
    what += std::to_string(n);
    throw std::out_of_range(what);
  }
  double* x = xs->data();
  const double* y = in.data();
  for (std::size_t i = 0; i < n; ++i) {
    x[i] += y[i];
  }
}

}  // namespace

std::size_t Ctx::size() const { return rt_->machine_->size(); }
int Ctx::dimension() const { return rt_->machine_->dimension(); }
node::Node& Ctx::node() { return rt_->machine_->node(id_); }
core::TSeries& Ctx::machine() { return *rt_->machine_; }

std::uint16_t Ctx::internal_tag() { return collective_tag(internal_seq_++); }

sim::Proc Ctx::send(net::NodeId dst, std::uint16_t tag,
                    std::vector<double> data) {
  co_await rt_->send_packet(id_, dst, tag, std::move(data));
}

sim::Proc Ctx::recv(net::NodeId src, std::uint16_t tag,
                    std::vector<double>* out) {
  Runtime::Mailbox& box = rt_->mailboxes_[id_];
  while (!box.take(src, tag, out)) {
    co_await box.arrived.wait();
  }
}

sim::Proc Ctx::recv_any(std::uint16_t tag, Msg* out) {
  Runtime::Mailbox& box = rt_->mailboxes_[id_];
  while (!box.take_any(tag, out)) {
    co_await box.arrived.wait();
  }
}

sim::Proc Ctx::exchange(int dim, std::uint16_t tag, std::vector<double>* out,
                        std::vector<double>* in) {
  const net::NodeId peer = rt_->machine_->cube().neighbor(id_, dim);
  co_await Par{send(peer, tag, std::move(*out)), recv(peer, tag, in)};
}

// The step-by-step collectives send each step's message in the vector they
// received the step before, so a node allocates one buffer per collective.

sim::Proc Ctx::barrier() {
  const std::uint16_t tag = internal_tag();
  std::vector<double> token;
  std::vector<double> in;
  for (int k = 0; k < dimension(); ++k) {
    token.assign(1, 0.0);
    co_await exchange(k, tag, &token, &in);
    token = std::move(in);
  }
}

sim::Proc Ctx::broadcast(net::NodeId root, std::vector<double>* data) {
  const std::uint16_t tag = internal_tag();
  const int parent = net::tree_parent_dim(id_, root);
  if (parent >= 0) {
    co_await recv(id_ ^ (net::NodeId{1} << parent), tag, data);
  }
  for (int k = parent + 1; k < dimension(); ++k) {
    co_await send(id_ ^ (net::NodeId{1} << k), tag, *data);
  }
}

sim::Proc Ctx::reduce_sum(net::NodeId root, double* x) {
  const std::uint16_t tag = internal_tag();
  const int parent = net::tree_parent_dim(id_, root);
  std::vector<double> partial;
  for (int k = dimension() - 1; k >= 0 && k >= parent; --k) {
    const net::NodeId peer = id_ ^ (net::NodeId{1} << k);
    if (k > parent) {
      co_await recv(peer, tag, &partial);
      *x += partial.at(0);
    } else {
      partial.assign(1, *x);
      co_await send(peer, tag, std::move(partial));  // merged upstream
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
  std::vector<double> out;
  std::vector<double> in;
  for (int k = 0; k < dimension(); ++k) {
    out.assign(xs->begin(), xs->end());
    co_await exchange(k, tag, &out, &in);
    add_into(xs, in);
    out = std::move(in);
  }
}

sim::Proc Ctx::allreduce_max(double* value, double* payload) {
  const std::uint16_t tag = internal_tag();
  std::vector<double> out;
  std::vector<double> in;
  for (int k = 0; k < dimension(); ++k) {
    out.resize(2);
    out[0] = *value;
    out[1] = *payload;
    co_await exchange(k, tag, &out, &in);
    if (in.at(0) > *value ||
        (in.at(0) == *value && in.at(1) < *payload)) {
      *value = in[0];
      *payload = in[1];
    }
    out = std::move(in);
  }
}

void Runtime::Mailbox::push(Msg m) {
  std::uint32_t i = free_;
  if (i != kNone) {
    free_ = slots_[i].next;
    slots_[i].msg = std::move(m);
  } else {
    i = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(Slot{std::move(m)});
  }
  slots_[i].next = kNone;
  (tail_ == kNone ? head_ : slots_[tail_].next) = i;
  tail_ = i;
}

template <class Match>
std::uint32_t Runtime::Mailbox::unlink(Match match) {
  std::uint32_t prev = kNone;
  for (std::uint32_t i = head_; i != kNone; prev = i, i = slots_[i].next) {
    if (!match(slots_[i].msg)) {
      continue;
    }
    (prev == kNone ? head_ : slots_[prev].next) = slots_[i].next;
    if (tail_ == i) {
      tail_ = prev;
    }
    slots_[i].next = free_;
    free_ = i;
    return i;
  }
  return kNone;
}

bool Runtime::Mailbox::take(net::NodeId src, std::uint16_t tag,
                            std::vector<double>* out) {
  const std::uint32_t i =
      unlink([&](const Msg& m) { return m.src == src && m.tag == tag; });
  if (i == kNone) {
    return false;
  }
  *out = std::move(slots_[i].msg.data);
  return true;
}

bool Runtime::Mailbox::take_any(std::uint16_t tag, Msg* out) {
  const std::uint32_t i = unlink([&](const Msg& m) { return m.tag == tag; });
  if (i == kNone) {
    return false;
  }
  *out = std::move(slots_[i].msg);
  return true;
}

Runtime::Runtime(core::TSeries& machine)
    : machine_{&machine},
      // Each node's mailbox signals on that node's shard simulator (the
      // single simulator when the machine is serial).
      mailboxes_(machine.size(),
                 [&machine](std::size_t id) {
                   return Mailbox{
                       machine.sim_for(static_cast<net::NodeId>(id))};
                 }),
      stats_(machine.size()) {
  per_node_seq_.resize(machine_->size(), 0);
  ctxs_.reserve(machine_->size());
  for (net::NodeId id = 0; id < machine_->size(); ++id) {
    ctxs_.push_back(Ctx(*this, id));
  }
}

std::uint64_t Runtime::packets_forwarded() const {
  std::uint64_t total = 0;
  for (const perf::Stats<kFields>& s : stats_) {
    total += s.count(kPktsForwarded);
  }
  return total;
}

perf::PerfSink* Runtime::occam_track(net::NodeId at) {
  if (occam_tracks_.empty()) {
    return nullptr;
  }
  if (occam_tracks_[at] == nullptr) {
    occam_tracks_[at] = &machine_->perf()->track(at, "occam", kFields);
    stats_[at].attach(*occam_tracks_[at]);
  }
  return occam_tracks_[at];
}

void Runtime::deliver(net::NodeId at, link::Packet& p) {
  perf::PerfSink* track = occam_track(at);
  stats_[at].add(kMsgsRecv, 1);
  if (track != nullptr && p.trace != 0) {
    track->record({.start = machine_->sim_for(at).now(),
                   .trace = p.trace,
                   .peer = p.src,
                   .kind = perf::SpanKind::msg_deliver});
  }
  Mailbox& box = mailboxes_[at];
  box.push(Msg{p.src, p.tag, p.trace, std::move(p.payload)});
  box.arrived.notify_all();
}

sim::Proc Runtime::send_packet(net::NodeId from, net::NodeId dst,
                               std::uint16_t tag, std::vector<double>&& data) {
  // Packetisation is control-processor work.
  co_await machine_->node(from).cp_work(RtParams::kSendInstr);
  link::Packet p;
  p.src = from;
  p.dst = dst;
  p.tag = tag;
  p.payload_bytes =
      kSourceWordBytes + static_cast<std::uint32_t>(8 * data.size());
  p.payload = std::move(data);
  perf::PerfSink* track = occam_track(from);
  stats_[from].add(kMsgsSent, 1);
  if (track != nullptr) {
    // tscope injection marker: id, destination, tag and payload size on
    // the wire, in the grammar perf/tscope.hpp documents.
    p.trace = alloc_trace(from);
    track->record({.start = machine_->sim_for(from).now(),
                   .n = p.payload_bytes,
                   .trace = p.trace,
                   .peer = dst,
                   .tag = tag,
                   .kind = perf::SpanKind::msg_inject});
  }
  if (dst == from) {
    deliver(from, p);
    co_return;
  }
  co_await machine_->send_dim(from, first_route_dim(from, dst), std::move(p));
}

sim::Proc Runtime::router_listener(net::NodeId at, int dim) {
  for (;;) {
    link::Packet p = co_await machine_->inbox(at, dim).recv();
    if (p.dst == at) {
      co_await machine_->node(at).cp_work(RtParams::kSendInstr);
      deliver(at, p);
      continue;
    }
    // Store-and-forward: inspect and retransmit along the next e-cube
    // dimension; the hop count rides in the packet.
    ++p.hops;
    perf::PerfSink* track = occam_track(at);
    stats_[at].add(kPktsForwarded, 1);
    if (track != nullptr && p.trace != 0) {
      track->record({.start = machine_->sim_for(at).now(),
                     .trace = p.trace,
                     .kind = perf::SpanKind::msg_forward});
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
                  std::vector<Ctx>* ctxs, bool* done) {
  std::vector<sim::Proc> procs;
  procs.reserve(bodies->size());
  for (std::size_t i = 0; i < bodies->size(); ++i) {
    procs.push_back((*bodies)[i]((*ctxs)[i]));
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
  if (machine_->perf() != nullptr) {
    // Each run resolves its tracks afresh, from the registry attached now.
    // Until a node's first message attaches its statistics, they count in
    // fresh cells of their own, never in a track of an earlier registry.
    occam_tracks_.assign(machine_->size(), nullptr);
    stats_ = std::vector<perf::Stats<kFields>>(machine_->size());
  }
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
    machine_->sim_for(id).spawn(run_one(&bodies[id], &ctxs_[id], &done));
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
