#include "sim/parallel_sim.hpp"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "sim/proc.hpp"  // completes Proc for Simulator's root-frame vector

namespace fpst::sim {

namespace {

bool is_pow2(int v) { return v > 0 && (v & (v - 1)) == 0; }

int log2_exact(int v) {
  int k = 0;
  while ((1 << k) < v) {
    ++k;
  }
  return k;
}

/// Total order for merged cross-shard mail: timestamp, then key (the
/// message trace id), then source shard, then per-pair FIFO sequence.
bool mail_before(const auto& a, const auto& b) {
  if (a.at != b.at) {
    return a.at < b.at;
  }
  if (a.key != b.key) {
    return a.key < b.key;
  }
  if (a.from != b.from) {
    return a.from < b.from;
  }
  return a.seq < b.seq;
}

std::uint64_t wall_ns_since(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

constexpr SimTime kFarFuture =
    SimTime::picoseconds(std::numeric_limits<std::int64_t>::max());

/// Mailbox capacity a pair may keep while idle. Above this, capacity must
/// be justified by the traffic actually moving through the box (4x the
/// last drained batch / current backlog), or it is released — a distant
/// pair that bursts once and then skips thousands of epochs must not pin
/// its burst-sized buffer forever.
constexpr std::size_t kIdleMailCap = 64;

}  // namespace

ShardMap::ShardMap(int dimension, int shards) : dim_{dimension} {
  if (dimension < 0 || dimension > 30) {
    throw std::invalid_argument("ShardMap: dimension out of range");
  }
  if (!is_pow2(shards) || shards > (1 << dimension)) {
    throw std::invalid_argument(
        "ShardMap: shard count must be a power of two no larger than the "
        "node count");
  }
  log2_shards_ = log2_exact(shards);
}

ParallelSim::ParallelSim(Options opts) : lookahead_{opts.lookahead} {
  if (opts.shards < 1) {
    throw std::invalid_argument("ParallelSim: shards must be >= 1");
  }
  if (opts.shards > 1 && !(lookahead_ > SimTime{})) {
    throw std::invalid_argument(
        "ParallelSim: a positive lookahead is required when sharding — no "
        "conservative window exists without one");
  }
  threads_ = opts.threads > 0 ? opts.threads : opts.shards;
  threads_ = std::min(threads_, opts.shards);
  const auto ns = static_cast<std::size_t>(opts.shards);
  sims_.reserve(ns);
  for (int s = 0; s < opts.shards; ++s) {
    sims_.push_back(std::make_unique<Simulator>());
  }
  boxes_.resize(ns * ns);
  pending_.resize(ns);
  // Until set_topology() installs cube distances, every pair is assumed
  // one hop away: the uniform matrix is the old single-lookahead contract.
  la_.assign(ns * ns, lookahead_);
  echo_.assign(ns, lookahead_ + lookahead_);
  ctl_.resize(ns);
  next_.resize(ns);
  busy_.resize(ns);
  shard_busy_ns_ = std::make_unique<RelaxedCounter[]>(ns);
  shard_syncs_ = std::make_unique<RelaxedCounter[]>(ns);
  worker_barrier_ns_ =
      std::make_unique<RelaxedCounter[]>(static_cast<std::size_t>(threads_));
}

ParallelSim::~ParallelSim() = default;

SimTime ParallelSim::lookahead(int from, int to) const {
  if (from < 0 || from >= shards() || to < 0 || to >= shards()) {
    throw std::invalid_argument("ParallelSim::lookahead: bad shard id");
  }
  return la_[static_cast<std::size_t>(from) *
                 static_cast<std::size_t>(shards()) +
             static_cast<std::size_t>(to)];
}

void ParallelSim::set_topology(const ShardMap& map) {
  if (map.shards() != shards()) {
    throw std::invalid_argument(
        "ParallelSim::set_topology: shard map partitions into a different "
        "shard count than the engine");
  }
  for (int a = 0; a < shards(); ++a) {
    for (int b = 0; b < shards(); ++b) {
      la(a, b) = a == b ? lookahead_
                        : lookahead_ * static_cast<std::int64_t>(
                                           map.hop_distance(a, b));
    }
  }
  rebuild_echo();
}

void ParallelSim::override_lookahead(int from, int to, SimTime value) {
  if (from < 0 || from >= shards() || to < 0 || to >= shards() ||
      from == to) {
    throw std::invalid_argument(
        "ParallelSim::override_lookahead: bad shard pair");
  }
  if (!(value > SimTime{})) {
    throw std::invalid_argument(
        "ParallelSim::override_lookahead: lookahead must be positive");
  }
  la(from, to) = value;
  rebuild_echo();
}

void ParallelSim::rebuild_echo() {
  for (int s = 0; s < shards(); ++s) {
    SimTime echo = kFarFuture;
    for (int r = 0; r < shards(); ++r) {
      if (r == s) {
        continue;
      }
      echo = std::min(echo, la(s, r) + la(r, s));
    }
    echo_[static_cast<std::size_t>(s)] = echo;
  }
}

void ParallelSim::post(int from, int to, SimTime at, std::uint64_t key,
                       std::function<void()> deliver) {
  if (from < 0 || from >= shards() || to < 0 || to >= shards()) {
    throw std::invalid_argument("ParallelSim::post: bad shard id");
  }
  if (from == to && running_) {
    // A running self-post never leaves the poster's thread: schedule it
    // straight onto the shard's own queue. No lookahead applies — the
    // shard cannot outrun itself — only monotonicity.
    Simulator& sim = *sims_[static_cast<std::size_t>(to)];
    if (at < sim.now()) {
      std::fprintf(stderr,
                   "parallel_sim: causality violation: self delivery at %s "
                   "is before shard %d time %s\n",
                   at.to_string().c_str(), to, sim.now().to_string().c_str());
      std::abort();
    }
    sim.schedule_at(at, std::move(deliver));
    return;
  }
  PairBox& pb = box(from, to);
  Mail m;
  m.at = at;
  m.key = key;
  m.from = static_cast<std::uint32_t>(from);
  m.seq = pb.next_seq++;
  m.fn = std::move(deliver);
  pb.box.push_back(std::move(m));
  if (from != to) {
    // Stops an unbounded (lone-shard) step loop: past this instant other
    // shards may gain work whose replies constrain us. Written only by
    // the shard's own worker (or the driving thread pre-run; harmless).
    ctl_[static_cast<std::size_t>(from)].posted = true;
  }
}

void ParallelSim::deliver_below(int dst, SimTime bound) {
  std::vector<Mail>& due = pending_[static_cast<std::size_t>(dst)];
  if (due.empty()) {
    return;
  }
  std::sort(due.begin(), due.end(),
            [](const Mail& a, const Mail& b) { return mail_before(a, b); });
  Simulator& sim = *sims_[static_cast<std::size_t>(dst)];
  std::size_t taken = 0;
  for (Mail& m : due) {
    if (m.at >= bound) {
      break;
    }
    if (m.at < sim.now()) {
      // A cross-shard delivery landing in the destination's past means
      // the lookahead contract was broken; executing it would silently
      // corrupt deterministic ordering, so die loudly instead.
      std::fprintf(stderr,
                   "parallel_sim: causality violation: cross-shard "
                   "delivery at %s is before shard %d time %s\n",
                   m.at.to_string().c_str(), dst,
                   sim.now().to_string().c_str());
      std::abort();
    }
    sim.schedule_at(m.at, std::move(m.fn));
    ++taken;
  }
  mail_delivered_.fetch_add(taken, std::memory_order_relaxed);
  due.erase(due.begin(), due.begin() + static_cast<std::ptrdiff_t>(taken));
}

void ParallelSim::serial_phase() noexcept {
  if (failure_ != nullptr) {
    stop_ = true;
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  const int nshards = shards();
  // Take every mailbox batch. Producers are parked at the barrier, so the
  // single-consumer side of the SPSC contract holds here. Capacity above
  // what this epoch's batch justifies is released (see kIdleMailCap).
  std::uint64_t reserve_bytes = 0;
  for (int from = 0; from < nshards; ++from) {
    for (int to = 0; to < nshards; ++to) {
      PairBox& pb = box(from, to);
      const std::size_t drained = pb.box.size();
      if (drained != 0) {
        std::vector<Mail>& dst = pending_[static_cast<std::size_t>(to)];
        dst.insert(dst.end(), std::make_move_iterator(pb.box.begin()),
                   std::make_move_iterator(pb.box.end()));
        pb.box.clear();
      }
      if (pb.box.capacity() > kIdleMailCap &&
          pb.box.capacity() > 4 * drained) {
        pb.box.shrink_to_fit();
      }
      reserve_bytes += pb.box.capacity() * sizeof(Mail);
    }
  }
  // Each shard's earliest pending work — queued event or undelivered
  // mail — anchors the conservative horizons.
  bool any = false;
  for (int s = 0; s < nshards; ++s) {
    const auto us = static_cast<std::size_t>(s);
    const Simulator& sim = *sims_[us];
    SimTime next = kFarFuture;
    bool busy = false;
    if (!sim.idle()) {
      next = sim.next_event_time();
      busy = true;
    }
    for (const Mail& m : pending_[us]) {
      if (!busy || m.at < next) {
        next = m.at;
        busy = true;
      }
    }
    next_[us] = next;
    busy_[us] = busy;
    any = any || busy;
  }
  if (!any) {
    stop_ = true;
    merge_ns_.fetch_add(wall_ns_since(t0), std::memory_order_relaxed);
    return;
  }
  for (ShardCtl& c : ctl_) {
    c.runnable = false;
  }
  if (nshards == 1) {
    // Degenerate serial case: run() drains the queue directly; the serial
    // phase only folds self-posted mail back in (all of it — one shard
    // has no horizon).
    deliver_below(0, kFarFuture);
    ctl_[0].runnable = true;
    shard_syncs_[0].v.fetch_add(1, std::memory_order_relaxed);
  } else {
    // Distance-aware horizons. bound(s) is the earliest instant any other
    // shard's *existing* work can reach s; the triangle inequality of
    // cube hop distance makes the direct terms cover every relayed path,
    // and the worker's echo cap covers influence s creates itself by
    // posting. Shards whose horizon closes before their next event sit
    // the epoch out entirely (no clock padding), which is what keeps a
    // distant shard's synchronization frequency at 1/d. With one busy
    // shard the bound is infinite and it runs at serial-kernel speed
    // until its first post.
    for (int s = 0; s < nshards; ++s) {
      const auto us = static_cast<std::size_t>(s);
      if (!busy_[us]) {
        continue;  // no events, and no pending mail either (mail => busy)
      }
      SimTime bound = kFarFuture;
      for (int r = 0; r < nshards; ++r) {
        if (r == s || !busy_[static_cast<std::size_t>(r)]) {
          continue;
        }
        bound = std::min(bound, next_[static_cast<std::size_t>(r)] + la(r, s));
      }
      deliver_below(s, bound);
      ctl_[us].deadline =
          bound == kFarFuture ? kFarFuture : bound - SimTime::picoseconds(1);
      ctl_[us].runnable = next_[us] < bound;
      if (ctl_[us].runnable) {
        shard_syncs_[us].v.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  for (std::vector<Mail>& p : pending_) {
    if (p.capacity() > kIdleMailCap && p.capacity() > 4 * p.size()) {
      p.shrink_to_fit();
    }
    reserve_bytes += p.capacity() * sizeof(Mail);
  }
  mail_reserve_bytes_.store(reserve_bytes, std::memory_order_relaxed);
  epochs_.fetch_add(1, std::memory_order_relaxed);
  merge_ns_.fetch_add(wall_ns_since(t0), std::memory_order_relaxed);
}

void ParallelSim::record_failure(int shard, std::exception_ptr e) {
  if (failure_ == nullptr || shard < failure_shard_) {
    failure_ = e;
    failure_shard_ = shard;
  }
}

std::uint64_t ParallelSim::run() {
  const std::uint64_t before = events_processed();
  if (shards() == 1) {
    // Degenerate case: exactly the serial engine. Any self-posted mail is
    // folded in between drains (the serial phase delivers it all — one
    // busy shard is always "unbounded").
    Simulator& sim = *sims_[0];
    for (;;) {
      serial_phase();
      if (stop_) {
        break;
      }
      const auto t0 = std::chrono::steady_clock::now();
      sim.run();
      shard_busy_ns_[0].v.fetch_add(wall_ns_since(t0),
                                    std::memory_order_relaxed);
    }
    stop_ = false;
    return events_processed() - before;
  }

  stop_ = false;
  failure_ = nullptr;
  failure_shard_ = shards();
  serial_phase();  // seed the first horizons (or stop on an empty machine)
  if (!stop_) {
    const int nworkers = threads_;
    running_ = true;
    std::barrier sync(nworkers, [this]() noexcept { serial_phase(); });
    std::mutex err_mu;
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(nworkers));
    for (int w = 0; w < nworkers; ++w) {
      pool.emplace_back([this, w, nworkers, &sync, &err_mu] {
        // Worker w owns the contiguous Gray-coded shard block
        // [w*S/W, (w+1)*S/W): neighbouring subcubes stay on one worker
        // (and, first-touch, on one NUMA node).
        const int s_begin = (w * shards()) / nworkers;
        const int s_end = ((w + 1) * shards()) / nworkers;
        while (!stop_) {
          for (int s = s_begin; s < s_end; ++s) {
            ShardCtl& c = ctl_[static_cast<std::size_t>(s)];
            if (!c.runnable) {
              continue;
            }
            const auto t0 = std::chrono::steady_clock::now();
            try {
              Simulator& sim = *sims_[static_cast<std::size_t>(s)];
              // Run in chunks one echo window wide, stopping at the end of
              // the first chunk that posted cross-shard mail (post() raises
              // c.posted from this same thread): a post at t_post inside
              // chunk [t, t+echo) cannot influence this shard before
              // t_post + echo, which is past the chunk end, so everything
              // inside the chunk was already safe. Chunking (rather than
              // stepping instant by instant) keeps the fast path at one
              // run_until per epoch for a shard whose whole window fits in
              // one echo.
              c.posted = false;
              const SimTime echo = echo_[static_cast<std::size_t>(s)];
              while (!sim.idle()) {
                const SimTime t = sim.next_event_time();
                if (t > c.deadline) {
                  break;
                }
                const SimTime chunk =
                    std::min(c.deadline, t + echo - SimTime::picoseconds(1));
                sim.run_until(chunk);
                if (c.posted) {
                  c.posted = false;
                  break;
                }
              }
            } catch (...) {
              const std::lock_guard<std::mutex> lock(err_mu);
              record_failure(s, std::current_exception());
            }
            shard_busy_ns_[static_cast<std::size_t>(s)].v.fetch_add(
                wall_ns_since(t0), std::memory_order_relaxed);
          }
          const auto tb = std::chrono::steady_clock::now();
          sync.arrive_and_wait();
          worker_barrier_ns_[static_cast<std::size_t>(w)].v.fetch_add(
              wall_ns_since(tb), std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& t : pool) {
      t.join();
    }
    running_ = false;
  }
  if (failure_ != nullptr) {
    std::exception_ptr e = failure_;
    failure_ = nullptr;
    std::rethrow_exception(e);
  }
  return events_processed() - before;
}

SimTime ParallelSim::now() const {
  SimTime latest{};
  for (const auto& sim : sims_) {
    latest = std::max(latest, sim->last_event_time());
  }
  return latest;
}

std::uint64_t ParallelSim::events_processed() const {
  std::uint64_t total = 0;
  for (const auto& sim : sims_) {
    total += sim->events_processed();
  }
  return total;
}

ParallelSim::Profile ParallelSim::profile() const {
  Profile p;
  p.epochs = epochs_.load(std::memory_order_relaxed);
  p.merge_ns = merge_ns_.load(std::memory_order_relaxed);
  p.mail_delivered = mail_delivered_.load(std::memory_order_relaxed);
  p.mail_reserve_bytes =
      mail_reserve_bytes_.load(std::memory_order_relaxed);
  p.shard_busy_ns.reserve(sims_.size());
  p.shard_events.reserve(sims_.size());
  p.shard_syncs.reserve(sims_.size());
  for (std::size_t s = 0; s < sims_.size(); ++s) {
    p.shard_busy_ns.push_back(
        shard_busy_ns_[s].v.load(std::memory_order_relaxed));
    p.shard_events.push_back(sims_[s]->events_processed());
    p.shard_syncs.push_back(
        shard_syncs_[s].v.load(std::memory_order_relaxed));
  }
  p.worker_barrier_ns.reserve(static_cast<std::size_t>(threads_));
  for (int w = 0; w < threads_; ++w) {
    p.worker_barrier_ns.push_back(
        worker_barrier_ns_[static_cast<std::size_t>(w)].v.load(
            std::memory_order_relaxed));
  }
  return p;
}

}  // namespace fpst::sim
