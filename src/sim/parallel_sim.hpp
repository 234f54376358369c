// Conservative parallel discrete-event engine with distance-aware windows.
//
// The serial kernel (simulator.hpp) executes one event queue; a 12-cube
// machine model — 4096 nodes, ~40k router processes — is serialized
// through it. This engine shards the model across host threads while
// keeping the simulation bit-for-bit deterministic:
//
//   * The cube's nodes are partitioned into contiguous subcubes, one per
//     shard (ShardMap). Subcube shards keep every low-dimension cube link
//     internal to a shard, so for the dimension-ordered traffic of e-cube
//     routing most packets never leave their shard. Shards are numbered
//     along the binary-reflected Gray code of the high node bits, so
//     consecutive shards are cube neighbours.
//
//   * Each shard owns a private Simulator (its own event queue, its own
//     clock) driven by a host worker thread. Shards synchronize with
//     *barrier epochs*, but unlike a classic CMB global window the epoch
//     horizon is per shard: a message that must cross d cube dimensions
//     cannot arrive earlier than d · transfer_time after it was sent, so
//     shard s may run ahead to
//
//       bound(s) = min over busy r != s of  next(r) + la(r, s)
//
//     where la(r, s) is the pairwise lookahead matrix (hop distance times
//     the link's minimum transfer time once set_topology() installs the
//     cube map) and next(r) is shard r's earliest pending work. Distant
//     shard pairs therefore exchange synchronization far less often than
//     neighbours, which is what lets the engine hold its
//     events/sec-per-core efficiency out to the paper's 12-cube. The
//     matrix is safe against relaying because cube hop distance is a
//     metric: any path r -> r' -> s is at least as long as la(r, s), so
//     the direct term already bounds every indirect influence.
//
//   * bound(s) only accounts for *other* shards' existing work. The one
//     influence it cannot see is an echo: shard s posts mail, the
//     receiver reacts, and the reply lands back on s — no earlier than
//     echo(s) = min round trip through any other shard — after the
//     instant that posted. So inside an epoch a shard executes whole
//     timestamps up to its bound and, the first time an instant posts
//     cross-shard mail (post() raises a flag on the poster's own
//     thread), caps the remainder of its run at post_time + echo(s).
//     A shard whose events stay local runs clear to its bound — when it
//     holds the only remaining work that bound is infinite, so long
//     single-shard phases (boot, drain, serial program sections) run at
//     serial-kernel speed instead of creeping forward window by window.
//
//   * Cross-shard messages travel through per-(source, destination)
//     mailboxes. A mailbox has exactly one producer (the source shard's
//     worker, during the parallel phase) and one consumer (the epoch
//     coordinator, during the serial phase between barriers); ownership
//     alternates at the barrier, so the handoff needs no locks, and each
//     mailbox sits on its own cache line so concurrent producers never
//     false-share. The coordinator merges drained mail in a deterministic
//     total order — (timestamp, key, source shard, per-pair sequence) —
//     before scheduling it, so delivery order is a pure function of the
//     simulation state, never of host thread timing. With the key chosen
//     as the message trace id, same-instant cross-shard deliveries land
//     in (timestamp, trace id, shard id) order, which the determinism
//     tests pin across thread counts.
//
//   * Workers meet at a combining-tree barrier (tree_barrier.hpp) rather
//     than a flat counter: each worker owns a *contiguous block* of
//     Gray-coded shards, so sibling leaves of the tree are neighbouring
//     subcube halves and the barrier follows the cube hierarchy. The
//     contiguous blocks also give first-touch locality — a worker's
//     mailbox rows and event pools are touched only by that worker during
//     parallel phases, so on NUMA hosts they settle on the worker's node.
//
// Worker-thread count is independent of the shard count: because each
// shard's epoch work is sequential-deterministic, the epoch horizons are
// pure functions of simulation state, and the merge order is fixed,
// running 8 shards on 1, 2 or 4 threads produces identical simulations.
// With a single shard the engine degenerates to the serial kernel: run()
// just drains the one queue, so `--threads 1` reproduces the serial
// engine exactly, byte for byte. The distance-aware horizons with
// echo-capped chunks are the engine's only multi-shard scheduler; they
// replaced one global window of the base lookahead per epoch, which lost
// every measured A/B run.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "sim/bits.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace fpst::sim {

/// Partition of a binary n-cube's 2^dim nodes into 2^k equal contiguous
/// subcubes. Nodes sharing the top k address bits form one shard — all
/// dim-k low cube dimensions stay shard-internal — and shards are numbered
/// by the Gray-code rank of those top bits, so shard s and shard s+1 are
/// adjacent subcubes (their nodes differ in exactly one cube dimension).
class ShardMap {
 public:
  /// The whole cube on one shard.
  ShardMap() = default;

  /// Throws std::invalid_argument unless 1 <= shards <= 2^dimension and
  /// shards is a power of two.
  ShardMap(int dimension, int shards);

  int dimension() const { return dim_; }
  int shards() const { return 1 << log2_shards_; }
  int log2_shards() const { return log2_shards_; }

  /// Shard executing cube node `node`.
  int shard_of(std::uint32_t node) const {
    return static_cast<int>(bits::gray_inverse(
        node >> static_cast<unsigned>(dim_ - log2_shards_)));
  }

  /// True when cube dimension `dim` connects two shards (the high
  /// dimensions) rather than staying inside one subcube.
  bool dim_crosses_shards(int dim) const { return dim >= dim_ - log2_shards_; }

  /// Minimum cube hop count between any node of shard `a` and any node of
  /// shard `b`: the two subcubes differ exactly in the bits where their
  /// Gray-coded addresses differ, and a message must cross one cube
  /// dimension per differing bit. Zero iff a == b. This is the Hamming
  /// distance between subcube addresses, so it is a metric — the triangle
  /// inequality is what makes the pairwise lookahead matrix conservative.
  int hop_distance(int a, int b) const {
    return std::popcount(bits::gray(static_cast<std::uint32_t>(a)) ^
                         bits::gray(static_cast<std::uint32_t>(b)));
  }

 private:
  int dim_ = 0;
  int log2_shards_ = 0;
};

/// The sharded engine: S Simulators, W worker threads, barrier epochs.
class ParallelSim {
 public:
  struct Options {
    /// Shard count (determines the simulation's partition and therefore
    /// its exact event interleaving; must be fixed to compare runs).
    int shards = 1;
    /// Host worker threads; 0 means one per shard. Any value yields the
    /// identical simulation — threads only divide the epoch work.
    int threads = 0;
    /// Conservative base lookahead: a lower bound on the simulated
    /// latency of every *single-hop* cross-shard interaction. Must be
    /// positive when shards > 1. For the T Series link model pass
    /// link::LinkParams::transfer_time(0) — DMA startup + header wire
    /// time, the cheapest possible cross-shard packet.
    SimTime lookahead{};
  };

  explicit ParallelSim(Options opts);

  ParallelSim(const ParallelSim&) = delete;
  ParallelSim& operator=(const ParallelSim&) = delete;

  ~ParallelSim();

  int shards() const { return static_cast<int>(sims_.size()); }
  int threads() const { return threads_; }
  /// The base (single-hop) lookahead from Options.
  SimTime lookahead() const { return lookahead_; }

  /// Pairwise conservative lookahead currently in force: the minimum
  /// simulated delay between shard `from` executing an event and any
  /// resulting delivery on shard `to`. Uniform (== lookahead()) until
  /// set_topology() installs the distance matrix.
  SimTime lookahead(int from, int to) const;

  /// Install the cube topology: lookahead(a, b) becomes
  /// hop_distance(a, b) * lookahead(). Callers posting mail must then
  /// honour the *pairwise* bound — the machine layer does automatically,
  /// because cross-shard cables (link::Link) only ever connect
  /// Gray-adjacent subcubes, one hop at a time, each hop adding at least
  /// the base lookahead. Throws std::invalid_argument if `map` does not
  /// partition into exactly shards() shards. Must not be called while
  /// run() is executing.
  void set_topology(const ShardMap& map);

  /// Test hook: overwrite one matrix entry. An entry *above* the true
  /// minimum delay is a lookahead lie — the scheduler will let `to` run
  /// too far ahead and the next real delivery trips the causality abort,
  /// which is exactly what the lie-detection tests pin. Must not be
  /// called while run() is executing.
  void override_lookahead(int from, int to, SimTime la);

  Simulator& shard(int s) { return *sims_.at(static_cast<std::size_t>(s)); }

  /// Hand a cross-shard effect to shard `to`: at simulated time `at`,
  /// `deliver` runs on that shard's simulator. Must be called either from
  /// shard `from`'s worker during an epoch (the single-producer side of
  /// the (from, to) mailbox) or from the driving thread while the engine
  /// is not running. `at` must be at least lookahead(from, to) in the
  /// future of shard `from`'s clock; the epoch scheduler aborts the
  /// process on a causality violation (a delivery time already in the
  /// destination's past), since a silently late event would corrupt
  /// determinism. Same-instant deliveries are merged in (at, key, from,
  /// sequence) order; pass the message trace id as `key`. A self-post
  /// (from == to) issued while the engine is running is scheduled
  /// directly — it stays on the poster's own thread and only needs
  /// `at` >= the shard's current time.
  void post(int from, int to, SimTime at, std::uint64_t key,
            std::function<void()> deliver);

  /// Drive every shard until all queues drain and no mail is in flight.
  /// Rethrows the failure of the lowest-numbered failing shard, if any.
  /// Returns events executed across all shards during this call.
  std::uint64_t run();

  /// Time of the latest event any shard has executed (the machine-wide
  /// completion time after run(); epoch padding is excluded).
  SimTime now() const;

  /// Total events executed across all shards since construction. Intended
  /// for the driving thread between runs; during a run prefer progress().
  std::uint64_t events_processed() const;

  /// Live machine-wide event-count snapshot, safe from any thread while
  /// the workers run: the sum of every shard's Simulator::progress(). The
  /// per-shard counters are single-writer relaxed atomics, so the sum is
  /// monotonically nondecreasing but carries no synchronizes-with edge —
  /// see Simulator::progress() for the full memory-order contract.
  std::uint64_t progress() const;

  /// Where the engine's wall-clock goes — the answer to "why does scaling
  /// flatten". Host-time accumulators since construction:
  ///   * shard_busy_ns[s]   wall time shard s spent executing events
  ///                        (inside run_until), the useful work;
  ///   * worker_barrier_ns[w]  wall time worker w spent parked at the
  ///                        epoch barrier — load imbalance plus the serial
  ///                        phase it waits out;
  ///   * merge_ns           wall time of the serial phases (mailbox drain
  ///                        + window selection + merged delivery);
  ///   * epochs             barrier epochs executed;
  ///   * mail_delivered     cross-shard deliveries actually scheduled;
  ///   * shard_syncs[s]     epochs in which shard s actually had due work
  ///                        scheduled — under the distance-aware horizons
  ///                        distant shards sit out most epochs, and this
  ///                        counter is how the bench proves it;
  ///   * mail_reserve_bytes bytes currently reserved across all mailbox
  ///                        and pending buffers, refreshed each serial
  ///                        phase — pinned by the reserve-shrink
  ///                        regression test so a distant pair skipping
  ///                        many epochs cannot hoard capacity forever.
  /// Wall-clock members vary run to run — report them, never fold them
  /// into determinism-gated dumps. epochs, mail_delivered and shard_syncs
  /// are pure functions of the simulation and shard count.
  struct Profile {
    std::uint64_t epochs = 0;
    std::uint64_t merge_ns = 0;
    std::uint64_t mail_delivered = 0;
    std::uint64_t mail_reserve_bytes = 0;
    std::vector<std::uint64_t> shard_busy_ns;
    std::vector<std::uint64_t> shard_events;
    std::vector<std::uint64_t> shard_syncs;
    std::vector<std::uint64_t> worker_barrier_ns;
  };

  /// Snapshot of the accumulators, safe from any thread while the workers
  /// run. Same memory-order contract as progress(): every accumulator has
  /// a single writer (the owning worker for per-shard/per-worker slots,
  /// the coordinator for the epoch-wide ones) storing relaxed; readers get
  /// monotonically nondecreasing values with no synchronizes-with edge.
  Profile profile() const;

 private:
  struct Mail {
    SimTime at;
    std::uint64_t key = 0;
    std::uint32_t from = 0;
    std::uint64_t seq = 0;
    std::function<void()> fn;
  };

  /// One single-producer mailbox per (from, to) shard pair. The producer
  /// appends during the parallel phase; the coordinator takes the batch
  /// during the serial phase. The epoch barrier orders the two. Each box
  /// owns a full cache line: boxes with different `from` are appended to
  /// by different workers concurrently, and unpadded neighbours in the
  /// row-major array would false-share on every push.
  struct alignas(64) PairBox {
    std::vector<Mail> box;
    std::uint64_t next_seq = 0;
  };

  /// Per-shard epoch instructions, written by the serial phase and read
  /// by the owning worker (plus `posted`, written back by that worker's
  /// posts). The barrier orders the handoff; one line per shard so the
  /// posted-flag writes never share a line across workers.
  struct alignas(64) ShardCtl {
    SimTime deadline{};  ///< inclusive horizon from the pairwise bounds
    bool runnable = false;  ///< shard has due work this epoch
    bool posted = false;  ///< set by post(); triggers the echo cap
  };

  PairBox& box(int from, int to) {
    return boxes_[static_cast<std::size_t>(from) *
                      static_cast<std::size_t>(shards()) +
                  static_cast<std::size_t>(to)];
  }

  SimTime& la(int from, int to) {
    return la_[static_cast<std::size_t>(from) *
                   static_cast<std::size_t>(shards()) +
               static_cast<std::size_t>(to)];
  }

  /// Recompute echo_[s] = min round trip via any other shard.
  void rebuild_echo();

  /// Serial phase, run with every worker parked at the barrier: drain all
  /// mailboxes, pick each shard's next horizon, schedule in-window
  /// deliveries in merged deterministic order. Sets stop_ when drained.
  void serial_phase() noexcept;
  /// Schedule pending deliveries for `dst` strictly below `bound` onto
  /// its shard, in merged deterministic order.
  void deliver_below(int dst, SimTime bound);
  void record_failure(int shard, std::exception_ptr e);

  /// One cache line per counter so concurrent writers never false-share.
  struct alignas(64) RelaxedCounter {
    std::atomic<std::uint64_t> v{0};
  };

  SimTime lookahead_{};
  int threads_ = 1;
  std::vector<std::unique_ptr<Simulator>> sims_;
  std::vector<PairBox> boxes_;
  /// Per destination shard: drained-but-not-yet-due mail.
  std::vector<std::vector<Mail>> pending_;
  /// Pairwise lookahead matrix (row-major, [from][to]); diagonal unused.
  std::vector<SimTime> la_;
  /// echo_[s]: min over r != s of la(s, r) + la(r, s) — the earliest a
  /// send by s can influence s again. Caps the tail of s's epoch run
  /// after its first cross-shard post.
  std::vector<SimTime> echo_;

  // Epoch state: written only in the serial phase (or before workers
  // start), read by workers. The barrier's completion step provides the
  // ordering.
  std::vector<ShardCtl> ctl_;
  bool stop_ = false;
  /// True between worker-pool start and join; post() uses it to route
  /// running self-posts straight onto the poster's own queue.
  bool running_ = false;

  // Scratch for serial_phase (persists to avoid per-epoch allocation).
  std::vector<SimTime> next_;
  std::vector<bool> busy_;

  // First failure, by lowest shard id so the rethrown error is stable.
  std::exception_ptr failure_{};
  int failure_shard_ = 0;

  // Profiler accumulators (see Profile). Sized at construction: one slot
  // per shard / per worker, each written by exactly one thread.
  std::unique_ptr<RelaxedCounter[]> shard_busy_ns_;
  std::unique_ptr<RelaxedCounter[]> worker_barrier_ns_;
  std::unique_ptr<RelaxedCounter[]> shard_syncs_;
  std::atomic<std::uint64_t> epochs_{0};
  std::atomic<std::uint64_t> merge_ns_{0};
  std::atomic<std::uint64_t> mail_delivered_{0};
  std::atomic<std::uint64_t> mail_reserve_bytes_{0};
};

}  // namespace fpst::sim
