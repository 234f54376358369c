// serve::Service — the multi-tenant simulation job service.
//
// Lifecycle of a job:
//
//   submit(tenant, spec)
//     -> validate + content-address the spec
//     -> JobRecord created (kQueued), job id returned immediately
//     -> bounded JobQueue (per-tenant fair; submit blocks on backpressure)
//   worker pops
//     -> result cache lookup by content address
//        hit : job completes with the cached bytes, zero simulation
//              events, cache_hit = true
//        miss: a JobRun executes the spec on this worker's core budget;
//              while it runs, status() streams the live event count via
//              JobRun::progress(); the dump bytes are stored in the
//              cache and on the record
//     -> kDone (or kFailed with the error string)
//
// status() is readable at any moment from any thread — queued, running
// (with monotonically increasing progress), done or failed — which is what
// the tsim CLI serves over its socket.
//
// Locking: one service mutex guards the job table and per-record state;
// the queue and cache have their own internal locks. The only cross-thread
// read that bypasses the mutex is the running JobRun's relaxed progress
// counter; the raw `running` pointer itself is only ever touched under the
// mutex, and the worker clears it (under the mutex) before destroying the
// run object, so the pointer can never dangle mid-read.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <map>

#include "perf/histogram.hpp"
#include "serve/job_queue.hpp"
#include "serve/job_spec.hpp"
#include "serve/result_cache.hpp"
#include "serve/runner.hpp"

namespace fpst::serve {

using JobId = std::uint64_t;

enum class JobState : std::uint8_t { kQueued, kRunning, kDone, kFailed };

const char* to_string(JobState s);

/// A point-in-time view of one job, safe to hold after the service moves
/// on. `result` is non-null exactly when state == kDone.
struct JobStatus {
  JobId id = 0;
  JobState state = JobState::kQueued;
  bool cache_hit = false;
  /// Simulation events: live progress while kRunning, the final count
  /// when kDone (0 for a cache hit — nothing was simulated).
  std::uint64_t events = 0;
  std::string tenant;
  std::string address;
  std::string error;  ///< non-empty exactly when kFailed
  double queue_ms = 0.0;  ///< submit -> worker pickup (so far, if queued)
  double run_ms = 0.0;    ///< pickup -> completion (so far, if running)
  std::shared_ptr<const std::string> result;
};

/// Per-request span: where one job's wall-clock went, stage by stage.
/// Stage identities (tenant, address, program, state, cache_hit, events)
/// are deterministic given the submission sequence; every *_ms field is
/// host wall-clock and must live in a dump's `meta` block (the
/// determinism gates strip it).
struct JobSpan {
  JobId id = 0;
  JobState state = JobState::kQueued;
  bool cache_hit = false;
  std::uint64_t events = 0;
  std::string tenant;
  std::string address;
  std::string program;
  std::string error;  ///< non-empty exactly when kFailed
  /// submit() time relative to service construction.
  double submit_offset_ms = 0.0;
  double queue_ms = 0.0;      ///< submit -> worker pickup
  double cache_ms = 0.0;      ///< result-cache lookup
  double setup_ms = 0.0;      ///< engine + machine construction (miss only)
  double exec_ms = 0.0;       ///< simulation execution (miss only)
  double serialize_ms = 0.0;  ///< dump build + serialise (miss only)
  double total_ms = 0.0;      ///< submit -> terminal state (so far if live)
  /// Engine + machine destruction (miss only). It runs after the job is
  /// terminal, so it lies outside total_ms.
  double teardown_ms = 0.0;
};

/// One tenant's SLO account. Counters are deterministic per submission
/// sequence; the histograms record host wall-clock microseconds and are
/// therefore meta-only in dumps.
struct TenantStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;  ///< jobs a worker actually simulated
  std::uint64_t rejected = 0;      ///< try_submit refusals (queue full)
  std::uint64_t backpressure_stalls = 0;  ///< submit() calls that waited
  perf::Histogram latency_us;     ///< submit -> terminal state
  perf::Histogram queue_wait_us;  ///< submit -> worker pickup
};

struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t rejected = 0;
  std::uint64_t backpressure_stalls = 0;
  std::size_t queue_depth = 0;
  int workers = 0;
  double uptime_ms = 0.0;
  ResultCache::Stats cache;
  /// ParallelSim epoch-profile totals across all executed jobs (zero when
  /// every job ran serial or hit the cache).
  std::uint64_t engine_epochs = 0;
  std::uint64_t engine_merge_ns = 0;
  std::uint64_t engine_barrier_ns = 0;
  /// Keyed by tenant name; deterministic iteration order (std::map).
  std::map<std::string, TenantStats> tenants;
};

class Service {
 public:
  struct Options {
    /// Worker threads, each running one job at a time on its own engine
    /// instance (a job's own core budget comes from its spec's threads).
    int workers = 2;
    /// Bounded queue capacity — the backpressure point.
    std::size_t queue_capacity = 1024;
    /// Result-cache byte budget. 0 turns the cache off: nothing is
    /// stored, so every job simulates (bench_serve's cache-ablation arm).
    std::size_t cache_bytes = std::size_t{64} << 20;
  };

  explicit Service(Options opts);
  ~Service();  // shutdown() + join

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Validates, enqueues and returns the job id. Blocks while the queue
  /// is full (backpressure); throws SpecError on a bad spec and
  /// std::runtime_error after shutdown().
  JobId submit(const std::string& tenant, const JobSpec& spec);

  /// Non-blocking submit: false when the queue is full.
  bool try_submit(const std::string& tenant, const JobSpec& spec,
                  JobId* out);

  /// Snapshot of a job's state; throws std::out_of_range for an unknown
  /// id. Callable from any thread at any time.
  JobStatus status(JobId id) const;

  /// Block until the job reaches kDone or kFailed; returns the final
  /// status.
  JobStatus wait(JobId id);

  /// One consistent snapshot: every counter pair in the result (e.g.
  /// completed + failed vs submitted) was read under a single lock
  /// acquisition, so `completed + failed <= submitted` always holds in
  /// the returned value even while submits and completions race.
  ServiceStats stats() const;

  /// Stage-by-stage span for one job; throws std::out_of_range for an
  /// unknown id. Callable from any thread at any time (live jobs report
  /// stages completed so far).
  JobSpan span(JobId id) const;

  /// Spans for every job the service has seen, in id order.
  std::vector<JobSpan> spans() const;

  /// Stop accepting submissions, drain the queue, join the workers.
  /// Idempotent.
  void shutdown();

 private:
  struct JobRecord {
    JobSpec spec;
    std::string tenant;
    std::string address;
    JobState state = JobState::kQueued;
    bool cache_hit = false;
    std::uint64_t final_events = 0;
    std::string error;
    std::shared_ptr<const std::string> result;
    /// Non-null only while a worker executes this job; guarded by mu_.
    const JobRun* running = nullptr;
    std::chrono::steady_clock::time_point submitted{};
    std::chrono::steady_clock::time_point started{};
    std::chrono::steady_clock::time_point finished{};
    // Span stage durations, filled in as the job advances (guarded by
    // mu_ like the rest of the record).
    double cache_ms = 0.0;
    double setup_ms = 0.0;
    double exec_ms = 0.0;
    double serialize_ms = 0.0;
    double teardown_ms = 0.0;
  };

  void worker_loop();
  void run_job(JobRecord& rec);  // called unlocked
  JobStatus snapshot_locked(JobId id, const JobRecord& rec) const;
  JobSpan span_locked(JobId id, const JobRecord& rec) const;
  /// Terminal-state bookkeeping: sets state + finished, bumps the global
  /// and per-tenant counters, records the SLO histograms. Caller holds
  /// mu_ and has already set cache_hit/result/error as appropriate.
  void finish_locked(JobRecord& rec, JobState state);
  JobId create_record(const std::string& tenant, const JobSpec& spec);

  Options opts_;
  ResultCache cache_;
  JobQueue queue_;

  mutable std::mutex mu_;
  mutable std::condition_variable done_cv_;
  std::deque<std::unique_ptr<JobRecord>> jobs_;  ///< index == JobId
  std::map<std::string, TenantStats> tenants_;   ///< guarded by mu_
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t backpressure_stalls_ = 0;
  std::uint64_t engine_epochs_ = 0;
  std::uint64_t engine_merge_ns_ = 0;
  std::uint64_t engine_barrier_ns_ = 0;
  bool shut_down_ = false;
  std::chrono::steady_clock::time_point born_{};

  std::vector<std::thread> workers_;
};

}  // namespace fpst::serve
