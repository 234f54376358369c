// JobRun: executes one JobSpec as a simulation and captures the result.
//
// A run builds a fresh engine (serial Simulator, or the sharded
// ParallelSim when the spec asks for threads > 1), a TSeries machine of
// 2^dimension nodes with machine-wide perf collection attached, and an
// occam Runtime, and stages the spec's program: saxpy writes its arrays
// into node memory. All of that is the constructor's, so a Service times
// it as the job's setup. execute() then runs the program and serialises
// the tperf dump to bytes. Everything that shapes the simulation — the shard
// partition included — is derived from the spec alone, never from the
// host, so the bytes are a pure function of the spec (the property the
// content-addressed cache rests on).
//
// The run executes on the calling (worker) thread; progress() may be read
// concurrently from any other thread while execute() is in flight.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "serve/job_spec.hpp"
#include "sim/time.hpp"

namespace fpst::core {
class TSeries;
}
namespace fpst::occam {
class Runtime;
}
namespace fpst::perf {
class CounterRegistry;
}
namespace fpst::sim {
class ParallelSim;
class Simulator;
}

namespace fpst::serve {

struct RunOutcome {
  /// The complete dump document bytes (pretty-printed JSON + trailing
  /// newline, exactly what perf::write_file would put on disk).
  std::shared_ptr<const std::string> dump;
  /// Engine events executed by this run (deterministic per spec).
  std::uint64_t events = 0;
  /// Simulated completion time.
  sim::SimTime sim_elapsed{};
  /// Workload checksum (also embedded in the dump's results table).
  double checksum = 0.0;

  // Host wall-clock stage timings for the serve layer's request spans.
  // These describe the host, not the simulation — they never enter the
  // dump bytes above (which must stay a pure function of the spec).
  double exec_ms = 0.0;       ///< engine run (rt.run) wall time
  double serialize_ms = 0.0;  ///< dump streaming (perf::write_dump) wall time

  // ParallelSim epoch-profile aggregates (zero for serial runs): how much
  // of exec_ms the sharded engine spent in serial merge phases and parked
  // at the epoch barrier, summed across workers. Wall-clock as well.
  std::uint64_t engine_epochs = 0;
  std::uint64_t engine_merge_ns = 0;
  std::uint64_t engine_barrier_ns = 0;
};

/// Shard count for a spec: the largest power of two <= min(threads,
/// nodes). Exposed so tests can pin the partition the runner derives.
int shards_for(const JobSpec& spec);

class JobRun {
 public:
  /// Builds the engine and machine and stages the program; throws
  /// SpecError for an invalid spec.
  explicit JobRun(JobSpec spec);
  ~JobRun();

  JobRun(const JobRun&) = delete;
  JobRun& operator=(const JobRun&) = delete;

  /// Events executed so far. Safe from any thread while another thread is
  /// inside execute() — backed by Simulator::events_processed() /
  /// ParallelSim::events_processed() (single-writer relaxed atomics;
  /// monotonic, no synchronizes-with edge).
  std::uint64_t progress() const;

  /// Run the program to completion and serialise the dump. Call once,
  /// from one thread.
  RunOutcome execute();

  /// The machine the job runs on, to inspect once execute() returned.
  core::TSeries& machine() { return *machine_; }

 private:
  struct Program;

  JobSpec spec_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<sim::ParallelSim> psim_;
  std::unique_ptr<perf::CounterRegistry> reg_;
  std::unique_ptr<core::TSeries> machine_;
  std::unique_ptr<occam::Runtime> runtime_;
  std::unique_ptr<Program> program_;
};

}  // namespace fpst::serve
