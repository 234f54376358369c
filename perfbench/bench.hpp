// perfbench: the repo benchmark. Shared types for the two workloads, the
// untraced serve phase, the traced layer replay and the report.
//
// A run is one workload, one seed and a fixed amount of work: the request
// list is a pure function of (workload, seed, seconds), so the same flags
// always hand serve::Service the same JobSpecs. See README.md for what each
// metric means and which layer metric should move which end-to-end metric.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/job_spec.hpp"
#include "serve/service.hpp"

namespace perfbench {

using fpst::serve::JobSpec;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// splitmix64: serve::JobRun's (seed, node) -> data map, and the mixer of
/// the workload generator.
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  std::string trace_out;  ///< where the traced run writes its spans
  bool smoke = false;     ///< tiny sizes, for the benchmark's own tests
  std::string inject;     ///< "", "dump" or "events": corrupt one result
};

/// One request of the timed phase.
struct Request {
  std::string tenant;
  JobSpec spec;
  int hot = -1;  ///< index into Workload::warmup when this repeats a hot spec
};

/// Fixed inputs for one run, generated from the seed alone.
struct Workload {
  std::string name;
  int clients = 1;
  int workers = 1;
  /// Result-cache budget (tsim run-server --cache-mb).
  std::size_t cache_mb = 64;
  /// Set-ups per untraced run; setup_s is their median.
  int setups = 3;
  /// Set-up jobs: serve_mix's pre-warmed hot set, or cube10's warm-up jobs.
  std::vector<JobSpec> warmup;
  std::vector<Request> requests;
  /// Re-run outside the timed phase through serve::JobRun; a result that
  /// does not reproduce byte for byte fails its request.
  std::vector<std::size_t> rerun;
};

/// Throws std::invalid_argument for an unknown workload name.
Workload make_workload(const Args& args);

/// What the client saw for one request.
struct Sample {
  Clock::time_point start{};  ///< just before submit()
  double latency_ms = 0.0;  ///< submit() until the result bytes are in hand
  double submit_us = 0.0;   ///< the submit() call alone
  fpst::serve::JobId id = 0;
  fpst::serve::JobStatus status;
};

/// A Service after set-up, with the warm-up results it produced.
struct Setup {
  std::unique_ptr<fpst::serve::Service> service;
  std::vector<std::shared_ptr<const std::string>> warm_results;
  double seconds = 0.0;
};

/// Service construction plus the workload's warm-up or hot-set pre-warm.
Setup set_up(const Workload& w);

/// The closed loop: `w.clients` threads each take the next request, call
/// submit() then wait(), and record the latency. Returns one sample per
/// request, in request order, and the phase's wall time.
std::vector<Sample> run_timed(const Workload& w, fpst::serve::Service& svc,
                              double* wall_s);

/// Output checks. Returns one verdict per request (true = passed) and
/// appends a line per failure to `why`.
std::vector<bool> check_results(const Workload& w, const Setup& setup,
                                const std::vector<Sample>& samples,
                                std::vector<std::string>* why);

/// Apply Args::inject to one sample so the checks must catch it.
void inject_fault(const Args& args, const Workload& w,
                  std::vector<Sample>* samples);

// ---- report ---------------------------------------------------------------

/// One printed metric: `metric <name> <value> <unit>  [note]`.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

/// Linear-interpolated quantile, q in [0, 1]. Empty input gives 0.
double quantile(std::vector<double> xs, double q);
double median(std::vector<double> xs);

/// The highest of p50/p75/p90/p95/p99 with at least ten samples beyond
/// it; 50 when there are fewer than 20 samples.
int tail_percentile(std::size_t n);

/// Peak resident set of this process, MiB (VmHWM).
double peak_rss_mb();

/// "nproc=4 cpu=... build=RelWithDebInfo compiler=..." for every result.
std::string host_provenance();

/// Prints every metric line, then the final JSON object as the last line.
void print_result(const std::vector<Metric>& metrics, std::size_t attempted,
                  std::size_t failed);

// ---- traced run -----------------------------------------------------------

/// The traced invocation: set-up, the serve phase with per-request spans,
/// then a layer-by-layer replay of a fixed sample of its jobs. Returns the
/// per-layer metrics; adds to *attempted / *failed for its own checks.
std::vector<Metric> run_traced(const Args& args, const Workload& w,
                               std::size_t* attempted, std::size_t* failed);

}  // namespace perfbench
