// bench_serve — open-loop request storm against the in-process
// serve::Service (src/serve/service.hpp). README "Serving", DESIGN.md §7.
//
// Three phases, each a fresh service instance:
//
//   mixed       a storm of >= 1000 requests across four tenants mixing all
//               three workload programs, ~half duplicates of a small hot
//               set — the service-level throughput/latency figure
//   dup_cache   a duplicate-heavy storm (~90% repeats of 8 specs) with the
//               result cache on
//   dup_nocache the identical storm with the cache disabled — every job
//               simulates; dup_cache/dup_nocache is the cache speedup
//
// Submission is open-loop: every request is enqueued as fast as submit()
// returns (the queue is sized to the storm, so producers never block), then
// the storm drains through the worker pool. Per-job latency is
// queue_ms + run_ms from the job's own record; jobs/sec is completions
// over the submit-first to drain-last wall interval.
//
// Every phase also audits the cache contract: all completed results for
// the same content address must be byte-identical, and a cache hit must
// report zero simulated events.
//
//   $ bench_serve [--jobs N] [--dup-jobs N] [--workers N] [--json out.json]
//
// --json writes a BENCH record (bench_record.hpp): results.rows one row per
// phase; results.cache_speedup / byte_identical / completion_frac as the CI
// gate fields, plus the mixed-storm p50/p90/p99 submit->complete latency as
// the SLO figures ci.sh stage 8 gates p99 against.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_record.hpp"
#include "bench_util.hpp"
#include "perf/json.hpp"
#include "serve/service.hpp"
#include "sim/bits.hpp"
#include "tool_util.hpp"

namespace {

using namespace fpst;
using serve::JobId;
using serve::JobSpec;
using serve::JobState;
using serve::JobStatus;

/// Deterministic storm generator (no host entropy: the same flags always
/// submit the same request sequence).
struct Rng {
  std::uint64_t state;
  std::uint64_t next() { return bits::splitmix64_next(state); }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

constexpr const char* kPrograms[] = {"allreduce", "ring", "saxpy"};
constexpr const char* kTenants[] = {"ana", "bob", "cam", "dee"};

/// A small spec kept cheap on purpose: the storm measures service
/// machinery (queueing, dispatch, cache), not simulation depth.
JobSpec make_spec(Rng& rng, std::uint64_t seed) {
  JobSpec spec;
  spec.program = kPrograms[rng.below(3)];
  spec.dimension = 1 + static_cast<int>(rng.below(2));
  spec.threads = 1 << rng.below(3);  // 1, 2 or 4
  spec.rounds = 1 + static_cast<int>(rng.below(2));
  spec.elems = 4 + static_cast<int>(rng.below(5));
  spec.seed = seed;
  return spec;
}

struct PhaseResult {
  std::string name;
  int jobs = 0;
  int workers = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cache_hits = 0;
  double completion_frac = 0.0;
  double hit_rate = 0.0;
  double wall_s = 0.0;
  double jobs_per_sec = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  bool byte_identical = true;
  bool hits_zero_events = true;
};

double quantile(std::vector<double>* sorted, double q) {
  if (sorted->empty()) {
    return 0.0;
  }
  std::sort(sorted->begin(), sorted->end());
  const double pos = q * static_cast<double>(sorted->size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted->size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return (*sorted)[lo] * (1.0 - frac) + (*sorted)[hi] * frac;
}

/// Run one storm phase: `jobs` requests, `dup_percent` of which re-draw
/// from a hot pool of `pool_size` specs (the rest get unique seeds).
PhaseResult run_phase(const std::string& name, int jobs, int dup_percent,
                      int pool_size, int workers, bool cache_enabled) {
  serve::Service::Options opts;
  opts.workers = workers;
  opts.queue_capacity = static_cast<std::size_t>(jobs);  // open loop
  opts.cache_enabled = cache_enabled;
  serve::Service service{opts};

  Rng rng{0x5e21ed0c0ffeeULL};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<JobId> ids;
  ids.reserve(static_cast<std::size_t>(jobs));
  for (int i = 0; i < jobs; ++i) {
    const bool dup = rng.below(100) < static_cast<std::uint64_t>(dup_percent);
    // Hot-pool seeds live in [1, pool_size]; unique seeds start at 1000.
    const std::uint64_t seed =
        dup ? 1 + rng.below(static_cast<std::uint64_t>(pool_size))
            : 1000 + static_cast<std::uint64_t>(i);
    // The hot pool must be reproducible per seed, so dup specs derive
    // their shape from the seed alone, not from the storm position.
    Rng spec_rng{dup ? seed : rng.next()};
    const JobSpec spec = make_spec(spec_rng, seed);
    const std::string tenant = kTenants[static_cast<std::size_t>(i) % 4];
    ids.push_back(service.submit(tenant, spec));
  }

  PhaseResult r;
  r.name = name;
  r.jobs = jobs;
  r.workers = workers;
  std::vector<double> latencies_ms;
  latencies_ms.reserve(ids.size());
  std::map<std::string, std::shared_ptr<const std::string>> first_bytes;
  for (const JobId id : ids) {
    const JobStatus st = service.wait(id);
    if (st.state == JobState::kDone) {
      ++r.completed;
      latencies_ms.push_back(st.queue_ms + st.run_ms);
      if (st.cache_hit) {
        ++r.cache_hits;
        if (st.events != 0) {
          r.hits_zero_events = false;
        }
      }
      if (st.result) {
        const auto [it, inserted] = first_bytes.emplace(st.address, st.result);
        if (!inserted && *it->second != *st.result) {
          r.byte_identical = false;
        }
      }
    } else {
      ++r.failed;
      std::fprintf(stderr, "bench_serve: job %llu failed: %s\n",
                   static_cast<unsigned long long>(id), st.error.c_str());
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  service.shutdown();

  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.completion_frac =
      static_cast<double>(r.completed) / static_cast<double>(jobs);
  r.hit_rate = r.completed > 0 ? static_cast<double>(r.cache_hits) /
                                     static_cast<double>(r.completed)
                               : 0.0;
  r.jobs_per_sec =
      r.wall_s > 0.0 ? static_cast<double>(r.completed) / r.wall_s : 0.0;
  r.p50_ms = quantile(&latencies_ms, 0.50);
  r.p90_ms = quantile(&latencies_ms, 0.90);
  r.p99_ms = quantile(&latencies_ms, 0.99);
  return r;
}

void print_row(const PhaseResult& r) {
  std::printf(
      "  %-12s %6d %8d %7llu %7llu %9.3f %9.1f %8.2f %8.2f %8.2f %5.0f%%\n",
      r.name.c_str(), r.jobs, r.workers,
      static_cast<unsigned long long>(r.completed),
      static_cast<unsigned long long>(r.failed), r.wall_s, r.jobs_per_sec,
      r.p50_ms, r.p90_ms, r.p99_ms, r.hit_rate * 100.0);
}

perf::json::Value row_to_json(const PhaseResult& r) {
  namespace json = perf::json;
  json::Value o = json::Value::object();
  o["phase"] = json::Value::string(r.name);
  o["jobs"] = json::Value::integer(r.jobs);
  o["workers"] = json::Value::integer(r.workers);
  o["completed"] = json::Value::integer(static_cast<std::int64_t>(r.completed));
  o["failed"] = json::Value::integer(static_cast<std::int64_t>(r.failed));
  o["cache_hits"] =
      json::Value::integer(static_cast<std::int64_t>(r.cache_hits));
  o["completion_frac"] = json::Value::number(r.completion_frac);
  o["hit_rate"] = json::Value::number(r.hit_rate);
  o["wall_s"] = json::Value::number(r.wall_s);
  o["jobs_per_sec"] = json::Value::number(r.jobs_per_sec);
  o["p50_ms"] = json::Value::number(r.p50_ms);
  o["p90_ms"] = json::Value::number(r.p90_ms);
  o["p99_ms"] = json::Value::number(r.p99_ms);
  o["byte_identical"] = json::Value::boolean(r.byte_identical);
  o["hits_zero_events"] = json::Value::boolean(r.hits_zero_events);
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  int jobs = 1200;
  int dup_jobs = 400;
  int workers = 2;
  std::string json_out;
  std::string metric;
  std::vector<std::string> record;
  if (!tools::Flags{"bench_serve"}
           .number("--jobs", &jobs, 1)
           .number("--dup-jobs", &dup_jobs, 1)
           .number("--workers", &workers, 1, 1024)
           .text("--json", &json_out)
           .text("--metric", &metric)
           .positional(&record)
           .parse(argc, argv)) {
    return 2;
  }
  if (!metric.empty() || !record.empty()) {
    return bench::print_metric("bench_serve", metric, record);
  }

  bench::title("tsim serve: open-loop request storm");
  std::printf("  host cores: %u\n", std::thread::hardware_concurrency());
  std::printf("  %-12s %6s %8s %7s %7s %9s %9s %8s %8s %8s %6s\n", "phase",
              "jobs", "workers", "done", "failed", "wall_s", "jobs/s",
              "p50_ms", "p90_ms", "p99_ms", "hits");

  // Phase 1: the headline mixed storm — half the requests re-draw from a
  // 16-spec hot set, so the cache sees a realistic mixture.
  const PhaseResult mixed =
      run_phase("mixed", jobs, 50, 16, workers, /*cache_enabled=*/true);
  print_row(mixed);

  // Phases 2+3: the cache ablation — same duplicate-heavy storm with and
  // without the result cache.
  const PhaseResult dup_cache =
      run_phase("dup_cache", dup_jobs, 90, 8, workers, /*cache_enabled=*/true);
  print_row(dup_cache);
  const PhaseResult dup_nocache = run_phase("dup_nocache", dup_jobs, 90, 8,
                                            workers, /*cache_enabled=*/false);
  print_row(dup_nocache);

  const double speedup = dup_nocache.jobs_per_sec > 0.0
                             ? dup_cache.jobs_per_sec / dup_nocache.jobs_per_sec
                             : 0.0;
  const bool byte_identical =
      mixed.byte_identical && dup_cache.byte_identical &&
      mixed.hits_zero_events && dup_cache.hits_zero_events;
  std::printf("\n  cache speedup (dup_cache / dup_nocache): %.2fx\n", speedup);
  std::printf("  byte-identical cached results: %s\n",
              byte_identical ? "yes" : "NO");

  if (!json_out.empty()) {
    namespace json = perf::json;
    json::Value results = json::Value::object();
    json::Value rows = json::Value::array();
    rows.append(row_to_json(mixed));
    rows.append(row_to_json(dup_cache));
    rows.append(row_to_json(dup_nocache));
    results["rows"] = std::move(rows);
    results["cache_speedup"] = json::Value::number(speedup);
    results["byte_identical"] = json::Value::boolean(byte_identical);
    results["completion_frac"] = json::Value::number(mixed.completion_frac);
    results["hit_rate"] = json::Value::number(mixed.hit_rate);
    results["jobs_per_sec"] = json::Value::number(mixed.jobs_per_sec);
    // Mixed-storm submit->complete latency distribution: the SLO figures
    // ci.sh stage 8 gates p99 against (flavour-tagged like jobs_per_sec).
    results["p50_ms"] = json::Value::number(mixed.p50_ms);
    results["p90_ms"] = json::Value::number(mixed.p90_ms);
    results["p99_ms"] = json::Value::number(mixed.p99_ms);
    bench::write_record(json_out, "bench_serve", std::move(results));
    std::printf("wrote perf dump: %s\n", json_out.c_str());
  }
  return byte_identical && mixed.completed > 0 ? 0 : 1;
}
