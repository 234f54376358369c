// perfbench — the repo benchmark's binary (run.py builds and runs it).
//
//   perfbench --workload serve_mix|cube10 --seed N
//             --seconds S --trace 0|1 [--trace-out spans.json]
//             [--smoke] [--inject dump|events]
//
// --trace 0 measures the end-to-end metrics with tracing off: set-up several
// times (median), then the timed phase over the workload's fixed request
// list, then the output checks. --trace 1 is the separate traced run that
// reports the per-layer metrics (traced.cpp). --smoke shrinks every size for
// the benchmark's own tests; --inject corrupts one result so a test can
// prove the checks catch it.
//
// Every metric prints as `metric <name> <value> <unit>`; the last line of
// stdout is one JSON object {correct, attempted, failed, metrics}.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload serve_mix|cube10 "
               "--seed N --seconds S --trace 0|1 [--trace-out PATH] "
               "[--smoke] [--inject dump|events]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage(arg + " needs a value");
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      a.workload = value();
    } else if (arg == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      a.seconds = std::atoi(value().c_str());
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") {
        usage("--trace takes 0 or 1");
      }
      a.trace = v == "1";
    } else if (arg == "--trace-out") {
      a.trace_out = value();
    } else if (arg == "--smoke") {
      a.smoke = true;
    } else if (arg == "--inject") {
      a.inject = value();
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (a.workload.empty()) {
    usage("--workload is required");
  }
  if (a.seconds < 1 || a.seconds > 600) {
    usage("--seconds must be in 1..600");
  }
  return a;
}

int run(const Args& args) {
  const Workload w = make_workload(args);
  std::printf("# perfbench workload=%s seed=%llu seconds=%d trace=%d%s\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.smoke ? " smoke" : "");
  std::printf("# host %s\n", host_provenance().c_str());
  std::printf("# requests=%zu clients=%d workers=%d warmup_jobs=%zu\n",
              w.requests.size(), w.clients, w.workers, w.warmup.size());
  std::fflush(stdout);

  std::size_t attempted = 0;
  std::size_t failed = 0;
  if (args.trace) {
    const std::vector<Metric> m = run_traced(args, w, &attempted, &failed);
    print_result(m, attempted, failed);
    return 0;
  }

  // Set-up is repeated and its median reported, so one slow page-fault
  // burst does not decide setup_s; the last Service serves the timed phase.
  const int reps = args.smoke ? 1 : w.setups;
  std::vector<double> setup_s;
  Setup setup;
  for (int r = 0; r < reps; ++r) {
    setup = Setup{};  // the previous Service and its dumps go first
    setup = set_up(w);
    setup_s.push_back(setup.seconds);
  }
  double wall_s = 0.0;
  std::vector<Sample> samples = run_timed(w, *setup.service, &wall_s);
  // Before the checks, whose re-runs build machines of their own.
  const double rss_mb = peak_rss_mb();
  inject_fault(args, w, &samples);
  std::vector<std::string> why;
  const std::vector<bool> ok = check_results(w, setup, samples, &why);
  for (const std::string& line : why) {
    std::printf("check failed: %s\n", line.c_str());
  }
  attempted = samples.size();
  std::vector<double> latency;
  std::size_t hits = 0;
  std::size_t completed = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    failed += ok[i] ? 0U : 1U;
    latency.push_back(samples[i].latency_ms);
    hits += samples[i].status.cache_hit ? 1U : 0U;
    completed +=
        samples[i].status.state == fpst::serve::JobState::kDone ? 1U : 0U;
  }
  // Where the latency distribution comes from: misses by dimension.
  std::map<int, std::vector<double>> by_dim_ms, by_dim_mb;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (!samples[i].status.cache_hit && samples[i].status.result) {
      const int d = w.requests[i].spec.dimension;
      by_dim_ms[d].push_back(samples[i].latency_ms);
      by_dim_mb[d].push_back(
          static_cast<double>(samples[i].status.result->size()) / (1 << 20));
    }
  }
  for (const auto& [d, ms] : by_dim_ms) {
    std::printf("# misses dimension %d: n=%zu p50 %.3f ms, dump p50 %.3f MB\n",
                d, ms.size(), median(ms), median(by_dim_mb[d]));
  }
  // Each cube10 job with the Service's stage times, so a slow host phase
  // (every stage slower) can be told from one slow stage.
  if (w.name == "cube10") {
    std::printf("# latencies ms (setup/exec/serialize):");
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const fpst::serve::JobSpan sp = setup.service->span(samples[i].id);
      std::printf(" %.0f(%.0f/%.0f/%.0f)", latency[i], sp.setup_ms,
                  sp.exec_ms, sp.serialize_ms);
    }
    std::printf("\n# set-ups s:");
    for (const double s : setup_s) {
      std::printf(" %.3f", s);
    }
    std::printf("\n");
  }
  const int tail = tail_percentile(latency.size());
  const std::string n = "n=" + std::to_string(latency.size());
  std::printf("# cache hits=%zu of %zu requests\n", hits, samples.size());
  const std::vector<Metric> m = {
      {"setup_s", median(setup_s), "s",
       "median of " + std::to_string(reps) + " set-ups"},
      {"p50_ms", median(latency), "ms", n},
      {"tail_ms", quantile(latency, tail / 100.0), "ms",
       n + " p" + std::to_string(tail)},
      {"jobs_per_sec", static_cast<double>(completed) / wall_s, "1/s",
       "timed phase " + std::to_string(wall_s) + " s"},
      {"peak_rss_mb", rss_mb, "MB", "VmHWM after the timed phase"},
  };
  print_result(m, attempted, failed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
