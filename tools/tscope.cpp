// tscope — message-flight analysis of a tperf dump (see src/perf/tscope.hpp
// for the event grammar the transport layers emit).
//
// Stitches per-hop timeline events into flight records and reports
// end-to-end latency percentiles, per-hop queueing vs wire time, the
// per-cube-edge congestion heatmap against net/hypercube's static e-cube
// prediction, and the critical path through the message-causality DAG.
//
// This tool sits above both libraries: perf computes the observed side
// (hops, popcount minima) and net computes the predicted side
// (ecube_edge_traffic); --check-ecube compares them.
//
// Exit codes: 0 report printed, 1 --check-ecube violation, 2 usage or
// unreadable dump.
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/hypercube.hpp"
#include "perf/chrome_trace.hpp"
#include "perf/tscope.hpp"
#include "tool_util.hpp"

namespace {

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: tscope [options] <dump.json>\n"
               "\n"
               "  (default)       full message report: counts, latency\n"
               "                  p50/p90/p99, queueing vs wire breakdown,\n"
               "                  critical path\n"
               "  --summary       per-node sent/received/forwarded table\n"
               "  --edges         per-edge crossings vs the static e-cube\n"
               "                  congestion prediction\n"
               "  --check-ecube   verify the routing invariants and exit 1\n"
               "                  on violation: max hops <= log2 n, every\n"
               "                  route minimal, observed edge crossings ==\n"
               "                  prediction, no dropped/incomplete flights\n"
               "  --json          machine-readable message report\n"
               "  --metric <m>    print one value: messages | max_hops |\n"
               "                  p50_us | p99_us | critical_path_frac\n"
               "  -h, --help      this text\n");
}

/// The static prediction for the dump's observed flows, as perf EdgeLoads.
std::vector<fpst::perf::EdgeLoad> predict(const fpst::perf::MessageReport& r) {
  fpst::net::Hypercube cube{r.meta.dimension};
  std::vector<std::pair<fpst::net::NodeId, fpst::net::NodeId>> flows;
  flows.reserve(r.flights.size());
  for (const fpst::perf::Flight& f : r.flights) {
    flows.emplace_back(f.src, f.dst);
  }
  std::vector<fpst::perf::EdgeLoad> out;
  for (const fpst::net::EdgeTraffic& e :
       fpst::net::ecube_edge_traffic(cube, flows)) {
    out.push_back(fpst::perf::EdgeLoad{e.a, e.b, e.crossings});
  }
  return out;
}

int check_ecube(const fpst::perf::MessageReport& r) {
  int failures = 0;
  if (r.spans_dropped > 0) {
    std::fprintf(stderr,
                 "tscope: FAIL %llu spans dropped — raise the timeline "
                 "capacity to trace this run\n",
                 static_cast<unsigned long long>(r.spans_dropped));
    ++failures;
  }
  if (r.incomplete > 0) {
    std::fprintf(stderr, "tscope: FAIL %llu incomplete flight record(s)\n",
                 static_cast<unsigned long long>(r.incomplete));
    ++failures;
  }
  if (r.max_hops > r.meta.dimension) {
    std::fprintf(stderr,
                 "tscope: FAIL max hops %d exceeds the cube diameter "
                 "log2 n = %d\n",
                 r.max_hops, r.meta.dimension);
    ++failures;
  }
  if (!r.ecube_minimal) {
    std::fprintf(stderr,
                 "tscope: FAIL a message took more hops than "
                 "popcount(src^dst)\n");
    ++failures;
  }
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> observed;
  for (const fpst::perf::EdgeLoad& e : r.edges) {
    observed[{e.a, e.b}] = e.crossings;
  }
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> predicted;
  for (const fpst::perf::EdgeLoad& e : predict(r)) {
    predicted[{e.a, e.b}] = e.crossings;
  }
  if (observed != predicted) {
    std::fprintf(stderr,
                 "tscope: FAIL observed edge crossings deviate from the "
                 "static e-cube prediction\n");
    ++failures;
  }
  if (failures == 0) {
    std::printf(
        "tscope: OK %zu messages, max hops %d <= log2 n = %d, all routes "
        "minimal, %zu edges match the e-cube prediction\n",
        r.flights.size(), r.max_hops, r.meta.dimension, r.edges.size());
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool help = false;
  bool summary = false;
  bool edges = false;
  bool check = false;
  bool json = false;
  std::string metric;
  std::vector<std::string> paths;
  fpst::tools::Flags flags{"tscope"};
  flags.flag("-h", &help)
      .flag("--help", &help)
      .flag("--summary", &summary)
      .flag("--edges", &edges)
      .flag("--check-ecube", &check)
      .flag("--json", &json)
      .text("--metric", &metric)
      .positional(&paths);
  if (!flags.parse(argc, argv)) {
    return 2;
  }
  if (help) {
    usage(stdout);
    return 0;
  }
  if (paths.size() != 1) {
    usage(stderr);
    return 2;
  }

  const std::optional<fpst::perf::Dump> dump =
      fpst::tools::load_dump("tscope", paths[0]);
  if (!dump) {
    return 2;
  }
  const fpst::perf::MessageReport report = fpst::perf::analyze_messages(*dump);

  if (!metric.empty()) {
    fpst::tools::MetricTable table;
    table.add("messages",
              [&] { return fpst::tools::fmt_u64(report.flights.size()); });
    table.add("max_hops", [&] { return std::to_string(report.max_hops); });
    table.add("p50_us", [&] {
      return fpst::tools::fmt_f6(report.latency_ps.quantile(0.50) * 1e-6);
    });
    table.add("p99_us", [&] {
      return fpst::tools::fmt_f6(report.latency_ps.quantile(0.99) * 1e-6);
    });
    table.add("critical_path_frac",
              [&] { return fpst::tools::fmt_f6(report.critical.wall_fraction); });
    return table.print("tscope", metric);
  }
  if (check) {
    return check_ecube(report);
  }
  if (json) {
    std::printf("%s\n",
                fpst::perf::messages_to_json(report).dump(2).c_str());
    return 0;
  }
  if (summary) {
    std::fputs(fpst::perf::render_message_summary(report).c_str(), stdout);
    return 0;
  }
  if (edges) {
    std::fputs(fpst::perf::render_edges(report, predict(report)).c_str(),
               stdout);
    return 0;
  }
  std::fputs(fpst::perf::render_messages(report).c_str(), stdout);
  return 0;
}
