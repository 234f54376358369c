// ttrace — inspect a tperf dump (see src/perf/chrome_trace.hpp for the
// format; any instrumented bench or example writes one via --json or a
// path argument).
//
// Prints the machine-wide utilization report: per-node VPU/CP busy and
// overlap fractions, measured MFLOPS against the 16 MFLOPS/node ceiling,
// per-link saturation against 0.5 MB/s, and the paper's 1:13:130 balance
// verdicts. The same file opens unmodified in chrome://tracing or Perfetto
// for the span timeline view.
//
// Exit codes: 0 report printed (balance violations included), 1 balance
// violation with --fail-on-violation, 2 usage or unreadable dump.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "perf/chrome_trace.hpp"
#include "perf/report.hpp"
#include "perf/tscope.hpp"
#include "tool_util.hpp"

namespace {

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: ttrace [options] <dump.json>\n"
               "\n"
               "  --metric <name>       print a single value and exit:\n"
               "                        active_mflops | aggregate_mflops |\n"
               "                        total_flops | wall_us\n"
               "  --messages            message-flight report (latency\n"
               "                        percentiles, critical path) instead\n"
               "                        of the utilization report\n"
               "  --summary             per-node message table\n"
               "  --fail-on-violation   exit 1 when a balance rule is "
               "violated\n"
               "  -h, --help            this text\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string metric;
  std::vector<std::string> paths;
  bool help = false;
  bool fail_on_violation = false;
  bool messages = false;
  bool summary = false;
  fpst::tools::Flags flags{"ttrace"};
  flags.flag("-h", &help)
      .flag("--help", &help)
      .flag("--fail-on-violation", &fail_on_violation)
      .flag("--messages", &messages)
      .flag("--summary", &summary)
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

  const std::optional<fpst::perf::Dump> loaded =
      fpst::tools::load_dump("ttrace", paths[0]);
  if (!loaded) {
    return 2;
  }
  const fpst::perf::Dump& dump = *loaded;
  if (dump.spans_dropped > 0) {
    std::fprintf(stderr,
                 "ttrace: warning: %llu timeline spans were dropped (ring "
                 "capacity %llu) — span-derived views are incomplete\n",
                 static_cast<unsigned long long>(dump.spans_dropped),
                 static_cast<unsigned long long>(dump.span_capacity));
  }

  if (messages || summary) {
    const fpst::perf::MessageReport mr = fpst::perf::analyze_messages(dump);
    if (messages) {
      std::fputs(fpst::perf::render_messages(mr).c_str(), stdout);
    }
    if (summary) {
      std::fputs(fpst::perf::render_message_summary(mr).c_str(), stdout);
    }
    return 0;
  }

  const fpst::perf::MachineReport report = fpst::perf::analyze(dump);

  if (!metric.empty()) {
    fpst::tools::MetricTable table;
    table.add("active_mflops",
              [&] { return fpst::tools::fmt_f6(report.active_mflops); });
    table.add("aggregate_mflops",
              [&] { return fpst::tools::fmt_f6(report.aggregate_mflops); });
    table.add("total_flops",
              [&] { return fpst::tools::fmt_u64(report.total_flops); });
    table.add("wall_us", [&] { return fpst::tools::fmt_f6(report.wall.us()); });
    return table.print("ttrace", metric);
  }

  std::fputs(fpst::perf::render(report).c_str(), stdout);
  if (fail_on_violation && !report.balance_ok()) {
    return 1;
  }
  return 0;
}
