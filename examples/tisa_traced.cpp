// tisa_traced: run one assembled TISA program on a perf-attached node and
// dump the measurement in the tperf JSON schema — the measured half of the
// tcheck --predict cross-validation (DESIGN.md §4.4).
//
//   $ ./tisa_traced prog.tisa [out.json]     (default ./tisa_traced.json)
//   $ tcheck --predict prog.tisa --against out.json
//
// ci.sh runs this over examples/tisa/vform_saxpy.tisa and fails the build
// when the static prediction and this measurement diverge.
#include <cstdio>
#include <filesystem>
#include <string>

#include "cp/assembler.hpp"
#include "node/node.hpp"
#include "perf/chrome_trace.hpp"
#include "perf/counters.hpp"
#include "tool_util.hpp"

using namespace fpst;

int main(int argc, char** argv) try {
  std::string path;
  std::string out = "tisa_traced.json";
  tools::Flags flags{"tisa_traced"};
  flags.text("prog.tisa", &path).text("out.json", &out);
  if (!flags.parse(argc, argv)) {
    return 2;
  }
  if (!flags.seen("prog.tisa")) {
    std::fprintf(stderr,
                 "tisa_traced: usage: tisa_traced <prog.tisa> [out.json]\n");
    return 2;
  }
  std::string text;
  if (!tools::slurp(path, &text)) {
    std::fprintf(stderr, "tisa_traced: cannot read %s\n", path.c_str());
    return 2;
  }

  cp::Program prog;
  try {
    prog = cp::assemble(text);
  } catch (const cp::AsmError& e) {
    std::fprintf(stderr, "tisa_traced: %s: %s\n", path.c_str(), e.what());
    return 2;
  }

  sim::Simulator sim;
  node::Node nd{sim, 0};
  perf::CounterRegistry reg;
  nd.attach_perf(reg);
  reg.meta().workload =
      "tisa_traced:" + std::filesystem::path(path).filename().string();

  // Same entry convention as tcheck: the `main` symbol when defined.
  const auto it = prog.symbols.find("main");
  const std::uint32_t entry =
      it != prog.symbols.end() ? it->second : prog.entry();
  nd.cpu().load(prog);
  nd.cpu().start_process(entry, 0x8000, 1);
  sim.spawn(nd.cpu().run());
  sim.run();

  const sim::SimTime elapsed = sim.now();
  perf::json::Value results = perf::json::Value::object();
  results["elapsed_ps"] = perf::json::Value::integer(elapsed.ps());
  results["elapsed_us"] = perf::json::Value::number(elapsed.us());
  results["instructions"] = perf::json::Value::integer(
      static_cast<std::int64_t>(nd.cpu().instructions_executed()));
  perf::write_file(out, reg, elapsed, results);

  std::printf("%s: %llu instructions, %s simulated\n", path.c_str(),
              static_cast<unsigned long long>(nd.cpu().instructions_executed()),
              elapsed.to_string().c_str());
  std::printf("wrote %s — diff with `tcheck --predict %s --against %s`\n",
              out.c_str(), path.c_str(), out.c_str());
  return 0;
} catch (...) {
  return tools::refused("tisa_traced");
}
