// tcheck — static verifier and performance predictor for TISA programs
// and Occam communication skeletons. See README "Static verification" and
// DESIGN.md §6.
//
//   tcheck [options] <file.tisa | file.comm>...
//
//   .tisa files are assembled and run through the control-flow /
//   abstract-stack verifier (check/tisa_verify.hpp) plus the static cost
//   model (check/cost_model.hpp); .comm files are parsed as communication
//   skeletons and run through the wait-for-graph deadlock checker
//   (check/chan_graph.hpp) plus the per-edge volume analyzer
//   (check/comm_volume.hpp).
//
//   --entry SYM      TISA entry symbol (default: `main` if defined, else .org)
//   --werror         count warnings as errors for the exit status
//   --quiet          print nothing but the per-file verdict lines
//   --predict        print the predicted-performance summary per file
//   --json-out FILE  write the prediction(s) as JSON (tperf-schema fields)
//   --against DUMP   cross-validate the prediction against a measured tperf
//                    dump (tisa_traced / alltoall_traced output)
//   --tolerance X    relative tolerance for elapsed-time comparison under
//                    --against (default 0.02; counts compare exactly)
//
// Exit status: 0 when every file is clean; 1 when any file produced a
// validity error (the input would fault, deadlock or corrupt memory);
// 2 on usage or I/O problems; 3 when the only failures are performance-
// model violations (performance-class errors, or --against divergence).
#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "check/chan_graph.hpp"
#include "check/comm_volume.hpp"
#include "check/cost_model.hpp"
#include "check/tisa_verify.hpp"
#include "cp/assembler.hpp"
#include "occam/commspec.hpp"
#include "perf/chrome_trace.hpp"
#include "perf/tscope.hpp"
#include "tool_util.hpp"

namespace {

using namespace fpst;

struct Options {
  std::string entry;
  bool werror = false;
  bool quiet = false;
  bool predict = false;
  std::string json_out;
  std::string against;
  double tolerance = 0.02;
  std::vector<std::string> files;
};

int usage() {
  std::cerr << "usage: tcheck [--entry SYM] [--werror] [--quiet] "
               "[--predict] [--json-out FILE]\n"
               "              [--against DUMP] [--tolerance X] "
               "<file.tisa | file.comm>...\n";
  return 2;
}

const char* verdict_name(check::LoopVerdict v) {
  switch (v) {
    case check::LoopVerdict::kBounded:
      return "bounded";
    case check::LoopVerdict::kUnbounded:
      return "unbounded";
    case check::LoopVerdict::kUnknown:
      return "unknown";
  }
  return "unknown";
}

perf::json::Value prediction_to_json(const check::CostPrediction& p) {
  using perf::json::Value;
  Value doc = Value::object();
  doc["complete"] = Value::boolean(p.complete);
  doc["stop_reason"] = Value::string(p.stop_reason);
  doc["stop_addr"] = Value::integer(p.stop_addr);
  doc["instructions"] =
      Value::integer(static_cast<std::int64_t>(p.instructions));
  doc["flops"] = Value::integer(static_cast<std::int64_t>(p.flops));
  doc["vforms"] = Value::integer(static_cast<std::int64_t>(p.vforms));
  doc["elapsed_ps"] = Value::integer(p.elapsed.ps());
  doc["elapsed_us"] = Value::number(p.elapsed.us());
  doc["cp_busy_ps"] = Value::integer(p.cp_busy.ps());
  doc["vpu_busy_ps"] = Value::integer(p.vpu_busy.ps());
  doc["link_busy_ps"] = Value::integer(p.link_busy.ps());
  Value loops = Value::array();
  for (const check::LoopInfo& l : p.loops) {
    Value v = Value::object();
    v["head"] = Value::integer(l.head);
    v["back_edge"] = Value::integer(l.back_edge);
    v["verdict"] = Value::string(verdict_name(l.verdict));
    v["hot"] = Value::boolean(l.hot);
    v["iterations"] = Value::integer(static_cast<std::int64_t>(l.iterations));
    loops.append(std::move(v));
  }
  doc["loops"] = std::move(loops);
  return doc;
}

perf::json::Value volume_to_json(const check::VolumeAnalysis& v) {
  using perf::json::Value;
  Value doc = Value::object();
  doc["dimension"] = Value::integer(v.dimension);
  doc["messages"] = Value::integer(static_cast<std::int64_t>(v.messages));
  doc["payload_bytes"] =
      Value::integer(static_cast<std::int64_t>(v.payload_bytes));
  doc["total_hops"] = Value::integer(static_cast<std::int64_t>(v.total_hops));
  doc["max_edge_crossings"] =
      Value::integer(static_cast<std::int64_t>(v.max_edge_crossings));
  // The `edges` array matches the tscope message-report schema so the
  // prediction and the measurement diff structurally; `bytes` is the
  // prediction-only extension.
  std::vector<perf::EdgeLoad> loads;
  loads.reserve(v.edges.size());
  for (const net::EdgeTraffic& e : v.edges) {
    loads.push_back(perf::EdgeLoad{e.a, e.b, e.crossings});
  }
  Value edges = perf::edges_to_json(loads);
  for (std::size_t i = 0; i < v.edges.size(); ++i) {
    edges.as_array()[i]["bytes"] =
        Value::integer(static_cast<std::int64_t>(v.edges[i].bytes));
  }
  doc["edges"] = std::move(edges);
  return doc;
}

struct FileVerdict {
  std::size_t validity_errors = 0;
  std::size_t validity_warnings = 0;
  std::size_t perf_errors = 0;
  std::size_t perf_warnings = 0;
  bool io_failed = false;
  bool diverged = false;  ///< --against cross-validation failed
};

/// Compare a TISA prediction against a tisa_traced dump's `results`.
bool validate_tisa(const check::CostPrediction& pred, const std::string& path,
                   const perf::json::Value& dump, double tolerance) {
  const perf::json::Value* results = dump.find("results");
  if (results == nullptr || results->find("instructions") == nullptr ||
      results->find("elapsed_ps") == nullptr) {
    std::cerr << path << ": dump has no results.instructions/elapsed_ps "
              << "(not a tisa_traced dump?)\n";
    return false;
  }
  bool ok = true;
  if (!pred.complete) {
    std::printf("%s: prediction is incomplete (%s) — cannot cross-validate\n",
                path.c_str(), pred.stop_reason.c_str());
    ok = false;
  }
  const auto measured_instr = results->find("instructions")->as_int();
  const auto measured_ps = results->find("elapsed_ps")->as_int();
  if (static_cast<std::int64_t>(pred.instructions) != measured_instr) {
    std::printf("%s: instruction count diverges: predicted %llu, measured "
                "%lld\n",
                path.c_str(),
                static_cast<unsigned long long>(pred.instructions),
                static_cast<long long>(measured_instr));
    ok = false;
  }
  const double rel =
      measured_ps == 0
          ? (pred.elapsed.ps() == 0 ? 0.0 : 1.0)
          : std::abs(static_cast<double>(pred.elapsed.ps() - measured_ps)) /
                static_cast<double>(measured_ps);
  if (rel > tolerance) {
    std::printf("%s: elapsed time diverges by %.4f (> %.4f): predicted "
                "%lld ps, measured %lld ps\n",
                path.c_str(), rel, tolerance,
                static_cast<long long>(pred.elapsed.ps()),
                static_cast<long long>(measured_ps));
    ok = false;
  }
  if (ok) {
    std::printf("%s: prediction matches measurement (%llu instructions, "
                "%lld ps vs %lld ps, rel err %.4f <= %.4f)\n",
                path.c_str(),
                static_cast<unsigned long long>(pred.instructions),
                static_cast<long long>(pred.elapsed.ps()),
                static_cast<long long>(measured_ps), rel, tolerance);
  }
  return ok;
}

/// Compare a comm-volume prediction against an alltoall_traced-style dump:
/// message counts, total hops, and every per-edge crossing count, exactly.
bool validate_comm(const check::VolumeAnalysis& vol, const std::string& path,
                   const std::string& dump_path) {
  const std::optional<perf::Dump> dump =
      fpst::tools::load_dump("tcheck", dump_path);
  if (!dump) {
    return false;
  }
  const perf::MessageReport observed = perf::analyze_messages(*dump);
  bool ok = true;
  if (observed.flights.size() != vol.messages) {
    std::printf("%s: message count diverges: predicted %llu, observed %zu\n",
                path.c_str(), static_cast<unsigned long long>(vol.messages),
                observed.flights.size());
    ok = false;
  }
  if (observed.total_hops != vol.total_hops) {
    std::printf("%s: total hops diverge: predicted %llu, observed %llu\n",
                path.c_str(), static_cast<unsigned long long>(vol.total_hops),
                static_cast<unsigned long long>(observed.total_hops));
    ok = false;
  }
  // Both edge tables are sorted by (a, b) with zero-load edges omitted, so
  // a positional walk finds every discrepancy.
  std::size_t pi = 0;
  std::size_t oi = 0;
  while (pi < vol.edges.size() || oi < observed.edges.size()) {
    const bool have_p = pi < vol.edges.size();
    const bool have_o = oi < observed.edges.size();
    const auto pkey = have_p ? std::make_pair(vol.edges[pi].a, vol.edges[pi].b)
                             : std::make_pair(0u, 0u);
    const auto okey = have_o ? std::make_pair(observed.edges[oi].a,
                                              observed.edges[oi].b)
                             : std::make_pair(0u, 0u);
    if (have_p && (!have_o || pkey < okey)) {
      std::printf("%s: edge %u <-> %u predicted %llu crossings, observed 0\n",
                  path.c_str(), pkey.first, pkey.second,
                  static_cast<unsigned long long>(vol.edges[pi].crossings));
      ok = false;
      ++pi;
    } else if (have_o && (!have_p || okey < pkey)) {
      std::printf("%s: edge %u <-> %u observed %llu crossings, predicted 0\n",
                  path.c_str(), okey.first, okey.second,
                  static_cast<unsigned long long>(observed.edges[oi].crossings));
      ok = false;
      ++oi;
    } else {
      if (vol.edges[pi].crossings != observed.edges[oi].crossings) {
        std::printf("%s: edge %u <-> %u diverges: predicted %llu crossings, "
                    "observed %llu\n",
                    path.c_str(), pkey.first, pkey.second,
                    static_cast<unsigned long long>(vol.edges[pi].crossings),
                    static_cast<unsigned long long>(
                        observed.edges[oi].crossings));
        ok = false;
      }
      ++pi;
      ++oi;
    }
  }
  if (ok) {
    std::printf("%s: prediction matches measurement (%llu messages, %llu "
                "hops, %zu edges exact)\n",
                path.c_str(), static_cast<unsigned long long>(vol.messages),
                static_cast<unsigned long long>(vol.total_hops),
                vol.edges.size());
  }
  return ok;
}

FileVerdict check_one(const Options& opts, const std::string& path,
                      perf::json::Value* json_docs) {
  FileVerdict v;
  std::string text;
  if (!fpst::tools::slurp(path, &text)) {
    std::cerr << path << ": cannot read file\n";
    v.io_failed = true;
    return v;
  }

  check::Report rep;
  perf::json::Value pred_json;
  if (path.ends_with(".comm")) {
    try {
      const occam::CommSpec spec = occam::parse_comm_spec(text);
      rep = check::analyze_comm(spec).report;
      const check::VolumeAnalysis vol = check::analyze_volume(spec);
      rep.merge(vol.report);
      if (opts.predict && !opts.quiet) {
        std::printf("%s: %d-cube, %llu message(s), %llu payload bytes, "
                    "%llu hop(s), max %llu per edge\n",
                    path.c_str(), vol.dimension,
                    static_cast<unsigned long long>(vol.messages),
                    static_cast<unsigned long long>(vol.payload_bytes),
                    static_cast<unsigned long long>(vol.total_hops),
                    static_cast<unsigned long long>(vol.max_edge_crossings));
      }
      if (!opts.json_out.empty()) {
        pred_json = volume_to_json(vol);
      }
      if (!opts.against.empty() && !validate_comm(vol, path, opts.against)) {
        v.diverged = true;
      }
    } catch (const occam::CommSpecError& e) {
      rep.error("parse-error", 0, e.what());
    }
  } else {
    try {
      const cp::Program prog = cp::assemble(text);
      check::VerifyOptions vo;
      if (!opts.entry.empty()) {
        const auto it = prog.symbols.find(opts.entry);
        if (it == prog.symbols.end()) {
          rep.error("bad-entry", 0,
                    "entry symbol '" + opts.entry + "' is not defined");
        } else {
          vo.entries.insert(it->second);
        }
      }
      if (!rep.has_errors()) {
        const check::VerifyResult verified = check::verify(prog, vo);
        rep.merge(verified.report);
        const check::CostPrediction pred =
            check::predict_cost(prog, verified.cfg);
        rep.merge(pred.report);
        if (opts.predict && !opts.quiet) {
          if (pred.complete) {
            std::printf("%s: predicted %llu instruction(s), %llu flop(s), "
                        "%llu vform(s), %s elapsed\n",
                        path.c_str(),
                        static_cast<unsigned long long>(pred.instructions),
                        static_cast<unsigned long long>(pred.flops),
                        static_cast<unsigned long long>(pred.vforms),
                        pred.elapsed.to_string().c_str());
          } else {
            std::printf("%s: prediction stops at 0x%x (%s) after %llu "
                        "instruction(s), %s elapsed — lower bound\n",
                        path.c_str(), pred.stop_addr,
                        pred.stop_reason.c_str(),
                        static_cast<unsigned long long>(pred.instructions),
                        pred.elapsed.to_string().c_str());
          }
          for (const check::LoopInfo& l : pred.loops) {
            std::printf("%s:   loop at 0x%x: %s%s%s\n", path.c_str(), l.head,
                        verdict_name(l.verdict), l.hot ? ", hot" : "",
                        l.verdict == check::LoopVerdict::kBounded
                            ? (", " + std::to_string(l.iterations) +
                               " iteration(s)")
                                  .c_str()
                            : "");
          }
        }
        if (!opts.json_out.empty()) {
          pred_json = prediction_to_json(pred);
        }
        if (!opts.against.empty()) {
          const std::optional<perf::json::Value> dump =
              fpst::tools::load_json("tcheck", opts.against);
          if (!dump) {
            v.io_failed = true;
          } else if (!validate_tisa(pred, path, *dump, opts.tolerance)) {
            v.diverged = true;
          }
        }
      }
    } catch (const cp::AsmError& e) {
      rep.error("parse-error", 0, e.what());
    }
  }

  if (json_docs != nullptr && !pred_json.is_null()) {
    perf::json::Value entry = perf::json::Value::object();
    entry["file"] = perf::json::Value::string(path);
    entry["kind"] = perf::json::Value::string(
        path.ends_with(".comm") ? "comm" : "tisa");
    entry["prediction"] = std::move(pred_json);
    json_docs->append(std::move(entry));
  }

  if (!opts.quiet) {
    std::cout << rep.to_string(path);
  }
  v.validity_errors = rep.count(check::Severity::kError,
                                check::DiagClass::kValidity);
  v.validity_warnings = rep.count(check::Severity::kWarning,
                                  check::DiagClass::kValidity);
  v.perf_errors = rep.count(check::Severity::kError,
                            check::DiagClass::kPerformance);
  v.perf_warnings = rep.count(check::Severity::kWarning,
                              check::DiagClass::kPerformance);
  const std::size_t errs = v.validity_errors + v.perf_errors;
  const std::size_t warns = v.validity_warnings + v.perf_warnings;
  const bool bad =
      errs > 0 || (opts.werror && warns > 0) || v.diverged;
  std::cout << path << ": " << (bad ? "FAILED" : "OK") << " (" << errs
            << " error(s), " << warns << " warning(s))\n";
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  bool help = false;
  fpst::tools::Flags flags{"tcheck"};
  flags.text("--entry", &opts.entry)
      .flag("--werror", &opts.werror)
      .flag("--quiet", &opts.quiet)
      .flag("-q", &opts.quiet)
      .flag("--predict", &opts.predict)
      .text("--json-out", &opts.json_out)
      .text("--against", &opts.against)
      .number("--tolerance", &opts.tolerance, 0.0,
              std::numeric_limits<double>::infinity())
      .flag("--help", &help)
      .flag("-h", &help)
      .positional(&opts.files);
  if (!flags.parse(argc, argv)) {
    return 2;
  }
  if (help) {
    usage();
    return 0;
  }
  if (opts.files.empty()) {
    return usage();
  }

  perf::json::Value json_docs = perf::json::Value::array();
  bool any_io_fail = false;
  bool any_validity = false;
  bool any_perf = false;
  for (const std::string& f : opts.files) {
    const FileVerdict v = check_one(
        opts, f, opts.json_out.empty() ? nullptr : &json_docs);
    any_io_fail = any_io_fail || v.io_failed;
    any_validity = any_validity || v.validity_errors > 0 ||
                   (opts.werror && v.validity_warnings > 0);
    any_perf = any_perf || v.perf_errors > 0 || v.diverged ||
               (opts.werror && v.perf_warnings > 0);
  }
  if (!opts.json_out.empty()) {
    try {
      perf::write_file(opts.json_out, json_docs);
    } catch (const std::exception& e) {
      std::cerr << opts.json_out << ": " << e.what() << "\n";
      any_io_fail = true;
    }
  }
  if (any_io_fail) {
    return 2;
  }
  if (any_validity) {
    return 1;
  }
  return any_perf ? 3 : 0;
}
