// The BENCH_*.json record format shared by the four benches ci.sh gates run
// over run (bench_simcore, bench_serve, bench_kernels_scaling,
// bench_parallel_scaling). A record is
//
//   {"meta":    {"workload", "build", "host_cores", "cpu_model", ...},
//    "results": {...}}
//
// `build` is the flavour tag the gates match on ("release" or
// "sanitized"): a sanitized run is never judged against a release record.
// `--metric NAME FILE` reads a record back for ci.sh, so the binary that
// owns the schema is also the one that parses it.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "perf/chrome_trace.hpp"
#include "perf/json.hpp"
#include "tool_util.hpp"

namespace fpst::bench {

/// "sanitized" under ASan or TSan (GCC and Clang spellings), else
/// "release".
inline const char* build_flavour() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitized";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return "sanitized";
#else
  return "release";
#endif
#else
  return "release";
#endif
}

/// The host CPU's model name from /proc/cpuinfo ("unknown" elsewhere).
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

/// Write a record to `path`. `meta` carries the bench's own parameters;
/// the writer stamps the keys every record shares on top of them.
inline void write_record(const std::string& path, const std::string& workload,
                         perf::json::Value results,
                         perf::json::Value meta = perf::json::Value::object()) {
  namespace json = perf::json;
  meta["workload"] = json::Value::string(workload);
  meta["build"] = json::Value::string(build_flavour());
  meta["host_cores"] = json::Value::integer(
      static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  meta["cpu_model"] = json::Value::string(cpu_model());
  json::Value doc = json::Value::object();
  doc["meta"] = std::move(meta);
  doc["results"] = std::move(results);
  perf::write_file(path, doc);
}

/// `--metric NAME FILE`: `name` is the flag's value and `args` the
/// positional arguments, which must be FILE alone. Print one value of the
/// record at FILE, looked up in `results.gate`, then `results`, then
/// `meta`: strings raw, booleans as true/false, numbers as %.17g. Exit 2
/// with a diagnostic on a missing file or metric.
inline int print_metric(const char* tool, const std::string& name,
                        const std::vector<std::string>& args) {
  namespace json = perf::json;
  if (name.empty() || args.size() != 1) {
    std::fprintf(stderr, "%s: --metric: takes NAME FILE\n", tool);
    return 2;
  }
  const std::optional<json::Value> doc = tools::load_json(tool, args[0]);
  if (!doc) {
    return 2;
  }
  const json::Value* v = nullptr;
  if (const json::Value* res = doc->find("results"); res != nullptr) {
    if (const json::Value* gate = res->find("gate"); gate != nullptr) {
      v = gate->find(name);
    }
    if (v == nullptr) {
      v = res->find(name);
    }
  }
  if (const json::Value* meta = doc->find("meta");
      v == nullptr && meta != nullptr) {
    v = meta->find(name);
  }
  if (v == nullptr) {
    std::fprintf(stderr, "%s: no metric '%s' in %s\n", tool, name.c_str(),
                 args[0].c_str());
    return 2;
  }
  if (v->is_string()) {
    std::printf("%s\n", v->as_string().c_str());
  } else if (v->is_number()) {
    std::printf("%.17g\n", v->as_double());
  } else {
    std::printf("%s\n", v->dump().c_str());  // true / false, or JSON
  }
  return 0;
}

}  // namespace fpst::bench
