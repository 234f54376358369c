// Statistics helpers, host provenance and the printed result.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "perf/json.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace json = fpst::perf::json;

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) {
    return 0.0;
  }
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

int tail_percentile(std::size_t n) {
  for (const int p : {99, 95, 90, 75}) {
    if (static_cast<double>(n) * (100 - p) / 100.0 >= 10.0) {
      return p;
    }
  }
  return 50;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string host_provenance() {
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        cpu = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  return "nproc=" + std::to_string(std::thread::hardware_concurrency()) +
         " cpu=\"" + cpu + "\" build=" + PERFBENCH_BUILD_TYPE +
         " compiler=\"gcc " + __VERSION__ + "\"";
}

void print_result(const std::vector<Metric>& metrics, std::size_t attempted,
                  std::size_t failed) {
  json::Value doc = json::Value::object();
  json::Value values = json::Value::object();
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      throw std::runtime_error("metric " + m.name + " is not finite");
    }
    std::printf("metric %s %.6g %s%s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.empty() ? "" : "  ",
                m.note.c_str());
    json::Value v = json::Value::object();
    v["value"] = json::Value::number(m.value);
    v["unit"] = json::Value::string(m.unit);
    values[m.name] = std::move(v);
  }
  const double failed_frac =
      attempted == 0 ? 1.0
                     : static_cast<double>(failed) /
                           static_cast<double>(attempted);
  std::printf("failed_frac %.6g (%zu of %zu requests)\n", failed_frac, failed,
              attempted);
  doc["correct"] = json::Value::boolean(failed == 0 && attempted > 0);
  doc["attempted"] =
      json::Value::integer(static_cast<std::int64_t>(attempted));
  doc["failed"] = json::Value::integer(static_cast<std::int64_t>(failed));
  doc["metrics"] = std::move(values);
  std::printf("%s\n", doc.dump().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
