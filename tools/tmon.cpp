// tmon — live serve-layer observability console (README "Observability",
// DESIGN.md §9).
//
// Talks the tsim ndjson protocol (client side, shared plumbing in
// tool_util.hpp) to a running `tsim run-server` and renders the service's
// tmon metrics document:
//
//   tmon --socket PATH                one-shot text dashboard
//   tmon --socket PATH --watch        top-style refresh (default 1000 ms;
//                                     --interval MS to change)
//   tmon --socket PATH --json         raw metrics document
//   tmon --socket PATH --prom         Prometheus text exposition
//   tmon --socket PATH --metric NAME  one value, one line (ci.sh awk)
//   tmon --strip-meta FILE            print FILE with every `meta` object
//                                     removed (the determinism gates
//                                     compare these stripped bytes)
//   tmon selfdump --spans F --metrics F
//       deterministic harness: in-process Service (1 worker), a fixed
//       serial submission sequence across two tenants, span + metrics
//       documents written to the given files. Run twice and strip meta:
//       the bytes must match — the CI determinism sweep gates on it.
//
// Exit codes: 0 success, 1 selfdump verification failure, 2 usage / I/O /
// protocol error. A bad flag prints one "tmon: --flag: ..." line.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "perf/json.hpp"
#include "serve/service.hpp"
#include "serve/tmon.hpp"
#include "tool_util.hpp"

namespace {

using fpst::perf::json::Value;
using namespace fpst::serve;

constexpr const char* kTool = "tmon";

// ----------------------------------------------------------------- client

/// Fetch the metrics document ("metrics" body) or the Prometheus text
/// ("prom" body). nullopt on any failure (diagnostic printed).
std::optional<Value> fetch(fpst::tools::Conn& conn, bool prom) {
  Value req = Value::object();
  req["op"] = Value::string("metrics");
  if (prom) {
    req["format"] = Value::string("prom");
  }
  const std::optional<Value> reply = fpst::tools::call(conn, req);
  if (!reply) {
    return std::nullopt;
  }
  const Value* body = reply->find(prom ? "prom" : "metrics");
  if (body == nullptr) {
    std::fprintf(stderr, "tmon: malformed metrics reply\n");
    return std::nullopt;
  }
  return *body;
}

// -------------------------------------------------------------- dashboard

std::int64_t body_int(const Value& doc, const char* key) {
  const Value* v = doc.find(key);
  return v != nullptr && v->is_number() ? v->as_int() : 0;
}

const Value* meta_of(const Value& doc) { return doc.find("meta"); }

double hist_quantile(const Value* hist, const char* q) {
  if (hist == nullptr) {
    return 0.0;
  }
  const Value* v = hist->find(q);
  return v != nullptr && v->is_number() ? v->as_double() : 0.0;
}

void render_dashboard(const Value& doc) {
  const Value* meta = meta_of(doc);
  const double uptime_ms =
      meta != nullptr && meta->find("uptime_ms") != nullptr
          ? meta->find("uptime_ms")->as_double()
          : 0.0;
  const std::int64_t depth =
      meta != nullptr && meta->find("queue_depth") != nullptr
          ? meta->find("queue_depth")->as_int()
          : 0;
  const std::int64_t stalls =
      meta != nullptr && meta->find("backpressure_stalls") != nullptr
          ? meta->find("backpressure_stalls")->as_int()
          : 0;
  std::printf("tsim serve — up %.1f s, %" PRId64 " workers, queue depth %"
              PRId64 ", %" PRId64 " backpressure stalls\n",
              uptime_ms / 1000.0, body_int(doc, "workers"), depth, stalls);
  std::printf("jobs: %" PRId64 " submitted, %" PRId64 " done, %" PRId64
              " failed, %" PRId64 " cache hits, %" PRId64 " rejected\n",
              body_int(doc, "submitted"), body_int(doc, "completed"),
              body_int(doc, "failed"), body_int(doc, "cache_hits"),
              body_int(doc, "rejected"));
  const Value* cache = doc.find("cache");
  if (cache != nullptr) {
    std::printf("cache: %" PRId64 " entries, %" PRId64 " / %" PRId64
                " bytes, %" PRId64 " hits / %" PRId64 " misses, %" PRId64
                " evictions\n",
                body_int(*cache, "entries"), body_int(*cache, "bytes"),
                body_int(*cache, "byte_budget"), body_int(*cache, "hits"),
                body_int(*cache, "misses"), body_int(*cache, "evictions"));
  }
  const Value* engine = doc.find("engine");
  const Value* mengine = meta != nullptr ? meta->find("engine") : nullptr;
  if (engine != nullptr && mengine != nullptr) {
    std::printf("engine: %" PRId64 " epochs, merge %.3f ms, barrier %.3f ms\n",
                body_int(*engine, "epochs"),
                static_cast<double>(body_int(*mengine, "merge_ns")) / 1e6,
                static_cast<double>(body_int(*mengine, "barrier_ns")) / 1e6);
  }
  const Value* tenants = doc.find("tenants");
  const Value* mtenants = meta != nullptr ? meta->find("tenants") : nullptr;
  if (tenants != nullptr && tenants->is_object() &&
      !tenants->as_object().empty()) {
    std::printf("%-16s %5s %5s %5s %5s %5s %10s %10s %10s\n", "tenant", "sub",
                "done", "fail", "hit", "rej", "p50(us)", "p90(us)",
                "p99(us)");
    for (const auto& [name, t] : tenants->as_object()) {
      const Value* mt =
          mtenants != nullptr ? mtenants->find(name) : nullptr;
      const Value* lat = mt != nullptr ? mt->find("latency_us") : nullptr;
      std::printf("%-16s %5" PRId64 " %5" PRId64 " %5" PRId64 " %5" PRId64
                  " %5" PRId64 " %10.0f %10.0f %10.0f\n",
                  name.c_str(), body_int(t, "submitted"),
                  body_int(t, "completed"), body_int(t, "failed"),
                  body_int(t, "cache_hits"), body_int(t, "rejected"),
                  hist_quantile(lat, "p50"), hist_quantile(lat, "p90"),
                  hist_quantile(lat, "p99"));
    }
  }
}

// ----------------------------------------------------------- --metric map

int print_metric(const Value& doc, const std::string& name) {
  fpst::tools::MetricTable table;
  const Value* meta = meta_of(doc);
  const auto body_metric = [&doc](const char* key) {
    return [&doc, key] {
      return fpst::tools::fmt_u64(
          static_cast<std::uint64_t>(body_int(doc, key)));
    };
  };
  table.add("submitted", body_metric("submitted"));
  table.add("completed", body_metric("completed"));
  table.add("failed", body_metric("failed"));
  table.add("cache_hits", body_metric("cache_hits"));
  table.add("rejected", body_metric("rejected"));
  table.add("queue_depth", [meta] {
    return fpst::tools::fmt_u64(static_cast<std::uint64_t>(
        meta != nullptr ? body_int(*meta, "queue_depth") : 0));
  });
  table.add("backpressure_stalls", [meta] {
    return fpst::tools::fmt_u64(static_cast<std::uint64_t>(
        meta != nullptr ? body_int(*meta, "backpressure_stalls") : 0));
  });
  table.add("uptime_ms", [meta] {
    return fpst::tools::fmt_f6(
        meta != nullptr && meta->find("uptime_ms") != nullptr
            ? meta->find("uptime_ms")->as_double()
            : 0.0);
  });
  table.add("engine_epochs", [&doc] {
    const Value* engine = doc.find("engine");
    return fpst::tools::fmt_u64(static_cast<std::uint64_t>(
        engine != nullptr ? body_int(*engine, "epochs") : 0));
  });
  return table.print(kTool, name);
}

// --------------------------------------------------------------- selfdump

/// Deterministic in-process workload: one worker, serial submit -> wait,
/// two tenants, a mixed hit/miss pattern, one sharded-engine job. Every
/// body field of the resulting span/metrics documents is a pure function
/// of this sequence; only `meta` varies run to run.
int cmd_selfdump(const std::string& spans_path,
                 const std::string& metrics_path) {
  Service::Options opts;
  opts.workers = 1;
  opts.queue_capacity = 16;
  Service service{opts};

  const auto job = [](const char* program, const char* tenant, int threads,
                      std::uint64_t seed) {
    JobSpec spec;
    spec.program = program;
    spec.dimension = 2;
    spec.rounds = 2;
    spec.elems = 8;
    spec.threads = threads;
    spec.seed = seed;
    return std::pair<std::string, JobSpec>{tenant, spec};
  };
  const std::vector<std::pair<std::string, JobSpec>> sequence = {
      job("allreduce", "alice", 1, 1),  // miss
      job("allreduce", "bob", 1, 1),    // hit (same address)
      job("ring", "alice", 1, 2),       // miss
      job("saxpy", "bob", 2, 3),        // miss, sharded engine (2 shards)
      job("allreduce", "alice", 1, 1),  // hit again
  };
  for (const auto& [tenant, spec] : sequence) {
    const JobId id = service.submit(tenant, spec);
    const JobStatus st = service.wait(id);
    if (st.state != JobState::kDone) {
      std::fprintf(stderr, "tmon selfdump: job %" PRIu64 " %s: %s\n", id,
                   to_string(st.state), st.error.c_str());
      return 1;
    }
  }

  const auto write_doc = [](const std::string& path, const Value& doc) {
    return fpst::tools::write_text(kTool, path, doc.dump(2) + "\n");
  };
  if (!write_doc(spans_path, spans_to_json(service.spans())) ||
      !write_doc(metrics_path, metrics_to_json(service.stats()))) {
    return 2;
  }
  service.shutdown();
  return 0;
}

// ------------------------------------------------------------------ usage

void usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: tmon [options]\n"
      "\n"
      "  --socket PATH       talk to a tsim run-server\n"
      "    --watch           top-style refresh until interrupted\n"
      "    --interval MS     refresh period for --watch (default 1000)\n"
      "    --json            print the raw metrics document\n"
      "    --prom            print Prometheus text exposition\n"
      "    --metric NAME     print one value (submitted | completed |\n"
      "                      failed | cache_hits | rejected | queue_depth |\n"
      "                      backpressure_stalls | uptime_ms |\n"
      "                      engine_epochs)\n"
      "  --strip-meta FILE   print FILE with every `meta` object removed\n"
      "  selfdump --spans FILE --metrics FILE\n"
      "                      deterministic span/metrics dump harness\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string strip_file;
  std::string metric;
  std::string spans_path;
  std::string metrics_path;
  bool help = false;
  bool watch = false;
  bool json = false;
  bool prom = false;
  bool selfdump = false;
  int interval_ms = 1000;
  fpst::tools::Flags flags{kTool};
  flags.flag("-h", &help)
      .flag("--help", &help)
      .flag("selfdump", &selfdump)
      .text("--socket", &socket_path)
      .text("--strip-meta", &strip_file)
      .text("--metric", &metric)
      .text("--spans", &spans_path)
      .text("--metrics", &metrics_path)
      .number("--interval", &interval_ms)
      .flag("--watch", &watch)
      .flag("--json", &json)
      .flag("--prom", &prom);
  if (!flags.parse(argc, argv)) {
    return 2;
  }
  if (help) {
    usage(stdout);
    return 0;
  }
  interval_ms = std::max(interval_ms, 10);

  if (selfdump) {
    if (spans_path.empty() || metrics_path.empty()) {
      std::fprintf(stderr,
                   "tmon: selfdump needs --spans FILE and --metrics FILE\n");
      return 2;
    }
    return cmd_selfdump(spans_path, metrics_path);
  }

  if (!strip_file.empty()) {
    const std::optional<Value> doc =
        fpst::tools::load_json(kTool, strip_file);
    if (!doc) {
      return 2;
    }
    std::printf("%s\n", strip_meta(*doc).dump(2).c_str());
    return 0;
  }

  if (socket_path.empty()) {
    std::fprintf(stderr, "tmon: need --socket PATH (or --strip-meta FILE, "
                         "or selfdump)\n");
    usage(stderr);
    return 2;
  }

  const int fd = fpst::tools::connect_unix(kTool, socket_path);
  if (fd < 0) {
    return 2;
  }
  fpst::tools::Conn conn{kTool, fd};

  int rc = 0;
  for (;;) {
    const std::optional<Value> doc = fetch(conn, prom);
    if (!doc) {
      rc = 2;
      break;
    }
    if (watch) {
      std::printf("\x1b[2J\x1b[H");  // clear + home, top(1)-style
    }
    if (prom) {
      std::fputs(doc->as_string().c_str(), stdout);
    } else if (json) {
      std::printf("%s\n", doc->dump(2).c_str());
    } else if (!metric.empty()) {
      rc = print_metric(*doc, metric);
      break;
    } else {
      render_dashboard(*doc);
    }
    if (!watch) {
      break;
    }
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  return rc;
}
