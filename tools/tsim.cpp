// tsim — the simulation job service CLI (README "Serving", DESIGN.md §7).
//
// One binary, both sides of the wire:
//
//   tsim run-server --socket PATH [--workers N] [--queue N] [--cache-mb N]
//                   [--no-cache]
//       host a serve::Service on a Unix stream socket
//   tsim submit     --socket PATH [spec flags] [--tenant T] [--wait]
//                   [--out FILE]
//       submit one job; --wait streams live status lines until completion
//   tsim status     --socket PATH --id N [--watch]
//   tsim stats      --socket PATH
//   tsim metrics    --socket PATH [--prom]
//       service metrics document (tmon shape: deterministic counters +
//       a wall-clock `meta` block); --prom renders Prometheus text
//   tsim trace      --socket PATH [--id N] [--chrome FILE]
//       per-request spans: one job's span with --id, all spans otherwise;
//       --chrome writes a Chrome trace_event file of every span
//   tsim shutdown   --socket PATH
//   tsim hash       [spec flags | --spec FILE]
//       print a spec's canonical serialization + content address (offline)
//   tsim selftest
//       end-to-end smoke: in-process server on a temp socket, submit the
//       same spec twice over the wire, assert the second is a cache hit
//       with byte-identical dump bytes; also drives the protocol error
//       paths (unknown op, truncated frame, deep nesting, oversized line,
//       concurrent watch + shutdown) (registered as a tier-1 ctest)
//
// Wire protocol: newline-delimited JSON, one request object per line, one
// response object per line — except `watch`, which streams a status line
// per poll tick and marks the last one with "final": true. Responses carry
// "ok": true, or "ok": false with "error" (human text) and "code" (the
// SpecError slug, or "bad-request" / "unknown-op" / "unknown-id" /
// "oversized-line"). The server caps a request line at 1 MiB: an
// over-long line gets the oversized-line error and the connection is
// closed, since line framing cannot resynchronise after an unbounded
// line.
//
// Spec flags (submit / hash): --program allreduce|saxpy|ring, --dim D,
// --threads N, --rounds R, --elems E, --seed S,
// --vpu-mode softfloat|batch|checked, or --spec FILE holding a JSON spec
// document. The flags fill the same JSON object a --spec FILE holds, and
// serve::spec_from_json validates both, so a bad value fails with the
// SpecError code a wire request gets.
//
// Exit codes: 0 success, 1 job failed / selftest assertion, 2 usage or
// I/O / protocol error. A bad flag prints one "tsim: --flag: ..." line.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <mutex>
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
using fpst::tools::Conn;
using fpst::tools::Flags;
using namespace fpst::serve;

constexpr const char* kTool = "tsim";

// ------------------------------------------------- line framing + sockets
//
// The framing and socket plumbing live in tool_util.hpp, shared with tmon
// (the observability console speaks the client side of this protocol).

using fpst::tools::call;
using fpst::tools::LineReader;
using fpst::tools::print_reply_error;
using fpst::tools::reply_ok;
using fpst::tools::roundtrip;
using fpst::tools::send_all;

bool send_line(int fd, const Value& v) {
  return fpst::tools::send_json_line(fd, v);
}

/// Server-side request line cap. Legitimate requests are a few KiB (the
/// largest is a submit with an inline spec document); anything past 1 MiB
/// is a runaway or hostile client.
constexpr std::size_t kMaxRequestLine = std::size_t{1} << 20;

int connect_unix(const std::string& path, bool quiet = false) {
  return fpst::tools::connect_unix(kTool, path, quiet);
}

// ----------------------------------------------------------- JSON shaping

Value status_to_json(const JobStatus& st) {
  Value v = Value::object();
  v["id"] = Value::integer(static_cast<std::int64_t>(st.id));
  v["state"] = Value::string(to_string(st.state));
  v["cache_hit"] = Value::boolean(st.cache_hit);
  v["events"] = Value::integer(static_cast<std::int64_t>(st.events));
  v["tenant"] = Value::string(st.tenant);
  v["address"] = Value::string(st.address);
  if (!st.error.empty()) {
    v["error"] = Value::string(st.error);
  }
  v["queue_ms"] = Value::number(st.queue_ms);
  v["run_ms"] = Value::number(st.run_ms);
  v["result_bytes"] = Value::integer(
      static_cast<std::int64_t>(st.result ? st.result->size() : 0));
  return v;
}

Value stats_to_json(const ServiceStats& s) {
  Value v = Value::object();
  v["submitted"] = Value::integer(static_cast<std::int64_t>(s.submitted));
  v["completed"] = Value::integer(static_cast<std::int64_t>(s.completed));
  v["failed"] = Value::integer(static_cast<std::int64_t>(s.failed));
  v["cache_hits"] = Value::integer(static_cast<std::int64_t>(s.cache_hits));
  v["queue_depth"] = Value::integer(static_cast<std::int64_t>(s.queue_depth));
  v["workers"] = Value::integer(s.workers);
  Value c = Value::object();
  c["hits"] = Value::integer(static_cast<std::int64_t>(s.cache.hits));
  c["misses"] = Value::integer(static_cast<std::int64_t>(s.cache.misses));
  c["insertions"] =
      Value::integer(static_cast<std::int64_t>(s.cache.insertions));
  c["evictions"] = Value::integer(static_cast<std::int64_t>(s.cache.evictions));
  c["entries"] = Value::integer(static_cast<std::int64_t>(s.cache.entries));
  c["bytes"] = Value::integer(static_cast<std::int64_t>(s.cache.bytes));
  c["byte_budget"] =
      Value::integer(static_cast<std::int64_t>(s.cache.byte_budget));
  v["cache"] = std::move(c);
  return v;
}

Value error_reply(const std::string& code, const std::string& what) {
  Value v = Value::object();
  v["ok"] = Value::boolean(false);
  v["code"] = Value::string(code);
  v["error"] = Value::string(what);
  return v;
}

Value ok_reply() {
  Value v = Value::object();
  v["ok"] = Value::boolean(true);
  return v;
}

// ----------------------------------------------------------------- server

struct Server {
  Service service;
  std::atomic<bool> stop{false};
  int listen_fd = -1;
  /// Live connection fds, so shutdown can unblock threads parked in read().
  std::mutex conn_mu;
  std::vector<int> conn_fds;

  explicit Server(Service::Options opts) : service{std::move(opts)} {}

  void track(int fd) {
    std::lock_guard<std::mutex> lk{conn_mu};
    conn_fds.push_back(fd);
  }

  void untrack(int fd) {
    std::lock_guard<std::mutex> lk{conn_mu};
    std::erase(conn_fds, fd);
  }

  /// Half-close every live connection; blocked read()s return 0.
  void kick_connections() {
    std::lock_guard<std::mutex> lk{conn_mu};
    for (const int fd : conn_fds) {
      ::shutdown(fd, SHUT_RDWR);
    }
  }
};

/// One request line -> zero or more response lines on `fd`. Returns false
/// when the connection should close.
bool handle_request(Server& srv, int fd, const std::string& line) {
  Value req;
  try {
    req = Value::parse(line);
  } catch (const std::exception& e) {
    return send_line(fd, error_reply("bad-request", e.what()));
  }
  if (!req.is_object() || req.find("op") == nullptr ||
      !req.find("op")->is_string()) {
    return send_line(fd, error_reply("bad-request", "missing string \"op\""));
  }
  const std::string& op = req.find("op")->as_string();

  const auto job_id = [&req]() -> std::optional<JobId> {
    const Value* id = req.find("id");
    if (id == nullptr || !id->is_number() || id->as_int() < 0) {
      return std::nullopt;
    }
    return static_cast<JobId>(id->as_int());
  };

  try {
    if (op == "ping") {
      return send_line(fd, ok_reply());
    }
    if (op == "submit") {
      const Value* spec_doc = req.find("spec");
      if (spec_doc == nullptr) {
        return send_line(fd, error_reply("bad-request", "missing \"spec\""));
      }
      const JobSpec spec = spec_from_json(*spec_doc);
      const Value* tenant = req.find("tenant");
      const std::string tenant_name =
          tenant != nullptr && tenant->is_string() ? tenant->as_string()
                                                   : "default";
      const JobId id = srv.service.submit(tenant_name, spec);
      Value v = ok_reply();
      v["id"] = Value::integer(static_cast<std::int64_t>(id));
      v["address"] = Value::string(content_address(spec));
      return send_line(fd, v);
    }
    if (op == "status" || op == "wait") {
      const std::optional<JobId> id = job_id();
      if (!id) {
        return send_line(fd, error_reply("bad-request", "missing \"id\""));
      }
      const JobStatus st =
          op == "wait" ? srv.service.wait(*id) : srv.service.status(*id);
      Value v = ok_reply();
      v["status"] = status_to_json(st);
      return send_line(fd, v);
    }
    if (op == "watch") {
      const std::optional<JobId> id = job_id();
      if (!id) {
        return send_line(fd, error_reply("bad-request", "missing \"id\""));
      }
      // Stream a status line per tick until the job settles; the final
      // line is tagged so the client knows the stream is over.
      for (;;) {
        const JobStatus st = srv.service.status(*id);
        const bool final_tick =
            st.state == JobState::kDone || st.state == JobState::kFailed;
        Value v = ok_reply();
        v["status"] = status_to_json(st);
        v["final"] = Value::boolean(final_tick);
        if (!send_line(fd, v) || final_tick) {
          return final_tick;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    if (op == "result") {
      const std::optional<JobId> id = job_id();
      if (!id) {
        return send_line(fd, error_reply("bad-request", "missing \"id\""));
      }
      const JobStatus st = srv.service.status(*id);
      if (st.state != JobState::kDone || !st.result) {
        return send_line(
            fd, error_reply("no-result",
                            "job " + std::to_string(*id) + " is " +
                                to_string(st.state) + ", no result bytes"));
      }
      Value v = ok_reply();
      v["dump"] = Value::string(*st.result);
      return send_line(fd, v);
    }
    if (op == "stats") {
      Value v = ok_reply();
      v["stats"] = stats_to_json(srv.service.stats());
      return send_line(fd, v);
    }
    if (op == "metrics") {
      const ServiceStats st = srv.service.stats();
      Value v = ok_reply();
      const Value* fmt = req.find("format");
      if (fmt != nullptr && fmt->is_string() && fmt->as_string() == "prom") {
        v["prom"] = Value::string(to_prometheus(st));
      } else {
        v["metrics"] = metrics_to_json(st);
      }
      return send_line(fd, v);
    }
    if (op == "trace") {
      Value v = ok_reply();
      const std::optional<JobId> id = job_id();
      const Value* chrome = req.find("chrome");
      if (id) {
        v["span"] = span_to_json(srv.service.span(*id));
      } else if (chrome != nullptr && chrome->as_bool()) {
        v["trace"] = spans_chrome_trace(srv.service.spans());
      } else {
        v["spans"] = spans_to_json(srv.service.spans());
      }
      return send_line(fd, v);
    }
    if (op == "shutdown") {
      srv.stop.store(true);
      // Wake the accept loop (half-close the listening socket) and every
      // connection thread parked in read() on an idle client.
      ::shutdown(srv.listen_fd, SHUT_RDWR);
      send_line(fd, ok_reply());
      srv.kick_connections();
      return false;
    }
    return send_line(fd, error_reply("unknown-op", "unknown op " + op));
  } catch (const SpecError& e) {
    return send_line(fd, error_reply(e.code(), e.what()));
  } catch (const std::out_of_range& e) {
    return send_line(fd, error_reply("unknown-id", e.what()));
  } catch (const std::exception& e) {
    return send_line(fd, error_reply("internal", e.what()));
  }
}

void serve_connection(Server& srv, int fd) {
  LineReader reader{fd, kMaxRequestLine};
  std::string line;
  while (!srv.stop.load() && reader.read_line(&line)) {
    if (line.empty()) {
      continue;
    }
    if (!handle_request(srv, fd, line)) {
      break;
    }
  }
  if (reader.oversized()) {
    send_line(fd, error_reply("oversized-line",
                              "request line exceeds " +
                                  std::to_string(kMaxRequestLine) +
                                  " bytes; closing connection"));
  }
  srv.untrack(fd);
  ::close(fd);
}

int run_server(const std::string& socket_path, Service::Options opts,
               std::atomic<bool>* ready) {
  // A client that disconnects mid-watch must not kill the server with
  // SIGPIPE; send_all sees the write error instead.
  std::signal(SIGPIPE, SIG_IGN);

  Server srv{opts};
  srv.listen_fd = fpst::tools::listen_unix(kTool, socket_path);
  if (srv.listen_fd < 0) {
    return 2;
  }
  if (ready != nullptr) {
    ready->store(true);
  }

  std::vector<std::thread> conns;
  while (!srv.stop.load()) {
    const int fd = ::accept(srv.listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (srv.stop.load()) {
        break;
      }
      if (errno == EINTR) {
        continue;
      }
      std::perror("tsim: accept");
      break;
    }
    srv.track(fd);
    conns.emplace_back([&srv, fd] { serve_connection(srv, fd); });
  }
  for (std::thread& t : conns) {
    t.join();
  }
  ::close(srv.listen_fd);
  ::unlink(socket_path.c_str());
  srv.service.shutdown();
  return 0;
}

// ----------------------------------------------------------------- client
//
// Conn, roundtrip() and call() live in tool_util.hpp, shared with tmon.

/// Watch a job to completion on an already-open connection, printing one
/// progress line per state change to stderr. Returns the final status
/// object, or nullopt on transport failure.
std::optional<Value> watch_job(Conn& conn, JobId id, bool verbose) {
  Value req = Value::object();
  req["op"] = Value::string("watch");
  req["id"] = Value::integer(static_cast<std::int64_t>(id));
  if (!send_line(conn.fd(), req)) {
    std::fprintf(stderr, "tsim: connection lost while sending\n");
    return std::nullopt;
  }
  std::string line;
  std::string last_printed;
  while (conn.read_line(&line)) {
    Value reply;
    try {
      reply = Value::parse(line);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "tsim: malformed watch line: %s\n", e.what());
      return std::nullopt;
    }
    if (!reply_ok(reply)) {
      print_reply_error(kTool, reply);
      return std::nullopt;
    }
    const Value* st = reply.find("status");
    const Value* final_tick = reply.find("final");
    if (st == nullptr || final_tick == nullptr) {
      std::fprintf(stderr, "tsim: malformed watch line\n");
      return std::nullopt;
    }
    if (verbose) {
      const std::string tick = st->find("state")->as_string() + " events=" +
                               std::to_string(st->find("events")->as_int());
      if (tick != last_printed) {
        std::fprintf(stderr, "tsim: %s\n", tick.c_str());
        last_printed = tick;
      }
    }
    if (final_tick->as_bool()) {
      return *st;
    }
  }
  std::fprintf(stderr, "tsim: connection closed mid-watch\n");
  return std::nullopt;
}

/// Print a watched job's final status line; the exit code it earns.
int print_final(const std::optional<Value>& status) {
  if (!status) {
    return 2;
  }
  std::printf("%s\n", status->dump().c_str());
  return status->find("state")->as_string() == "failed" ? 1 : 0;
}

// ------------------------------------------------------------ command line

/// The spec flags. Each fills one field of the JSON object that a
/// --spec FILE holds, and serve::spec_from_json validates both, so a bad
/// flag value fails with the SpecError code a wire request would get.
struct SpecArgs {
  std::string program;
  std::string vpu_mode;
  std::string file;
  std::int64_t dim = 0;
  std::int64_t threads = 0;
  std::int64_t rounds = 0;
  std::int64_t elems = 0;
  std::uint64_t seed = 0;

  explicit SpecArgs(Flags& flags) {
    flags.text("--program", &program)
        .number("--dim", &dim)
        .number("--threads", &threads)
        .number("--rounds", &rounds)
        .number("--elems", &elems)
        .number("--seed", &seed)
        .text("--vpu-mode", &vpu_mode)
        .text("--spec", &file);
  }

  /// The validated spec: --spec FILE's when given (it overrides the other
  /// flags), else the defaults with each given flag's field set. False
  /// after one "tsim: --flag: <code>: <what>" line.
  bool resolve(const Flags& flags, JobSpec* out) const {
    const struct {
      const char* flag;
      const char* key;
      Value value;
    } fields[] = {
        {"--program", "program", Value::string(program)},
        {"--dim", "dimension", Value::integer(dim)},
        {"--threads", "threads", Value::integer(threads)},
        {"--rounds", "rounds", Value::integer(rounds)},
        {"--elems", "elems", Value::integer(elems)},
        {"--seed", "seed", Value::integer(static_cast<std::int64_t>(seed))},
        {"--vpu-mode", "vpu_mode", Value::string(vpu_mode)},
    };
    const char* flag = "--spec";
    try {
      if (flags.seen(flag)) {
        std::string text;
        if (!fpst::tools::slurp(file, &text)) {
          std::fprintf(stderr, "tsim: --spec: cannot read %s\n", file.c_str());
          return false;
        }
        *out = parse_spec(text);
        return true;
      }
      // One field at a time, each checked with those before it, so an
      // error belongs to the flag just added.
      Value doc = Value::object();
      *out = JobSpec{};
      for (const auto& f : fields) {
        if (flags.seen(f.flag)) {
          flag = f.flag;
          doc[f.key] = f.value;
          *out = spec_from_json(doc);
        }
      }
      return true;
    } catch (const SpecError& e) {
      std::fprintf(stderr, "tsim: %s: %s: %s\n", flag, e.code().c_str(),
                   e.what());
      return false;
    }
  }
};

void usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: tsim <command> [options]\n"
      "\n"
      "  run-server --socket PATH [--workers N] [--queue N]\n"
      "             [--cache-mb N] [--no-cache]\n"
      "  submit     --socket PATH [spec flags] [--tenant T] [--wait]\n"
      "             [--out FILE]\n"
      "  status     --socket PATH --id N [--watch]\n"
      "  stats      --socket PATH\n"
      "  metrics    --socket PATH [--prom]\n"
      "  trace      --socket PATH [--id N] [--chrome FILE]\n"
      "  shutdown   --socket PATH\n"
      "  hash       [spec flags | --spec FILE]\n"
      "  selftest\n"
      "\n"
      "spec flags: --program allreduce|saxpy|ring  --dim D  --threads N\n"
      "            --rounds R  --elems E  --seed S\n"
      "            --vpu-mode softfloat|batch|checked  --spec FILE\n");
}

// ------------------------------------------------------------- subcommands

int cmd_run_server(int argc, char** argv) {
  std::string socket_path;
  Service::Options opts;
  std::size_t cache_mb = opts.cache_bytes >> 20;
  bool no_cache = false;
  Flags flags{kTool};
  flags.text("--socket", &socket_path)
      .number("--workers", &opts.workers, 1, 1024)
      .number("--queue", &opts.queue_capacity, 1)
      .number("--cache-mb", &cache_mb, 0, SIZE_MAX >> 20)
      .flag("--no-cache", &no_cache);
  if (!flags.parse(argc, argv, 2)) {
    return 2;
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "tsim: run-server needs --socket PATH\n");
    return 2;
  }
  opts.cache_bytes = cache_mb << 20;
  opts.cache_enabled = !no_cache;
  std::fprintf(stderr, "tsim: serving on %s (%d workers)\n",
               socket_path.c_str(), opts.workers);
  return run_server(socket_path, opts, nullptr);
}

/// submit: the job's address, or with --wait its final status, and with
/// --out FILE its dump bytes written to FILE.
int submit(Conn& conn, const JobSpec& spec, const std::string& tenant,
           bool wait, const std::string& out_file) {
  Value req = Value::object();
  req["op"] = Value::string("submit");
  req["tenant"] = Value::string(tenant);
  req["spec"] = spec_to_json(spec);
  const std::optional<Value> reply = call(conn, req);
  if (!reply) {
    return 2;
  }
  if (!wait) {
    std::printf("%s\n", reply->dump().c_str());
    return 0;
  }
  const std::int64_t id = reply->find("id")->as_int();
  const int rc = print_final(watch_job(conn, static_cast<JobId>(id), true));
  if (rc != 0 || out_file.empty()) {
    return rc;
  }
  Value rreq = Value::object();
  rreq["op"] = Value::string("result");
  rreq["id"] = Value::integer(id);
  const std::optional<Value> rreply = call(conn, rreq);
  if (!rreply) {
    return 2;
  }
  const std::string& dump = rreply->find("dump")->as_string();
  if (!fpst::tools::write_text(kTool, out_file, dump)) {
    return 2;
  }
  std::fprintf(stderr, "tsim: wrote %zu bytes to %s\n", dump.size(),
               out_file.c_str());
  return 0;
}

/// The client commands: submit, status, stats, metrics, trace, shutdown.
/// Each makes one request, except that submit --wait and status --watch
/// follow the job to its end.
int cmd_client(const std::string& op, int argc, char** argv) {
  std::string socket_path;
  std::string tenant = "default";
  std::string out_file;
  std::string chrome_file;
  std::int64_t id = -1;
  bool wait = false;
  bool watch = false;
  bool prom = false;
  Flags flags{kTool};
  flags.text("--socket", &socket_path);
  std::optional<SpecArgs> spec_args;
  if (op == "submit") {
    spec_args.emplace(flags);
    flags.text("--tenant", &tenant)
        .flag("--wait", &wait)
        .text("--out", &out_file);
  } else if (op == "metrics") {
    flags.flag("--prom", &prom);
  } else {
    flags.number("--id", &id, 0);
  }
  if (op == "status") {
    flags.flag("--watch", &watch);
  } else if (op == "trace") {
    flags.text("--chrome", &chrome_file);
  }
  JobSpec spec;
  if (!flags.parse(argc, argv, 2) ||
      (spec_args && !spec_args->resolve(flags, &spec))) {
    return 2;
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "tsim: %s needs --socket PATH\n", op.c_str());
    return 2;
  }
  if (op == "status" && id < 0) {
    std::fprintf(stderr, "tsim: status needs --id N\n");
    return 2;
  }
  const int fd = connect_unix(socket_path);
  if (fd < 0) {
    return 2;
  }
  Conn conn{kTool, fd};
  if (op == "submit") {
    return submit(conn, spec, tenant, wait || !out_file.empty(), out_file);
  }
  if (watch) {
    return print_final(watch_job(conn, static_cast<JobId>(id), true));
  }
  Value req = Value::object();
  req["op"] = Value::string(op);
  if (id >= 0) {
    req["id"] = Value::integer(id);
  } else if (!chrome_file.empty()) {
    req["chrome"] = Value::boolean(true);
  }
  if (prom) {
    req["format"] = Value::string("prom");
  }
  const std::optional<Value> reply = call(conn, req);
  if (!reply) {
    return 2;
  }
  // The member that carries the answer; status, stats and shutdown print
  // the whole reply.
  const char* member = op == "metrics" ? (prom ? "prom" : "metrics")
                       : op != "trace" ? nullptr
                       : id >= 0       ? "span"
                       : !chrome_file.empty() ? "trace"
                                              : "spans";
  const Value* body = member == nullptr ? &*reply : reply->find(member);
  if (body == nullptr || (prom && !body->is_string())) {
    std::fprintf(stderr, "tsim: malformed %s reply\n", op.c_str());
    return 2;
  }
  if (prom) {
    std::fputs(body->as_string().c_str(), stdout);
    return 0;
  }
  const std::string text = body->dump(2) + "\n";
  if (chrome_file.empty()) {
    std::fputs(text.c_str(), stdout);
    return 0;
  }
  if (!fpst::tools::write_text(kTool, chrome_file, text)) {
    return 2;
  }
  std::fprintf(stderr, "tsim: wrote %zu bytes to %s\n", text.size(),
               chrome_file.c_str());
  return 0;
}

int cmd_hash(int argc, char** argv) {
  Flags flags{kTool};
  SpecArgs spec_args{flags};
  JobSpec spec;
  if (!flags.parse(argc, argv, 2) || !spec_args.resolve(flags, &spec)) {
    return 2;
  }
  std::printf("%s\n%s\n", canonical_spec(spec).c_str(),
              content_address(spec).c_str());
  return 0;
}

// --------------------------------------------------------------- selftest

#define SELF_CHECK(cond, what)                                      \
  do {                                                              \
    if (!(cond)) {                                                  \
      std::fprintf(stderr, "tsim selftest: FAIL %s (%s:%d)\n", what, \
                   __FILE__, __LINE__);                             \
      return false;                                                 \
    }                                                               \
  } while (0)

bool selftest_body(const std::string& socket_path) {
  // Wait for the server thread to bind, then for connects to succeed.
  int fd = -1;
  for (int tries = 0; tries < 200 && fd < 0; ++tries) {
    fd = connect_unix(socket_path, /*quiet=*/true);
    if (fd < 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  SELF_CHECK(fd >= 0, "connect to in-process server");
  Conn conn{kTool, fd};

  const auto submit_and_wait = [&](std::uint64_t seed,
                                   Value* out) -> bool {
    JobSpec spec;
    spec.program = "allreduce";
    spec.dimension = 2;
    spec.rounds = 2;
    spec.elems = 8;
    spec.seed = seed;
    Value req = Value::object();
    req["op"] = Value::string("submit");
    req["tenant"] = Value::string("selftest");
    req["spec"] = spec_to_json(spec);
    const std::optional<Value> reply = roundtrip(conn, req);
    if (!reply || !reply_ok(*reply)) {
      return false;
    }
    const JobId id = static_cast<JobId>(reply->find("id")->as_int());
    const std::optional<Value> st = watch_job(conn, id, false);
    if (!st) {
      return false;
    }
    *out = *st;
    (*out)["id"] = Value::integer(reply->find("id")->as_int());
    return true;
  };

  const auto fetch_dump = [&](std::int64_t id, std::string* out) -> bool {
    Value req = Value::object();
    req["op"] = Value::string("result");
    req["id"] = Value::integer(id);
    const std::optional<Value> reply = roundtrip(conn, req);
    if (!reply || !reply_ok(*reply)) {
      return false;
    }
    *out = reply->find("dump")->as_string();
    return true;
  };

  // Same spec twice: the second run must be a cache hit with zero
  // simulation events and byte-identical dump bytes over the wire.
  Value first;
  Value second;
  SELF_CHECK(submit_and_wait(7, &first), "first submit");
  SELF_CHECK(submit_and_wait(7, &second), "second submit");
  SELF_CHECK(first.find("state")->as_string() == "done", "first done");
  SELF_CHECK(second.find("state")->as_string() == "done", "second done");
  SELF_CHECK(!first.find("cache_hit")->as_bool(), "first is a miss");
  SELF_CHECK(second.find("cache_hit")->as_bool(), "second is a hit");
  SELF_CHECK(second.find("events")->as_int() == 0, "hit simulated nothing");
  SELF_CHECK(first.find("events")->as_int() > 0, "miss simulated something");
  std::string dump_a;
  std::string dump_b;
  SELF_CHECK(fetch_dump(first.find("id")->as_int(), &dump_a), "result A");
  SELF_CHECK(fetch_dump(second.find("id")->as_int(), &dump_b), "result B");
  SELF_CHECK(!dump_a.empty(), "dump bytes non-empty");
  SELF_CHECK(dump_a == dump_b, "cache hit is byte-identical");

  // A different seed is a different address: must miss.
  Value third;
  SELF_CHECK(submit_and_wait(8, &third), "third submit");
  SELF_CHECK(!third.find("cache_hit")->as_bool(), "new seed misses");
  SELF_CHECK(third.find("address")->as_string() !=
                 first.find("address")->as_string(),
             "new seed has a new address");

  // Typed bad-request over the wire: unknown program.
  {
    Value req = Value::object();
    req["op"] = Value::string("submit");
    Value bad = Value::object();
    bad["program"] = Value::string("fizzbuzz");
    req["spec"] = bad;
    const std::optional<Value> reply = roundtrip(conn, req);
    SELF_CHECK(reply.has_value(), "bad-spec reply arrives");
    SELF_CHECK(!reply_ok(*reply), "bad spec is rejected");
    SELF_CHECK(reply->find("code")->as_string() == "bad-program",
               "typed error code");
  }

  // Stats reflect the hit.
  {
    Value req = Value::object();
    req["op"] = Value::string("stats");
    const std::optional<Value> reply = roundtrip(conn, req);
    SELF_CHECK(reply.has_value() && reply_ok(*reply), "stats reply");
    const Value* stats = reply->find("stats");
    SELF_CHECK(stats != nullptr, "stats body");
    SELF_CHECK(stats->find("cache_hits")->as_int() == 1, "one cache hit");
    SELF_CHECK(stats->find("completed")->as_int() == 3, "three completions");
  }

  // Metrics document: tmon shape, per-tenant account, meta block present.
  {
    Value req = Value::object();
    req["op"] = Value::string("metrics");
    const std::optional<Value> reply = roundtrip(conn, req);
    SELF_CHECK(reply.has_value() && reply_ok(*reply), "metrics reply");
    const Value* m = reply->find("metrics");
    SELF_CHECK(m != nullptr, "metrics body");
    SELF_CHECK(m->find("kind")->as_string() == "tmon-metrics",
               "metrics kind");
    SELF_CHECK(m->find("cache_hits")->as_int() == 1, "metrics cache hits");
    const Value* tenants = m->find("tenants");
    SELF_CHECK(tenants != nullptr && tenants->find("selftest") != nullptr,
               "per-tenant account");
    SELF_CHECK(tenants->find("selftest")->find("completed")->as_int() == 3,
               "tenant completions");
    SELF_CHECK(m->find("meta") != nullptr, "metrics meta block");
  }

  // Prometheus rendering of the same stats.
  {
    Value req = Value::object();
    req["op"] = Value::string("metrics");
    req["format"] = Value::string("prom");
    const std::optional<Value> reply = roundtrip(conn, req);
    SELF_CHECK(reply.has_value() && reply_ok(*reply), "prom reply");
    const Value* text = reply->find("prom");
    SELF_CHECK(text != nullptr && text->is_string(), "prom body");
    SELF_CHECK(text->as_string().find("tsim_jobs_submitted_total 3") !=
                   std::string::npos,
               "prom submitted counter");
    SELF_CHECK(text->as_string().find("tenant=\"selftest\"") !=
                   std::string::npos,
               "prom tenant label");
  }

  // Request spans: all jobs, then one job, then the Chrome rendering.
  {
    Value req = Value::object();
    req["op"] = Value::string("trace");
    const std::optional<Value> reply = roundtrip(conn, req);
    SELF_CHECK(reply.has_value() && reply_ok(*reply), "trace reply");
    const Value* spans = reply->find("spans");
    SELF_CHECK(spans != nullptr, "spans body");
    SELF_CHECK(spans->find("kind")->as_string() == "tmon-spans",
               "spans kind");
    SELF_CHECK(spans->find("spans")->as_array().size() == 3, "three spans");
  }
  {
    Value req = Value::object();
    req["op"] = Value::string("trace");
    req["id"] = Value::integer(second.find("id")->as_int());
    const std::optional<Value> reply = roundtrip(conn, req);
    SELF_CHECK(reply.has_value() && reply_ok(*reply), "span reply");
    const Value* span = reply->find("span");
    SELF_CHECK(span != nullptr, "span body");
    SELF_CHECK(span->find("cache_hit")->as_bool(), "hit span");
    SELF_CHECK(span->find("meta") != nullptr, "span meta block");
  }
  {
    Value req = Value::object();
    req["op"] = Value::string("trace");
    req["chrome"] = Value::boolean(true);
    const std::optional<Value> reply = roundtrip(conn, req);
    SELF_CHECK(reply.has_value() && reply_ok(*reply), "chrome reply");
    const Value* trace = reply->find("trace");
    SELF_CHECK(trace != nullptr && trace->find("traceEvents") != nullptr,
               "chrome traceEvents");
    SELF_CHECK(!trace->find("traceEvents")->as_array().empty(),
               "chrome events non-empty");
  }

  // Unknown verb gets the typed unknown-op error.
  {
    Value req = Value::object();
    req["op"] = Value::string("frobnicate");
    const std::optional<Value> reply = roundtrip(conn, req);
    SELF_CHECK(reply.has_value(), "unknown-op reply arrives");
    SELF_CHECK(!reply_ok(*reply), "unknown op rejected");
    SELF_CHECK(reply->find("code")->as_string() == "unknown-op",
               "unknown-op code");
  }

  // A truncated frame — half a JSON object, newline-framed — must come
  // back as bad-request, and the connection must stay usable.
  {
    SELF_CHECK(send_all(conn.fd(), "{\"op\": \"sta\n"), "send truncated");
    std::string line;
    SELF_CHECK(conn.read_line(&line), "truncated-frame reply arrives");
    const Value reply = Value::parse(line);
    SELF_CHECK(!reply_ok(reply), "truncated frame rejected");
    SELF_CHECK(reply.find("code")->as_string() == "bad-request",
               "bad-request code");
    Value req = Value::object();
    req["op"] = Value::string("ping");
    const std::optional<Value> pong = roundtrip(conn, req);
    SELF_CHECK(pong.has_value() && reply_ok(*pong),
               "connection survives a truncated frame");
  }

  // Nesting far past the JSON parser's depth limit (yet far under the line
  // cap) must come back as bad-request, not blow the handler's stack, and
  // the connection must stay usable.
  {
    SELF_CHECK(send_all(conn.fd(), std::string(100000, '[') + "\n"),
               "send deep nesting");
    std::string line;
    SELF_CHECK(conn.read_line(&line), "deep-nesting reply arrives");
    const Value reply = Value::parse(line);
    SELF_CHECK(!reply_ok(reply), "deep nesting rejected");
    SELF_CHECK(reply.find("code")->as_string() == "bad-request",
               "deep-nesting bad-request code");
    Value req = Value::object();
    req["op"] = Value::string("ping");
    const std::optional<Value> pong = roundtrip(conn, req);
    SELF_CHECK(pong.has_value() && reply_ok(*pong),
               "connection survives deep nesting");
  }

  // An oversized request line (past the server's 1 MiB cap) gets the
  // typed error and the connection is closed.
  {
    const int ofd = connect_unix(socket_path, /*quiet=*/true);
    SELF_CHECK(ofd >= 0, "oversize connect");
    Conn oconn{kTool, ofd};
    std::string big(kMaxRequestLine + 8192, 'x');
    big += '\n';
    // The server stops reading once the cap trips and closes after the
    // error reply, so this send may legitimately fail partway through.
    (void)send_all(ofd, big);
    std::string line;
    SELF_CHECK(oconn.read_line(&line), "oversized reply arrives");
    const Value reply = Value::parse(line);
    SELF_CHECK(!reply_ok(reply), "oversized line rejected");
    SELF_CHECK(reply.find("code")->as_string() == "oversized-line",
               "oversized-line code");
    SELF_CHECK(!oconn.read_line(&line), "connection closed after oversize");
  }

  // Concurrent watch-stream + shutdown: a watcher parked on another
  // connection must unblock when the server shuts down, not hang.
  JobId watch_id = 0;
  {
    JobSpec spec;
    spec.program = "allreduce";
    spec.dimension = 2;
    spec.rounds = 2;
    spec.elems = 8;
    spec.seed = 99;
    Value req = Value::object();
    req["op"] = Value::string("submit");
    req["tenant"] = Value::string("selftest");
    req["spec"] = spec_to_json(spec);
    const std::optional<Value> reply = roundtrip(conn, req);
    SELF_CHECK(reply.has_value() && reply_ok(*reply), "watch-job submit");
    watch_id = static_cast<JobId>(reply->find("id")->as_int());
  }
  const int wfd = connect_unix(socket_path, /*quiet=*/true);
  SELF_CHECK(wfd >= 0, "watch connect");
  std::thread watcher([wfd, watch_id] {
    Conn wconn{kTool, wfd};
    // Either outcome — final status or connection-closed — is fine; the
    // assertion is that this returns at all once shutdown lands.
    (void)watch_job(wconn, watch_id, false);
  });

  // Shut the server down over the wire while the watcher is live.
  {
    Value req = Value::object();
    req["op"] = Value::string("shutdown");
    const std::optional<Value> reply = roundtrip(conn, req);
    SELF_CHECK(reply.has_value() && reply_ok(*reply), "shutdown ack");
  }
  watcher.join();
  return true;
}

int cmd_selftest() {
  const std::string socket_path =
      "/tmp/tsim-selftest-" + std::to_string(::getpid()) + ".sock";
  Service::Options opts;
  opts.workers = 2;
  opts.queue_capacity = 16;
  std::atomic<bool> ready{false};
  std::thread server([&] { run_server(socket_path, opts, &ready); });
  const bool ok = selftest_body(socket_path);
  if (!ok) {
    // The server may still be accepting; stop it so join() returns.
    const int fd = connect_unix(socket_path);
    if (fd >= 0) {
      Value req = Value::object();
      req["op"] = Value::string("shutdown");
      send_line(fd, req);
      ::close(fd);
    }
  }
  server.join();
  ::unlink(socket_path.c_str());
  std::printf("tsim selftest: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(stderr);
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "-h" || cmd == "--help") {
    usage(stdout);
    return 0;
  }
  if (cmd == "run-server") {
    return cmd_run_server(argc, argv);
  }
  if (cmd == "submit" || cmd == "status" || cmd == "stats" ||
      cmd == "metrics" || cmd == "trace" || cmd == "shutdown") {
    return cmd_client(cmd, argc, argv);
  }
  if (cmd == "hash") {
    return cmd_hash(argc, argv);
  }
  if (cmd == "selftest") {
    return Flags{kTool}.parse(argc, argv, 2) ? cmd_selftest() : 2;
  }
  std::fprintf(stderr, "tsim: unknown command %s\n", cmd.c_str());
  usage(stderr);
  return 2;
}
