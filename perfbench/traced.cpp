// The traced run: where a job's host time goes, layer by layer.
//
// It has three parts, all after the same set-up as the untraced run:
//
//   1. The serve phase, exactly as untraced, with one span per request and
//      child spans for the Service's own stage timers (queue, cache lookup,
//      setup, exec, serialise). The serve.* metrics come from here.
//   2. A replay of a fixed sample of the phase's simulated jobs, one at a
//      time, calling each layer's public function from this file: engine +
//      core::TSeries construction, enable_perf, occam::Runtime staging and
//      run, perf::to_json, json::Value::dump, freeing the document, and
//      teardown. Each call is one span. The replay must reproduce the
//      Service's bytes exactly, so it is the same job. Each sampled job is
//      run a second time with perf off; the difference is the cost of the
//      tperf sinks. On cube10 the first few sampled jobs are replayed again
//      on 2 shards (threads 2), which is where the parallel_sim.* metrics
//      come from: the same spec, so the pair shows whether sharding pays.
//   3. VectorUnit::execute on a full row, timed per arm.
//
// Spans are kept in memory and written as a Chrome trace at exit.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/machine.hpp"
#include "link/link.hpp"
#include "node/node.hpp"
#include "occam/occam.hpp"
#include "perf/chrome_trace.hpp"
#include "perf/counters.hpp"
#include "perf/json.hpp"
#include "serve/runner.hpp"
#include "sim/parallel_sim.hpp"
#include "sim/proc.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "vpu/vpu.hpp"

namespace perfbench {

namespace {

using namespace fpst;
namespace json = perf::json;

// ---- spans ----------------------------------------------------------------

struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
  std::int64_t request = -1;
};

class Spans {
 public:
  explicit Spans(Clock::time_point origin) : origin_{origin} {}

  double now_us() const { return seconds_between(origin_, Clock::now()) * 1e6; }
  double at_us(Clock::time_point t) const {
    return seconds_between(origin_, t) * 1e6;
  }

  int add(std::string name, double start_us, double end_us, int parent,
          std::int64_t request) {
    spans_.push_back({std::move(name), start_us, end_us, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  int open(std::string name, int parent, std::int64_t request) {
    const double t = now_us();
    return add(std::move(name), t, t, parent, request);
  }
  /// Closes span `id` now and returns its length in seconds.
  double close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_us = now_us();
    return (s.end_us - s.start_us) * 1e-6;
  }
  /// Runs `f` inside a child span of `parent`; returns its seconds.
  template <class F>
  double time(const char* name, int parent, std::int64_t request, F&& f) {
    const int id = open(name, parent, request);
    f();
    return close(id);
  }

  std::size_t size() const { return spans_.size(); }

  /// Chrome trace_event JSON: one tid per request, parent and request id
  /// in args, the run's provenance under "metadata".
  void write(const std::string& path, json::Value metadata) const {
    json::Value events = json::Value::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      json::Value e = json::Value::object();
      e["name"] = json::Value::string(s.name);
      e["ph"] = json::Value::string("X");
      e["pid"] = json::Value::integer(1);
      e["tid"] = json::Value::integer(s.request);
      e["ts"] = json::Value::number(s.start_us);
      e["dur"] = json::Value::number(s.end_us - s.start_us);
      json::Value args = json::Value::object();
      args["id"] = json::Value::integer(static_cast<std::int64_t>(i));
      args["parent"] = json::Value::integer(s.parent);
      args["request"] = json::Value::integer(s.request);
      e["args"] = std::move(args);
      events.append(std::move(e));
    }
    json::Value doc = json::Value::object();
    doc["traceEvents"] = std::move(events);
    doc["metadata"] = std::move(metadata);
    std::ofstream out(path, std::ios::binary);
    out << doc.dump() << "\n";
    if (!out) {
      throw std::runtime_error("cannot write spans to " + path);
    }
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ---- the replayed job -----------------------------------------------------
//
// The program bodies and seeded data below are serve::JobRun's; the byte
// comparison against the Service's result is what keeps them in step.

std::vector<double> seeded_vector(const JobSpec& spec, std::uint64_t node) {
  std::vector<double> v(static_cast<std::size_t>(spec.elems));
  for (std::size_t i = 0; i < v.size(); ++i) {
    const std::uint64_t h = splitmix64(spec.seed ^ (node << 32) ^ i);
    v[i] = 1.0 + static_cast<double>(h >> 48) / 65536.0;
  }
  return v;
}

struct Program {
  occam::Runtime::Body body;
  std::vector<double> check;
  std::vector<node::Array64> xs, ys, zs;
};

void stage(const JobSpec& spec, core::TSeries& m, Program* p) {
  p->check.assign(m.size(), 0.0);
  std::vector<double>* check = &p->check;
  if (spec.program == "saxpy") {
    const auto elems = static_cast<std::size_t>(spec.elems);
    p->xs.resize(m.size());
    p->ys.resize(m.size());
    p->zs.resize(m.size());
    for (net::NodeId id = 0; id < m.size(); ++id) {
      node::Node& nd = m.node(id);
      p->xs[id] = nd.alloc64(mem::Bank::A, elems);
      p->ys[id] = nd.alloc64(mem::Bank::B, elems);
      p->zs[id] = nd.alloc64(mem::Bank::B, elems);
      nd.write64(p->xs[id], seeded_vector(spec, id));
      nd.write64(p->ys[id], seeded_vector(spec, id + m.size()));
    }
    p->body = [&spec, p, check](occam::Ctx& ctx) -> sim::Proc {
      node::Node& nd = ctx.node();
      const auto n = static_cast<std::size_t>(spec.elems);
      for (int r = 0; r < spec.rounds; ++r) {
        std::vector<sim::Proc> par;
        par.push_back(nd.gather(n));
        par.push_back([](node::Node* nn, node::Array64 x, node::Array64 y,
                         node::Array64 z) -> sim::Proc {
          co_await nn->vscalar(vpu::VectorForm::vsaxpy, 2.0, x, y, z);
        }(&nd, p->xs[ctx.id()], p->ys[ctx.id()], p->zs[ctx.id()]));
        co_await sim::WhenAll{std::move(par)};
      }
      double local = 0.0;
      for (const double v : nd.read64(p->zs[ctx.id()])) {
        local += v;
      }
      co_await ctx.allreduce_sum(&local);
      (*check)[ctx.id()] = local;
    };
  } else if (spec.program == "ring") {
    p->body = [&spec, check](occam::Ctx& ctx) -> sim::Proc {
      std::vector<double> v = seeded_vector(spec, ctx.id());
      const std::size_t n = ctx.size();
      if (n > 1) {
        const auto next = static_cast<net::NodeId>((ctx.id() + 1) % n);
        const auto prev = static_cast<net::NodeId>((ctx.id() + n - 1) % n);
        constexpr std::uint16_t kTag = 7;
        for (int r = 0; r < spec.rounds; ++r) {
          std::vector<sim::Proc> par;
          par.push_back(ctx.send(next, kTag, v));
          std::vector<double> in;
          par.push_back(ctx.recv(prev, kTag, &in));
          co_await sim::WhenAll{std::move(par)};
          v = std::move(in);
          for (double& x : v) {
            x += 1.0;
          }
        }
      } else {
        for (double& x : v) {
          x += spec.rounds;
        }
      }
      double sum = 0.0;
      for (const double x : v) {
        sum += x;
      }
      (*check)[ctx.id()] = sum;
    };
  } else {
    p->body = [&spec, check](occam::Ctx& ctx) -> sim::Proc {
      std::vector<double> xs = seeded_vector(spec, ctx.id());
      for (int r = 0; r < spec.rounds; ++r) {
        co_await ctx.allreduce_sum(&xs);
      }
      double sum = 0.0;
      for (const double x : xs) {
        sum += x;
      }
      (*check)[ctx.id()] = sum;
    };
  }
}

/// The engine and machine for a spec, built as serve::JobRun builds them.
struct Machine {
  std::unique_ptr<sim::Simulator> serial;
  std::unique_ptr<sim::ParallelSim> sharded;
  std::unique_ptr<core::TSeries> tseries;  // destroyed before its engine

  explicit Machine(const JobSpec& spec) {
    node::NodeConfig ncfg;
    ncfg.vpu_mode = *vpu::parse_vpu_mode(spec.vpu_mode);
    const int shards = serve::shards_for(spec);
    if (shards > 1) {
      sim::ParallelSim::Options po;
      po.shards = shards;
      po.threads = spec.threads;
      po.lookahead = link::LinkParams::transfer_time(0);
      sharded = std::make_unique<sim::ParallelSim>(po);
      tseries = std::make_unique<core::TSeries>(*sharded, spec.dimension, ncfg);
    } else {
      serial = std::make_unique<sim::Simulator>();
      tseries = std::make_unique<core::TSeries>(*serial, spec.dimension, ncfg);
    }
  }

  std::uint64_t events() const {
    return sharded ? sharded->events_processed() : serial->events_processed();
  }
};

/// One replayed job's layer times (seconds) and counts.
struct Replay {
  std::string dump;
  double total = 0, construct = 0, attach = 0, stage = 0, run = 0,
         to_json = 0, dump_s = 0, free = 0, destroy = 0;
  std::uint64_t events = 0;
  double sim_us = 0;
  std::uint64_t spans = 0, spans_dropped = 0;
  std::uint64_t link_bytes = 0, messages = 0, vpu_ops = 0;
  std::uint64_t epochs = 0, mail = 0;
  double merge_s = 0, barrier_s = 0, busy_frac = 0;
  double covered = 0;  ///< share of `total` inside child spans
};

Replay replay(const JobSpec& spec, bool with_perf, Spans& sp,
              std::int64_t request) {
  Replay r;
  std::string name = spec.threads > 1 ? "replay.sharded" : "replay";
  if (!with_perf) {
    name += ".perf_off";
  }
  const int job = sp.open(std::move(name), -1, request);
  std::unique_ptr<perf::CounterRegistry> reg;  // must outlive the machine
  std::unique_ptr<Machine> m;
  r.construct = sp.time("core.construct", job, request,
                        [&] { m = std::make_unique<Machine>(spec); });
  if (with_perf) {
    r.attach = sp.time("perf.attach", job, request, [&] {
      reg = std::make_unique<perf::CounterRegistry>();
      m->tseries->enable_perf(*reg);
      reg->meta().workload = "serve " + serve::canonical_spec(spec);
    });
  }
  auto program = std::make_unique<Program>();
  std::unique_ptr<occam::Runtime> runtime;
  r.stage = sp.time("occam.stage", job, request, [&] {
    runtime = std::make_unique<occam::Runtime>(*m->tseries);
    stage(spec, *m->tseries, program.get());
  });
  sim::SimTime elapsed{};
  r.run = sp.time("sim.run", job, request,
                  [&] { elapsed = runtime->run(program->body); });
  r.events = m->events();
  r.sim_us = elapsed.us();
  r.link_bytes = m->tseries->total_link_bytes();
  for (net::NodeId id = 0; id < m->tseries->size(); ++id) {
    r.vpu_ops += m->tseries->node(id).vector_unit().total_ops();
  }
  if (m->sharded) {
    const sim::ParallelSim::Profile prof = m->sharded->profile();
    r.epochs = prof.epochs;
    r.mail = prof.mail_delivered;
    r.merge_s = static_cast<double>(prof.merge_ns) * 1e-9;
    r.barrier_s = static_cast<double>(std::accumulate(
                      prof.worker_barrier_ns.begin(),
                      prof.worker_barrier_ns.end(), std::uint64_t{0})) *
                  1e-9;
    const double busy = static_cast<double>(
        std::accumulate(prof.shard_busy_ns.begin(), prof.shard_busy_ns.end(),
                        std::uint64_t{0}));
    r.busy_frac = busy * 1e-9 / (r.run * m->sharded->threads());
  }
  if (with_perf) {
    r.messages = reg->total("occam", "msgs_sent");
    r.spans = reg->timeline().size();
    r.spans_dropped = reg->timeline().dropped();
    for (const auto& t : reg->shard_timelines()) {
      r.spans += t->size();
      r.spans_dropped += t->dropped();
    }
    double checksum = 0.0;
    for (const double c : program->check) {
      checksum += c;
    }
    json::Value doc;
    r.to_json = sp.time("perf.to_json", job, request, [&] {
      doc = perf::to_json(*reg, elapsed);
      json::Value results = json::Value::object();
      results["address"] = json::Value::string(serve::content_address(spec));
      results["checksum"] = json::Value::number(checksum);
      results["elapsed_us"] = json::Value::number(elapsed.us());
      results["events"] =
          json::Value::integer(static_cast<std::int64_t>(r.events));
      results["shards"] = json::Value::integer(serve::shards_for(spec));
      results["spec"] = serve::spec_to_json(spec);
      doc["results"] = std::move(results);
    });
    r.dump_s = sp.time("perf.dump", job, request,
                       [&] { r.dump = doc.dump(2) + "\n"; });
    r.free = sp.time("perf.free", job, request, [&] { doc = json::Value(); });
  }
  r.destroy = sp.time("core.destroy", job, request, [&] {
    runtime.reset();
    program.reset();
    m.reset();
    reg.reset();
  });
  r.total = sp.close(job);
  const double parts = r.construct + r.attach + r.stage + r.run + r.to_json +
                       r.dump_s + r.free + r.destroy;
  r.covered = r.total > 0 ? parts / r.total : 1.0;
  return r;
}

/// ns per element of VectorUnit::execute on a full 128-element row.
double vpu_ns_per_elem(vpu::VpuMode mode) {
  sim::Simulator simulator;
  node::NodeConfig cfg;
  cfg.vpu_mode = mode;
  node::Node nd(simulator, 0, cfg);
  constexpr std::size_t kElems = mem::MemParams::kElems64;
  const node::Array64 x = nd.alloc64(mem::Bank::A, kElems);
  const node::Array64 y = nd.alloc64(mem::Bank::B, kElems);
  const node::Array64 z = nd.alloc64(mem::Bank::B, kElems);
  JobSpec data;
  data.elems = static_cast<int>(kElems);
  nd.write64(x, seeded_vector(data, 0));
  nd.write64(y, seeded_vector(data, 1));
  vpu::VectorOp op;
  op.form = vpu::VectorForm::vsaxpy;
  op.n = kElems;
  op.row_x = x.first_row;
  op.row_y = y.first_row;
  op.row_z = z.first_row;
  op.scalar = fp::T64::from_double(2.0);
  constexpr int kReps = 4000;
  std::vector<double> per_elem;
  for (int trial = 0; trial < 5; ++trial) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kReps; ++i) {
      nd.vector_unit().execute(op);
    }
    per_elem.push_back(seconds_between(t0, Clock::now()) * 1e9 /
                       (kReps * static_cast<double>(kElems)));
  }
  return median(per_elem);
}

template <class F>
std::vector<double> collect(const std::vector<Replay>& rs, F f) {
  std::vector<double> out;
  for (const Replay& r : rs) {
    out.push_back(static_cast<double>(f(r)));
  }
  return out;
}

}  // namespace

std::vector<Metric> run_traced(const Args& args, const Workload& w,
                               std::size_t* attempted, std::size_t* failed) {
  const Clock::time_point origin = Clock::now();
  Spans sp(origin);

  // Cold construction: the first machine this process builds.
  std::unique_ptr<Machine> probe;
  const double cold_s = sp.time("core.construct_cold", -1, -1, [&] {
    probe = std::make_unique<Machine>(w.requests.front().spec);
  });
  probe.reset();

  // 1. The serve phase.
  const Clock::time_point born = Clock::now();
  Setup setup = set_up(w);
  double wall_s = 0.0;
  std::vector<Sample> samples = run_timed(w, *setup.service, &wall_s);
  inject_fault(args, w, &samples);
  std::vector<std::string> why;
  std::vector<bool> ok = check_results(w, setup, samples, &why);
  std::vector<double> queue_ms, cache_us, submit_us;
  std::size_t duplicates = 0, hits = 0;
  std::map<const std::string*, std::size_t> retained;
  for (const auto& r : setup.warm_results) {
    retained[r.get()] = r->size();
  }
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    const serve::JobSpan span = setup.service->span(s.id);
    const auto req = static_cast<std::int64_t>(i);
    const double t0 = sp.at_us(s.start);
    const int root = sp.add("request", t0, t0 + s.latency_ms * 1e3, -1, req);
    sp.add("serve.submit", t0, t0 + s.submit_us, root, req);
    double t = sp.at_us(born) + span.submit_offset_ms * 1e3;
    for (const auto& [name, ms] :
         {std::pair<const char*, double>{"serve.queue", span.queue_ms},
          {"serve.cache", span.cache_ms},
          {"job.setup", span.setup_ms},
          {"job.exec", span.exec_ms},
          {"job.serialize", span.serialize_ms}}) {
      sp.add(name, t, t + ms * 1e3, root, req);
      t += ms * 1e3;
    }
    queue_ms.push_back(span.queue_ms);
    cache_us.push_back(span.cache_ms * 1e3);
    submit_us.push_back(s.submit_us);
    if (w.requests[i].hot >= 0) {
      ++duplicates;
      hits += s.status.cache_hit ? 1 : 0;
    }
    if (s.status.result) {
      retained[s.status.result.get()] = s.status.result->size();
    }
  }
  double retained_bytes = 0.0;
  for (const auto& kv : retained) {
    retained_bytes += static_cast<double>(kv.second);
  }
  const serve::ServiceStats stats = setup.service->stats();

  // 2. Replay a fixed sample of the simulated jobs, layer by layer.
  std::vector<std::size_t> picks;
  std::vector<std::size_t> misses;
  for (std::size_t i = 0; i < w.requests.size(); ++i) {
    if (w.requests[i].hot < 0) {
      misses.push_back(i);
    }
  }
  const std::size_t want =
      w.name == "serve_mix" ? (args.smoke ? 4 : 200) : (args.smoke ? 1 : 5);
  for (std::size_t k = 0; k < std::min(want, misses.size()); ++k) {
    picks.push_back(misses[k * misses.size() / std::min(want, misses.size())]);
  }
  // The Service goes first so the replay thread inherits a warm worker
  // arena from the allocator, as the served jobs had; replaying on a cold
  // one would charge page faults to every layer.
  setup.service.reset();
  // cube10's sharded replays: the first few picks again at threads 2.
  const std::size_t sharded_picks =
      w.name == "cube10" ? std::min<std::size_t>(args.smoke ? 1 : 3,
                                                 picks.size())
                         : 0;
  std::vector<Replay> on, off, sharded_on, sharded_off;
  std::vector<double> overhead, sharded_mb;
  auto replay_sharded = [&](std::size_t k) {
    const std::size_t i = picks[k];
    const auto req = static_cast<std::int64_t>(i);
    JobSpec spec = w.requests[i].spec;
    spec.threads = 2;
    Replay r = replay(spec, true, sp, req);
    Replay r_off = replay(spec, false, sp, req);
    ++*attempted;
    // Serial equivalence: 2 shards take exactly the serial simulated time.
    bool same = r.sim_us == on[k].sim_us && r_off.sim_us == r.sim_us;
    if (same && k == 0) {
      // A repeated seed, through the serve path, gives the same bytes.
      same = r.dump == *serve::JobRun(spec).execute().dump;
    }
    if (!same) {
      ++*failed;
      why.push_back("request " + std::to_string(i) +
                    ": the 2-shard replay is not equivalent to the serial job");
    }
    sharded_mb.push_back(static_cast<double>(r.dump.size()) / (1 << 20));
    r.dump.clear();
    r.dump.shrink_to_fit();
    sharded_on.push_back(std::move(r));
    sharded_off.push_back(std::move(r_off));
  };
  auto replay_picks = [&] {
    for (const std::size_t i : picks) {
      const auto req = static_cast<std::int64_t>(i);
      Replay r = replay(w.requests[i].spec, true, sp, req);
      Replay r_off = replay(w.requests[i].spec, false, sp, req);
      ++*attempted;
      const Sample& s = samples[i];
      if (!s.status.result || r.dump != *s.status.result ||
          r_off.events != r.events || r_off.sim_us != r.sim_us) {
        ++*failed;
        why.push_back("request " + std::to_string(i) +
                      ": layer replay does not reproduce the served job");
      }
      overhead.push_back(r.total * 1e3 / s.latency_ms - 1.0);
      r.dump.clear();
      r.dump.shrink_to_fit();
      on.push_back(std::move(r));
      off.push_back(std::move(r_off));
    }
    for (std::size_t k = 0; k < sharded_picks; ++k) {
      replay_sharded(k);
    }
  };
  std::exception_ptr replay_error;
  std::thread replayer([&] {
    try {
      replay_picks();
    } catch (...) {
      replay_error = std::current_exception();
    }
  });
  replayer.join();
  if (replay_error) {
    std::rethrow_exception(replay_error);
  }

  *attempted += samples.size();
  for (const bool b : ok) {
    *failed += b ? 0 : 1;
  }
  for (const std::string& line : why) {
    std::printf("check failed: %s\n", line.c_str());
  }

  // 3. The VPU arms on a full row.
  const double softfloat_ns = vpu_ns_per_elem(vpu::VpuMode::softfloat);
  const double batch_ns = vpu_ns_per_elem(vpu::VpuMode::batch);
  // Estimated share of the perf-off run spent in VectorUnit::execute:
  // executed ops x elems x the arm's per-element cost, over all replays.
  double vpu_s = 0.0, run_off_s = 0.0;
  for (std::size_t k = 0; k < picks.size(); ++k) {
    const JobSpec& spec = w.requests[picks[k]].spec;
    const double ns = spec.vpu_mode == "batch" ? batch_ns : softfloat_ns;
    vpu_s += static_cast<double>(off[k].vpu_ops) * spec.elems * ns * 1e-9;
    run_off_s += off[k].run;
  }

  // Per-layer self time over the replayed jobs; the tperf sinks are the
  // perf-on run minus the perf-off run of the same job.
  std::vector<std::pair<std::string, double>> layers = {
      {"core.construct", 0}, {"perf.attach", 0}, {"occam.stage", 0},
      {"sim.run", 0},        {"perf.sinks", 0},  {"perf.to_json", 0},
      {"perf.dump", 0},      {"perf.free", 0},   {"core.destroy", 0}};
  std::vector<double> sink_s, coverage;
  for (const Replay& r : sharded_on) {
    coverage.push_back(r.covered);
  }
  for (std::size_t k = 0; k < on.size(); ++k) {
    const Replay& r = on[k];
    const double sinks = std::max(0.0, r.run - off[k].run);
    sink_s.push_back(r.run - off[k].run);
    coverage.push_back(r.covered);
    const double parts[] = {r.construct, r.attach,  r.stage,
                            r.run - sinks, sinks,   r.to_json,
                            r.dump_s,    r.free,    r.destroy};
    for (std::size_t l = 0; l < layers.size(); ++l) {
      layers[l].second += parts[l];
    }
  }
  // The serve layer's own stages for the same requests: submit, queue wait
  // and cache lookup.
  double serve_s = 0.0;
  for (const std::size_t i : picks) {
    serve_s += submit_us[i] * 1e-6 + queue_ms[i] * 1e-3 + cache_us[i] * 1e-6;
  }
  layers.emplace_back("serve", serve_s);
  double layer_total = 0.0;
  for (const auto& l : layers) {
    layer_total += l.second;
  }
  const auto top = std::max_element(
      layers.begin(), layers.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  std::printf("# per-layer self time over %zu replayed jobs\n", on.size());
  for (const auto& l : layers) {
    std::printf("layer %-15s %10.4f s %6.2f %%\n", l.first.c_str(), l.second,
                layer_total > 0 ? 100.0 * l.second / layer_total : 0.0);
  }
  std::printf("top_layer %s\n", top->first.c_str());
  // Does sharding pay? The sharded replays against the serial replays of
  // the same jobs.
  auto total_s = [](const Replay& r) { return r.total; };
  auto run_s = [](const Replay& r) { return r.run; };
  if (!sharded_on.empty()) {
    const auto n = static_cast<std::ptrdiff_t>(sharded_on.size());
    const std::vector<Replay> serial(on.begin(), on.begin() + n);
    const std::vector<Replay> serial_off(off.begin(), off.begin() + n);
    std::vector<double> serial_mb;
    for (std::size_t k = 0; k < sharded_on.size(); ++k) {
      const auto& bytes = samples[picks[k]].status.result;
      serial_mb.push_back(static_cast<double>(bytes->size()) / (1 << 20));
    }
    std::printf(
        "# 2 shards vs serial, same %zu jobs (median): job %.3f s vs %.3f s, "
        "sim.run (perf off) %.3f s vs %.3f s, dump %.1f MB vs %.1f MB\n",
        sharded_on.size(), median(collect(sharded_on, total_s)),
        median(collect(serial, total_s)), median(collect(sharded_off, run_s)),
        median(collect(serial_off, run_s)), median(sharded_mb),
        median(serial_mb));
  }

  if (!args.trace_out.empty()) {
    json::Value meta = json::Value::object();
    meta["host"] = json::Value::string(host_provenance());
    meta["workload"] = json::Value::string(w.name);
    meta["seed"] = json::Value::integer(static_cast<std::int64_t>(args.seed));
    meta["seconds"] = json::Value::integer(args.seconds);
    sp.write(args.trace_out, std::move(meta));
    std::printf("# spans: %zu written to %s\n", sp.size(),
                args.trace_out.c_str());
  }

  // Times are medians over the replayed jobs (robust to a noisy job);
  // counts are means, so a change to any replayed job moves them.
  auto med = [](const std::vector<Replay>& rs, auto f) {
    return median(collect(rs, f));
  };
  auto mean = [](const std::vector<Replay>& rs, auto f) {
    const std::vector<double> xs = collect(rs, f);
    return xs.empty() ? 0.0
                      : std::accumulate(xs.begin(), xs.end(), 0.0) /
                            static_cast<double>(xs.size());
  };
  std::vector<double> dump_mb;
  for (const std::size_t i : picks) {
    const auto& bytes = samples[i].status.result;
    dump_mb.push_back(bytes ? static_cast<double>(bytes->size()) / (1 << 20)
                            : 0.0);
  }
  const std::string n_req = "n=" + std::to_string(samples.size());
  const std::string n_rep = "n=" + std::to_string(on.size()) + " replays";
  const std::string per_job = "mean per job, " + n_rep;
  const std::string n_shard =
      "2 shards, n=" + std::to_string(sharded_on.size()) + " replays";
  const int qtail = tail_percentile(queue_ms.size());
  std::vector<Metric> m = {
      {"serve.submit_us", median(submit_us), "us", n_req},
      {"serve.queue_wait_p50_ms", median(queue_ms), "ms", n_req},
      {"serve.queue_wait_p99_ms", quantile(queue_ms, 0.99), "ms",
       n_req + ", tail rule gives p" + std::to_string(qtail)},
      {"serve.cache_lookup_us", median(cache_us), "us", n_req},
      {"serve.hit_frac",
       duplicates == 0 ? 1.0
                       : static_cast<double>(hits) /
                             static_cast<double>(duplicates),
       "frac",
       "hits=" + std::to_string(hits) +
           " duplicates=" + std::to_string(duplicates)},
      {"serve.evictions", static_cast<double>(stats.cache.evictions), "count",
       ""},
      {"serve.retained_mb", retained_bytes / (1 << 20), "MB",
       "dump bytes held by job records"},
      {"core.construct_s", med(on, [](const Replay& r) { return r.construct; }),
       "s", n_rep},
      {"core.construct_cold_s", cold_s, "s", "first build in the process"},
      {"core.destroy_s", med(on, [](const Replay& r) { return r.destroy; }),
       "s", n_rep},
      {"perf.attach_s", med(on, [](const Replay& r) { return r.attach; }), "s",
       n_rep},
      {"perf.sink_s", median(sink_s), "s", "perf on - perf off, " + n_rep},
      {"perf.spans", mean(on, [](const Replay& r) { return r.spans; }), "count",
       per_job},
      {"perf.spans_dropped",
       mean(on, [](const Replay& r) { return r.spans_dropped; }), "count",
       per_job},
      {"perf.to_json_s", med(on, [](const Replay& r) { return r.to_json; }),
       "s", n_rep},
      {"perf.dump_s", med(on, [](const Replay& r) { return r.dump_s; }), "s",
       n_rep},
      {"perf.free_s", med(on, [](const Replay& r) { return r.free; }), "s",
       n_rep},
      {"perf.dump_mb", median(dump_mb), "MB", n_rep},
      {"sim.run_s", med(off, [](const Replay& r) { return r.run; }), "s",
       "perf off, " + n_rep},
      {"sim.ns_per_event",
       med(off,
           [](const Replay& r) {
             return r.run * 1e9 / static_cast<double>(r.events);
           }),
       "ns", "perf off, " + n_rep},
      {"sim.events", mean(on, [](const Replay& r) { return r.events; }), "count",
       per_job},
      {"sim.sim_us", mean(on, [](const Replay& r) { return r.sim_us; }), "us",
       "simulated, " + per_job},
      {"parallel_sim.job_s", med(sharded_on, total_s), "s", n_shard},
      {"parallel_sim.run_s", med(sharded_off, run_s), "s",
       "perf off, " + n_shard},
      {"parallel_sim.dump_mb", median(sharded_mb), "MB", n_shard},
      {"parallel_sim.epochs",
       mean(sharded_on, [](const Replay& r) { return r.epochs; }), "count",
       n_shard},
      {"parallel_sim.mail",
       mean(sharded_on, [](const Replay& r) { return r.mail; }), "count",
       n_shard},
      {"parallel_sim.merge_s",
       med(sharded_on, [](const Replay& r) { return r.merge_s; }), "s",
       n_shard},
      {"parallel_sim.barrier_s",
       med(sharded_on, [](const Replay& r) { return r.barrier_s; }), "s",
       "summed over workers, " + n_shard},
      {"parallel_sim.busy_frac",
       med(sharded_on, [](const Replay& r) { return r.busy_frac; }), "frac",
       "shard busy / (threads x run), " + n_shard},
      {"link.bytes", mean(on, [](const Replay& r) { return r.link_bytes; }), "B",
       per_job},
      {"occam.messages", mean(on, [](const Replay& r) { return r.messages; }),
       "count", per_job},
      {"vpu.ops", mean(on, [](const Replay& r) { return r.vpu_ops; }), "count",
       per_job},
      {"vpu.softfloat_ns_per_elem", softfloat_ns, "ns",
       "vsaxpy f64, 128 elems"},
      {"vpu.batch_ns_per_elem", batch_ns, "ns", "vsaxpy f64, 128 elems"},
      {"vpu.share", run_off_s > 0 ? vpu_s / run_off_s : 0.0, "frac",
       "estimated, of sim.run_s over " + n_rep},
      {"trace.overhead_frac", median(overhead), "frac",
       "replayed wall / served latency - 1, same jobs, " + n_rep},
      {"trace.coverage_frac",
       coverage.empty() ? 0.0
                        : *std::min_element(coverage.begin(), coverage.end()),
       "frac", "lowest over " + n_rep},
  };
  return m;
}

}  // namespace perfbench
