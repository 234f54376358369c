// The two workloads, the closed-loop serve phase and the output checks.
//
//   serve_mix       2 clients, 2 workers, four tenants in rotation. Serial
//                   specs only: dimension 3-7, all three programs, rounds
//                   1-8, elems 8-128, vpu_mode softfloat or batch. Exactly
//                   3 of every 10 requests repeat one of 16 hot specs that
//                   set-up pre-warms, so every duplicate is a cache hit
//                   whatever the thread timing, and hits stay well below
//                   half: the median sits inside the miss distribution.
//   cube10          1 client, 1 worker: allreduce on the 10-cube, rounds 8,
//                   elems 16, a fresh seed per job. 1024 nodes, ~1.8 M
//                   events, a 17 MB dump; the cache only inserts and evicts.
//                   Its traced run also replays the same spec on 2 shards,
//                   which covers the ParallelSim merge, barrier and mail.
//
// Shapes are stratified rather than drawn independently — every pass of 240
// unique serve_mix requests covers each (dimension, program, vpu_mode,
// rounds) once — so two seeds ask for nearly the same work and differ in
// data, order and the exact elems values.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "serve/runner.hpp"

namespace perfbench {

namespace {

using fpst::serve::JobRun;
using fpst::serve::JobState;
using fpst::serve::Service;

/// splitmix64 stream: the only source of variation in a workload.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    const std::uint64_t out = splitmix64(state);
    state += 0x9e3779b97f4a7c15ULL;
    return out;
  }
  int below(int n) {
    return static_cast<int>(next() % static_cast<std::uint64_t>(n));
  }
  template <class T>
  void shuffle(std::vector<T>* v) {
    for (std::size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[next() % i]);
    }
  }
};

constexpr const char* kTenants[] = {"ana", "bob", "cam", "dee"};
constexpr const char* kPrograms[] = {"allreduce", "saxpy", "ring"};
constexpr const char* kModes[] = {"softfloat", "batch"};

/// Requests per second of --seconds, calibrated on a 4-core host so a run's
/// timed phase lasts about --seconds there. The count is fixed per flag
/// value; a slower program simply takes longer.
constexpr int kServeMixPerSecond = 100;
constexpr int kHotSpecs = 16;

/// Deals serial specs from a deck holding every (dimension 3-7, program,
/// vpu_mode, rounds 1-8) once, reshuffled per pass of 240. Each shape's
/// eight rounds values are paired with its eight elems bands (8-22, ...,
/// 113-127) in a shuffled order, the elems value drawn inside its band.
class ShapeDeck {
 public:
  JobSpec draw(Rng& rng) {
    if (next_ == deck_.size()) {
      deck_.clear();
      std::vector<int> bands = {0, 1, 2, 3, 4, 5, 6, 7};
      for (int d = 3; d <= 7; ++d) {
        for (const char* p : kPrograms) {
          for (const char* m : kModes) {
            rng.shuffle(&bands);
            for (int r = 0; r < 8; ++r) {
              deck_.push_back(
                  {d, p, m, r + 1, bands[static_cast<std::size_t>(r)]});
            }
          }
        }
      }
      rng.shuffle(&deck_);
      next_ = 0;
    }
    const Shape& s = deck_[next_++];
    JobSpec spec;
    spec.program = s.program;
    spec.dimension = s.dimension;
    spec.threads = 1;
    spec.rounds = s.rounds;
    spec.elems = 8 + 15 * s.band + rng.below(15);
    spec.vpu_mode = s.mode;
    spec.seed = rng.next();
    return spec;
  }

 private:
  struct Shape {
    int dimension;
    const char* program;
    const char* mode;
    int rounds;
    int band;
  };
  std::vector<Shape> deck_;
  std::size_t next_ = 0;
};

Workload serve_mix(const Args& args, Rng& rng) {
  Workload w;
  w.clients = 2;
  w.workers = 2;
  // The default 64 MB cannot hold the hot set: a burst of a few 7-cube
  // dumps (up to ~10 MB each) evicts it. The dumps live in the job records
  // anyway, so a larger budget costs no memory.
  w.cache_mb = 512;
  // A pre-warm takes ~0.2 s, short enough for bursts to decide it alone.
  w.setups = 9;
  const int hot = args.smoke ? 4 : kHotSpecs;
  const std::size_t n =
      args.smoke ? 40 : static_cast<std::size_t>(kServeMixPerSecond) *
                            static_cast<std::size_t>(args.seconds);
  // Hot specs have fixed shapes and elems bands so the pre-warm costs the
  // same on every seed; only their data seeds and exact elems vary.
  for (int h = 0; h < hot; ++h) {
    JobSpec spec;
    spec.program = kPrograms[h % 3];
    spec.dimension = 3 + h % 5;
    spec.rounds = 1 + h % 8;
    spec.elems = 8 + 15 * (3 * h % 8) + rng.below(15);
    spec.vpu_mode = kModes[h % 2];
    spec.seed = rng.next();
    w.warmup.push_back(spec);
  }
  // Duplicates: 3 seeded slots in every block of 10, cycling through the
  // hot set in a shuffled order so each hot spec recurs at a bounded gap
  // and stays near the front of the LRU.
  std::vector<int> hot_order(static_cast<std::size_t>(hot));
  for (int h = 0; h < hot; ++h) {
    hot_order[static_cast<std::size_t>(h)] = h;
  }
  rng.shuffle(&hot_order);
  std::size_t next_hot = 0;
  std::vector<int> slots(10);
  for (int s = 0; s < 10; ++s) {
    slots[static_cast<std::size_t>(s)] = s;
  }
  ShapeDeck unique_deck;
  std::vector<std::size_t> misses;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 10 == 0) {
      rng.shuffle(&slots);
    }
    const int slot = slots[i % 10];
    Request r;
    r.tenant = kTenants[i % 4];
    if (slot < 3) {
      r.hot = hot_order[next_hot++ % hot_order.size()];
      r.spec = w.warmup[static_cast<std::size_t>(r.hot)];
    } else {
      r.spec = unique_deck.draw(rng);
      misses.push_back(i);
    }
    w.requests.push_back(std::move(r));
  }
  // A fixed sample of misses, spread over the whole run.
  const std::size_t sample = args.smoke ? 2 : 8;
  for (std::size_t k = 0; k < sample && !misses.empty(); ++k) {
    w.rerun.push_back(misses[k * misses.size() / sample]);
  }
  return w;
}

Workload cube10(const Args& args, Rng& rng) {
  Workload w;
  w.clients = 1;
  w.workers = 1;
  JobSpec spec;
  spec.program = "allreduce";
  // The smoke size keeps the shape but not the machine size.
  spec.dimension = args.smoke ? 6 : 10;
  spec.threads = 1;
  spec.rounds = 8;
  spec.elems = 16;
  // Two warm-up jobs: the first pays for faulting in 1 GiB of node memory,
  // the second still finds part of it returned to the OS; from the third on
  // construction time is flat.
  const int warm = args.smoke ? 1 : 2;
  for (int i = 0; i < warm; ++i) {
    spec.seed = rng.next();
    w.warmup.push_back(spec);
  }
  const int jobs = args.smoke ? 3 : args.seconds;
  for (int i = 0; i < jobs; ++i) {
    spec.seed = rng.next();
    w.requests.push_back({kTenants[0], spec, -1});
  }
  w.rerun.push_back(0);  // a repeated seed must give a byte-identical dump
  return w;
}

/// A number read from a dump's "results" object (NaN when absent).
double dump_result(const std::string& dump, const std::string& key) {
  const std::size_t results = dump.find("\"results\": {");
  if (results == std::string::npos) {
    return std::nan("");
  }
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = dump.find(needle, results);
  if (at == std::string::npos) {
    return std::nan("");
  }
  return std::strtod(dump.c_str() + at + needle.size(), nullptr);
}

}  // namespace

Workload make_workload(const Args& args) {
  Rng rng{args.seed * 0x2545f4914f6cdd1dULL + 0x1234567ULL};
  Workload w;
  if (args.workload == "serve_mix") {
    w = serve_mix(args, rng);
  } else if (args.workload == "cube10") {
    w = cube10(args, rng);
  } else {
    throw std::invalid_argument("unknown workload '" + args.workload +
                                "' (serve_mix | cube10)");
  }
  w.name = args.workload;
  return w;
}

Setup set_up(const Workload& w) {
  const Clock::time_point t0 = Clock::now();
  Setup s;
  Service::Options opts;
  opts.workers = w.workers;
  opts.cache_bytes = w.cache_mb << 20;
  s.service = std::make_unique<Service>(opts);
  std::vector<fpst::serve::JobId> ids;
  for (const JobSpec& spec : w.warmup) {
    ids.push_back(s.service->submit("warmup", spec));
  }
  for (const fpst::serve::JobId id : ids) {
    const fpst::serve::JobStatus st = s.service->wait(id);
    if (st.state != JobState::kDone) {
      throw std::runtime_error("warm-up job failed: " + st.error);
    }
    s.warm_results.push_back(st.result);
  }
  s.seconds = seconds_between(t0, Clock::now());
  return s;
}

std::vector<Sample> run_timed(const Workload& w, Service& svc,
                              double* wall_s) {
  std::vector<Sample> samples(w.requests.size());
  std::atomic<std::size_t> next{0};
  auto client = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= w.requests.size()) {
        return;
      }
      const Request& r = w.requests[i];
      Sample& s = samples[i];
      const Clock::time_point t0 = Clock::now();
      s.id = svc.submit(r.tenant, r.spec);
      const Clock::time_point t1 = Clock::now();
      s.status = svc.wait(s.id);
      const Clock::time_point t2 = Clock::now();
      s.start = t0;
      s.submit_us = seconds_between(t0, t1) * 1e6;
      s.latency_ms = seconds_between(t0, t2) * 1e3;
    }
  };
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < w.clients; ++c) {
    clients.emplace_back(client);
  }
  for (std::thread& t : clients) {
    t.join();
  }
  *wall_s = seconds_between(t0, Clock::now());
  return samples;
}

void inject_fault(const Args& args, const Workload& w,
                  std::vector<Sample>* samples) {
  if (args.inject.empty()) {
    return;
  }
  // The victim is a request whose bytes are compared in full: a hot
  // duplicate on serve_mix, the re-run job on the cube10 workloads.
  std::size_t victim = w.rerun.empty() ? 0 : w.rerun.front();
  if (args.inject == "dump") {
    for (std::size_t i = 0; i < w.requests.size(); ++i) {
      if (w.requests[i].hot >= 0) {
        victim = i;
        break;
      }
    }
    Sample& s = (*samples)[victim];
    std::string bytes = *s.status.result;
    bytes[bytes.size() / 2] ^= 0x01;
    s.status.result = std::make_shared<const std::string>(std::move(bytes));
  } else if (args.inject == "events") {
    (*samples)[victim].status.events += 1;
  } else {
    throw std::invalid_argument("--inject takes dump or events");
  }
}

std::vector<bool> check_results(const Workload& w, const Setup& setup,
                                const std::vector<Sample>& samples,
                                std::vector<std::string>* why) {
  std::vector<bool> ok(samples.size(), true);
  auto fail = [&](std::size_t i, const std::string& msg) {
    if (ok[i]) {
      ok[i] = false;
      why->push_back("request " + std::to_string(i) + ": " + msg);
    }
  };
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const fpst::serve::JobStatus& st = samples[i].status;
    const Request& r = w.requests[i];
    if (st.state != JobState::kDone || !st.result || st.result->empty()) {
      fail(i, "not done: " + st.error);
      continue;
    }
    if (r.hot >= 0) {
      if (!st.cache_hit || st.events != 0) {
        fail(i, "a duplicate of a pre-warmed spec was not a zero-event hit");
      } else if (*st.result !=
                 *setup.warm_results[static_cast<std::size_t>(r.hot)]) {
        fail(i, "hit bytes differ from the pre-warmed result");
      }
      continue;
    }
    if (st.cache_hit || st.events == 0) {
      fail(i, "a unique spec did not simulate");
    } else if (dump_result(*st.result, "events") !=
               static_cast<double>(st.events)) {
      fail(i, "reported event count differs from the dump's");
    } else if (st.result->find("\"address\": \"" +
                               fpst::serve::content_address(r.spec) + "\"") ==
               std::string::npos) {
      fail(i, "dump does not carry the spec's content address");
    }
  }
  for (const std::size_t i : w.rerun) {
    if (!ok[i]) {
      continue;
    }
    JobRun run(w.requests[i].spec);
    if (*run.execute().dump != *samples[i].status.result) {
      fail(i, "re-run outside the timed phase gave different bytes");
    }
  }
  if (w.name == "serve_mix") {
    return ok;
  }
  // Every cube10 job runs the same program on the same machine: the event
  // count and simulated time must not depend on the data seed.
  std::map<std::pair<std::uint64_t, double>, std::size_t> votes;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (ok[i]) {
      ++votes[{samples[i].status.events,
               dump_result(*samples[i].status.result, "elapsed_us")}];
    }
  }
  if (votes.empty()) {
    return ok;
  }
  const auto common = std::max_element(
      votes.begin(), votes.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (!ok[i]) {
      continue;
    }
    const double us = dump_result(*samples[i].status.result, "elapsed_us");
    if (samples[i].status.events != common->first.first) {
      fail(i, "event count differs from the other jobs'");
    } else if (us != common->first.second) {
      fail(i, "simulated time differs from the other jobs'");
    }
  }
  return ok;
}

}  // namespace perfbench
