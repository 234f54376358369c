#include "serve/service.hpp"

#include <stdexcept>
#include <utility>

namespace fpst::serve {

namespace {

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::int64_t us_between(std::chrono::steady_clock::time_point a,
                        std::chrono::steady_clock::time_point b) {
  const auto us =
      std::chrono::duration_cast<std::chrono::microseconds>(b - a).count();
  return us < 0 ? 0 : static_cast<std::int64_t>(us);
}

}  // namespace

const char* to_string(JobState s) {
  switch (s) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
  }
  return "unknown";
}

Service::Service(Options opts)
    : opts_{opts},
      cache_{opts.cache_bytes},
      queue_{opts.queue_capacity},
      born_{std::chrono::steady_clock::now()} {
  if (opts_.workers < 1) {
    throw std::invalid_argument("Service: workers must be >= 1");
  }
  workers_.reserve(static_cast<std::size_t>(opts_.workers));
  for (int i = 0; i < opts_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Service::~Service() { shutdown(); }

JobId Service::create_record(const std::string& tenant,
                             const JobSpec& spec) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shut_down_) {
    throw std::runtime_error("Service: submit after shutdown");
  }
  const JobId id = jobs_.size();
  auto rec = std::make_unique<JobRecord>();
  rec->spec = spec;
  rec->tenant = tenant;
  rec->address = content_address(spec);
  rec->submitted = std::chrono::steady_clock::now();
  jobs_.push_back(std::move(rec));
  ++tenants_[tenant].submitted;
  return id;
}

void Service::finish_locked(JobRecord& rec, JobState state) {
  rec.state = state;
  rec.finished = std::chrono::steady_clock::now();
  TenantStats& t = tenants_[rec.tenant];
  if (state == JobState::kDone) {
    ++completed_;
    ++t.completed;
  } else {
    ++failed_;
    ++t.failed;
  }
  if (rec.cache_hit) {
    ++cache_hits_;
    ++t.cache_hits;
  } else if (rec.started != std::chrono::steady_clock::time_point{}) {
    // A worker picked the job up and it was not in the cache — a miss
    // that hit the engine (or died trying). Rejected/never-queued jobs
    // count as neither.
    ++t.cache_misses;
  }
  t.latency_us.add(us_between(rec.submitted, rec.finished));
  if (rec.started != std::chrono::steady_clock::time_point{}) {
    t.queue_wait_us.add(us_between(rec.submitted, rec.started));
  }
}

JobId Service::submit(const std::string& tenant, const JobSpec& spec) {
  validate(spec);
  const JobId id = create_record(tenant, spec);
  // Enqueue outside the service mutex: push() blocks under backpressure
  // and status()/workers must keep moving while a submitter waits.
  bool stalled = false;
  const bool pushed = queue_.push(tenant, id, &stalled);
  if (stalled) {
    std::lock_guard<std::mutex> lock(mu_);
    ++backpressure_stalls_;
    ++tenants_[tenant].backpressure_stalls;
  }
  if (!pushed) {
    std::lock_guard<std::mutex> lock(mu_);
    JobRecord& rec = *jobs_[id];
    rec.error = "service shut down before the job could be queued";
    finish_locked(rec, JobState::kFailed);
    done_cv_.notify_all();
    throw std::runtime_error("Service: submit after shutdown");
  }
  return id;
}

bool Service::try_submit(const std::string& tenant, const JobSpec& spec,
                         JobId* out) {
  validate(spec);
  const JobId id = create_record(tenant, spec);
  if (!queue_.try_push(tenant, id)) {
    std::lock_guard<std::mutex> lock(mu_);
    JobRecord& rec = *jobs_[id];
    rec.error = "queue full (backpressure)";
    ++rejected_;
    ++tenants_[tenant].rejected;
    finish_locked(rec, JobState::kFailed);
    done_cv_.notify_all();
    if (out != nullptr) {
      *out = id;
    }
    return false;
  }
  if (out != nullptr) {
    *out = id;
  }
  return true;
}

JobStatus Service::snapshot_locked(JobId id, const JobRecord& rec) const {
  JobStatus st;
  st.id = id;
  st.state = rec.state;
  st.cache_hit = rec.cache_hit;
  st.tenant = rec.tenant;
  st.address = rec.address;
  st.error = rec.error;
  st.result = rec.result;
  const auto now = std::chrono::steady_clock::now();
  switch (rec.state) {
    case JobState::kQueued:
      st.queue_ms = ms_between(rec.submitted, now);
      break;
    case JobState::kRunning:
      st.queue_ms = ms_between(rec.submitted, rec.started);
      st.run_ms = ms_between(rec.started, now);
      // Live progress: the run object is alive for as long as
      // rec.running is non-null, which only flips under mu_.
      st.events = rec.running != nullptr ? rec.running->progress() : 0;
      break;
    case JobState::kDone:
    case JobState::kFailed:
      st.queue_ms = ms_between(rec.submitted, rec.started);
      st.run_ms = ms_between(rec.started, rec.finished);
      st.events = rec.final_events;
      break;
  }
  return st;
}

JobStatus Service::status(JobId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= jobs_.size()) {
    throw std::out_of_range("Service: unknown job id " + std::to_string(id));
  }
  return snapshot_locked(id, *jobs_[id]);
}

JobStatus Service::wait(JobId id) {
  std::unique_lock<std::mutex> lock(mu_);
  if (id >= jobs_.size()) {
    throw std::out_of_range("Service: unknown job id " + std::to_string(id));
  }
  done_cv_.wait(lock, [&] {
    const JobState s = jobs_[id]->state;
    return s == JobState::kDone || s == JobState::kFailed;
  });
  return snapshot_locked(id, *jobs_[id]);
}

ServiceStats Service::stats() const {
  ServiceStats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.submitted = jobs_.size();
    s.completed = completed_;
    s.failed = failed_;
    s.cache_hits = cache_hits_;
    s.rejected = rejected_;
    s.backpressure_stalls = backpressure_stalls_;
    s.engine_epochs = engine_epochs_;
    s.engine_merge_ns = engine_merge_ns_;
    s.engine_barrier_ns = engine_barrier_ns_;
    s.tenants = tenants_;
    s.uptime_ms = ms_between(born_, std::chrono::steady_clock::now());
  }
  s.queue_depth = queue_.stats().depth;
  s.workers = opts_.workers;
  s.cache = cache_.stats();
  return s;
}

JobSpan Service::span_locked(JobId id, const JobRecord& rec) const {
  JobSpan sp;
  sp.id = id;
  sp.state = rec.state;
  sp.cache_hit = rec.cache_hit;
  sp.tenant = rec.tenant;
  sp.address = rec.address;
  sp.program = rec.spec.program;
  sp.error = rec.error;
  sp.submit_offset_ms = ms_between(born_, rec.submitted);
  sp.cache_ms = rec.cache_ms;
  sp.setup_ms = rec.setup_ms;
  sp.exec_ms = rec.exec_ms;
  sp.serialize_ms = rec.serialize_ms;
  sp.teardown_ms = rec.teardown_ms;
  const auto now = std::chrono::steady_clock::now();
  switch (rec.state) {
    case JobState::kQueued:
      sp.queue_ms = ms_between(rec.submitted, now);
      sp.total_ms = sp.queue_ms;
      break;
    case JobState::kRunning:
      sp.queue_ms = ms_between(rec.submitted, rec.started);
      sp.total_ms = ms_between(rec.submitted, now);
      sp.events = rec.running != nullptr ? rec.running->progress() : 0;
      break;
    case JobState::kDone:
    case JobState::kFailed:
      if (rec.started != std::chrono::steady_clock::time_point{}) {
        sp.queue_ms = ms_between(rec.submitted, rec.started);
      }
      sp.total_ms = ms_between(rec.submitted, rec.finished);
      sp.events = rec.final_events;
      break;
  }
  return sp;
}

JobSpan Service::span(JobId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= jobs_.size()) {
    throw std::out_of_range("Service: unknown job id " + std::to_string(id));
  }
  return span_locked(id, *jobs_[id]);
}

std::vector<JobSpan> Service::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<JobSpan> out;
  out.reserve(jobs_.size());
  for (JobId id = 0; id < jobs_.size(); ++id) {
    out.push_back(span_locked(id, *jobs_[id]));
  }
  return out;
}

void Service::worker_loop() {
  while (auto job = queue_.pop()) {
    JobRecord* rec = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      rec = jobs_[*job].get();
      rec->state = JobState::kRunning;
      rec->started = std::chrono::steady_clock::now();
    }
    run_job(*rec);
    done_cv_.notify_all();
  }
}

void Service::run_job(JobRecord& rec) {
  // Cache first: a hit completes the job without building an engine.
  const auto cache_t0 = std::chrono::steady_clock::now();
  std::shared_ptr<const std::string> hit = cache_.lookup(rec.address);
  const double cache_ms =
      ms_between(cache_t0, std::chrono::steady_clock::now());
  {
    std::lock_guard<std::mutex> lock(mu_);
    rec.cache_ms = cache_ms;
    if (hit) {
      rec.result = std::move(hit);
      rec.cache_hit = true;
      rec.final_events = 0;
      finish_locked(rec, JobState::kDone);
      return;
    }
  }
  std::unique_ptr<JobRun> run;
  try {
    const auto setup_t0 = std::chrono::steady_clock::now();
    run = std::make_unique<JobRun>(rec.spec);
    const double setup_ms =
        ms_between(setup_t0, std::chrono::steady_clock::now());
    {
      std::lock_guard<std::mutex> lock(mu_);
      rec.setup_ms = setup_ms;
      rec.running = run.get();
    }
    RunOutcome out = run->execute();
    {
      std::lock_guard<std::mutex> lock(mu_);
      rec.running = nullptr;  // before `run` dies below
      rec.result = out.dump;
      rec.final_events = out.events;
      rec.exec_ms = out.exec_ms;
      rec.serialize_ms = out.serialize_ms;
      engine_epochs_ += out.engine_epochs;
      engine_merge_ns_ += out.engine_merge_ns;
      engine_barrier_ns_ += out.engine_barrier_ns;
      finish_locked(rec, JobState::kDone);
    }
    cache_.insert(rec.address, std::move(out.dump));
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lock(mu_);
    rec.running = nullptr;
    rec.error = e.what();
    finish_locked(rec, JobState::kFailed);
  }
  if (run) {
    // Freeing the machine follows the terminal state, so it is timed as
    // its own stage rather than inside total_ms.
    const auto teardown_t0 = std::chrono::steady_clock::now();
    run.reset();
    const double teardown_ms =
        ms_between(teardown_t0, std::chrono::steady_clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    rec.teardown_ms = teardown_ms;
  }
}

void Service::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shut_down_) {
      return;
    }
    shut_down_ = true;
  }
  queue_.close();
  for (std::thread& t : workers_) {
    if (t.joinable()) {
      t.join();
    }
  }
}

}  // namespace fpst::serve
