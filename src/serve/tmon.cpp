#include "serve/tmon.hpp"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <utility>

namespace fpst::serve {

namespace json = perf::json;

namespace {

json::Value integer_u64(std::uint64_t v) {
  return json::Value::integer(static_cast<std::int64_t>(v));
}

/// Wall-clock stage durations — the `meta` block of one span.
json::Value span_meta(const JobSpan& sp) {
  json::Value m = json::Value::object();
  m["submit_offset_ms"] = json::Value::number(sp.submit_offset_ms);
  m["queue_ms"] = json::Value::number(sp.queue_ms);
  m["cache_ms"] = json::Value::number(sp.cache_ms);
  m["setup_ms"] = json::Value::number(sp.setup_ms);
  m["exec_ms"] = json::Value::number(sp.exec_ms);
  m["serialize_ms"] = json::Value::number(sp.serialize_ms);
  m["total_ms"] = json::Value::number(sp.total_ms);
  m["teardown_ms"] = json::Value::number(sp.teardown_ms);
  return m;
}

void append_line(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void append_line(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  out += buf;
  out += '\n';
}

/// Prometheus label values allow everything but unescaped `"` `\` `\n`.
std::string prom_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

json::Value span_to_json(const JobSpan& sp) {
  json::Value v = json::Value::object();
  v["id"] = integer_u64(sp.id);
  v["tenant"] = json::Value::string(sp.tenant);
  v["address"] = json::Value::string(sp.address);
  v["program"] = json::Value::string(sp.program);
  v["state"] = json::Value::string(to_string(sp.state));
  v["cache_hit"] = json::Value::boolean(sp.cache_hit);
  v["events"] = integer_u64(sp.events);
  if (!sp.error.empty()) {
    v["error"] = json::Value::string(sp.error);
  }
  v["meta"] = span_meta(sp);
  return v;
}

json::Value spans_to_json(const std::vector<JobSpan>& spans) {
  json::Value doc = json::Value::object();
  doc["kind"] = json::Value::string("tmon-spans");
  doc["jobs"] = integer_u64(spans.size());
  json::Value arr = json::Value::array();
  for (const JobSpan& sp : spans) {
    arr.append(span_to_json(sp));
  }
  doc["spans"] = std::move(arr);
  return doc;
}

json::Value metrics_to_json(const ServiceStats& s) {
  json::Value doc = json::Value::object();
  doc["kind"] = json::Value::string("tmon-metrics");
  doc["workers"] = json::Value::integer(s.workers);
  doc["submitted"] = integer_u64(s.submitted);
  doc["completed"] = integer_u64(s.completed);
  doc["failed"] = integer_u64(s.failed);
  doc["cache_hits"] = integer_u64(s.cache_hits);
  doc["rejected"] = integer_u64(s.rejected);

  json::Value cache = json::Value::object();
  cache["hits"] = integer_u64(s.cache.hits);
  cache["misses"] = integer_u64(s.cache.misses);
  cache["insertions"] = integer_u64(s.cache.insertions);
  cache["evictions"] = integer_u64(s.cache.evictions);
  cache["oversize_rejects"] = integer_u64(s.cache.oversize_rejects);
  cache["entries"] = integer_u64(s.cache.entries);
  cache["bytes"] = integer_u64(s.cache.bytes);
  cache["byte_budget"] = integer_u64(s.cache.byte_budget);
  doc["cache"] = std::move(cache);

  json::Value engine = json::Value::object();
  engine["epochs"] = integer_u64(s.engine_epochs);
  doc["engine"] = std::move(engine);

  json::Value tenants = json::Value::object();
  for (const auto& [name, t] : s.tenants) {
    json::Value tv = json::Value::object();
    tv["submitted"] = integer_u64(t.submitted);
    tv["completed"] = integer_u64(t.completed);
    tv["failed"] = integer_u64(t.failed);
    tv["cache_hits"] = integer_u64(t.cache_hits);
    tv["cache_misses"] = integer_u64(t.cache_misses);
    tv["rejected"] = integer_u64(t.rejected);
    tenants[name] = std::move(tv);
  }
  doc["tenants"] = std::move(tenants);

  // Everything below is host wall-clock (or a live gauge): quarantined in
  // `meta` so the determinism gates can strip it.
  json::Value meta = json::Value::object();
  meta["uptime_ms"] = json::Value::number(s.uptime_ms);
  meta["queue_depth"] = integer_u64(s.queue_depth);
  meta["backpressure_stalls"] = integer_u64(s.backpressure_stalls);
  json::Value meng = json::Value::object();
  meng["merge_ns"] = integer_u64(s.engine_merge_ns);
  meng["barrier_ns"] = integer_u64(s.engine_barrier_ns);
  meta["engine"] = std::move(meng);
  json::Value mten = json::Value::object();
  for (const auto& [name, t] : s.tenants) {
    json::Value tv = json::Value::object();
    tv["backpressure_stalls"] = integer_u64(t.backpressure_stalls);
    tv["latency_us"] = t.latency_us.to_json();
    tv["queue_wait_us"] = t.queue_wait_us.to_json();
    mten[name] = std::move(tv);
  }
  meta["tenants"] = std::move(mten);
  doc["meta"] = std::move(meta);
  return doc;
}

std::string to_prometheus(const ServiceStats& s) {
  std::string out;
  append_line(out, "# TYPE tsim_jobs_submitted_total counter");
  append_line(out, "tsim_jobs_submitted_total %" PRIu64, s.submitted);
  append_line(out, "# TYPE tsim_jobs_completed_total counter");
  append_line(out, "tsim_jobs_completed_total %" PRIu64, s.completed);
  append_line(out, "# TYPE tsim_jobs_failed_total counter");
  append_line(out, "tsim_jobs_failed_total %" PRIu64, s.failed);
  append_line(out, "# TYPE tsim_jobs_rejected_total counter");
  append_line(out, "tsim_jobs_rejected_total %" PRIu64, s.rejected);
  append_line(out, "# TYPE tsim_cache_hits_total counter");
  append_line(out, "tsim_cache_hits_total %" PRIu64, s.cache_hits);
  append_line(out, "# TYPE tsim_backpressure_stalls_total counter");
  append_line(out, "tsim_backpressure_stalls_total %" PRIu64,
              s.backpressure_stalls);
  append_line(out, "# TYPE tsim_queue_depth gauge");
  append_line(out, "tsim_queue_depth %zu", s.queue_depth);
  append_line(out, "# TYPE tsim_workers gauge");
  append_line(out, "tsim_workers %d", s.workers);
  append_line(out, "# TYPE tsim_uptime_ms gauge");
  append_line(out, "tsim_uptime_ms %.3f", s.uptime_ms);
  append_line(out, "# TYPE tsim_cache_bytes gauge");
  append_line(out, "tsim_cache_bytes %zu", s.cache.bytes);
  append_line(out, "# TYPE tsim_cache_entries gauge");
  append_line(out, "tsim_cache_entries %zu", s.cache.entries);
  append_line(out, "# TYPE tsim_cache_evictions_total counter");
  append_line(out, "tsim_cache_evictions_total %" PRIu64, s.cache.evictions);
  append_line(out, "# TYPE tsim_engine_epochs_total counter");
  append_line(out, "tsim_engine_epochs_total %" PRIu64, s.engine_epochs);
  append_line(out, "# TYPE tsim_engine_merge_ns_total counter");
  append_line(out, "tsim_engine_merge_ns_total %" PRIu64, s.engine_merge_ns);
  append_line(out, "# TYPE tsim_engine_barrier_ns_total counter");
  append_line(out, "tsim_engine_barrier_ns_total %" PRIu64,
              s.engine_barrier_ns);
  if (!s.tenants.empty()) {
    append_line(out, "# TYPE tsim_tenant_jobs_total counter");
    for (const auto& [name, t] : s.tenants) {
      const std::string label = prom_escape(name);
      append_line(out,
                  "tsim_tenant_jobs_total{tenant=\"%s\",outcome=\"done\"} "
                  "%" PRIu64,
                  label.c_str(), t.completed);
      append_line(out,
                  "tsim_tenant_jobs_total{tenant=\"%s\",outcome=\"failed\"} "
                  "%" PRIu64,
                  label.c_str(), t.failed);
      append_line(
          out,
          "tsim_tenant_jobs_total{tenant=\"%s\",outcome=\"rejected\"} "
          "%" PRIu64,
          label.c_str(), t.rejected);
    }
    append_line(out, "# TYPE tsim_tenant_cache_hits_total counter");
    for (const auto& [name, t] : s.tenants) {
      append_line(out, "tsim_tenant_cache_hits_total{tenant=\"%s\"} %" PRIu64,
                  prom_escape(name).c_str(), t.cache_hits);
    }
    append_line(out, "# TYPE tsim_tenant_latency_us summary");
    for (const auto& [name, t] : s.tenants) {
      const std::string label = prom_escape(name);
      for (const auto& [q, qs] : {std::pair<double, const char*>{0.5, "0.5"},
                                  {0.9, "0.9"},
                                  {0.99, "0.99"}}) {
        append_line(
            out, "tsim_tenant_latency_us{tenant=\"%s\",quantile=\"%s\"} %.1f",
            label.c_str(), qs, t.latency_us.quantile(q));
      }
      append_line(out, "tsim_tenant_latency_us_sum{tenant=\"%s\"} %" PRId64,
                  label.c_str(), t.latency_us.sum());
      append_line(out, "tsim_tenant_latency_us_count{tenant=\"%s\"} %" PRIu64,
                  label.c_str(), t.latency_us.count());
    }
    append_line(out, "# TYPE tsim_tenant_queue_wait_us summary");
    for (const auto& [name, t] : s.tenants) {
      const std::string label = prom_escape(name);
      for (const auto& [q, qs] : {std::pair<double, const char*>{0.5, "0.5"},
                                  {0.9, "0.9"},
                                  {0.99, "0.99"}}) {
        append_line(
            out,
            "tsim_tenant_queue_wait_us{tenant=\"%s\",quantile=\"%s\"} %.1f",
            label.c_str(), qs, t.queue_wait_us.quantile(q));
      }
      append_line(out, "tsim_tenant_queue_wait_us_sum{tenant=\"%s\"} %" PRId64,
                  label.c_str(), t.queue_wait_us.sum());
      append_line(out,
                  "tsim_tenant_queue_wait_us_count{tenant=\"%s\"} %" PRIu64,
                  label.c_str(), t.queue_wait_us.count());
    }
  }
  return out;
}

json::Value spans_chrome_trace(const std::vector<JobSpan>& spans) {
  json::Value events = json::Value::array();
  {
    json::Value pm = json::Value::object();
    pm["ph"] = json::Value::string("M");
    pm["pid"] = json::Value::integer(1);
    pm["tid"] = json::Value::integer(0);
    pm["name"] = json::Value::string("process_name");
    json::Value args = json::Value::object();
    args["name"] = json::Value::string("tsim serve");
    pm["args"] = std::move(args);
    events.append(std::move(pm));
  }
  for (const JobSpan& sp : spans) {
    const std::int64_t tid = static_cast<std::int64_t>(sp.id) + 1;
    {
      json::Value tm = json::Value::object();
      tm["ph"] = json::Value::string("M");
      tm["pid"] = json::Value::integer(1);
      tm["tid"] = json::Value::integer(tid);
      tm["name"] = json::Value::string("thread_name");
      json::Value args = json::Value::object();
      args["name"] = json::Value::string(
          "job " + std::to_string(sp.id) + " (" + sp.tenant + ")");
      tm["args"] = std::move(args);
      events.append(std::move(tm));
    }
    double at_us = sp.submit_offset_ms * 1000.0;
    const auto stage = [&](const char* name, double dur_ms) {
      if (dur_ms <= 0.0) {
        return;
      }
      json::Value e = json::Value::object();
      e["ph"] = json::Value::string("X");
      e["pid"] = json::Value::integer(1);
      e["tid"] = json::Value::integer(tid);
      e["name"] = json::Value::string(name);
      e["ts"] = json::Value::number(at_us);
      e["dur"] = json::Value::number(dur_ms * 1000.0);
      json::Value args = json::Value::object();
      args["tenant"] = json::Value::string(sp.tenant);
      args["address"] = json::Value::string(sp.address);
      args["program"] = json::Value::string(sp.program);
      args["cache_hit"] = json::Value::boolean(sp.cache_hit);
      e["args"] = std::move(args);
      events.append(std::move(e));
      at_us += dur_ms * 1000.0;
    };
    stage("queue", sp.queue_ms);
    stage("cache", sp.cache_ms);
    stage("setup", sp.setup_ms);
    stage("exec", sp.exec_ms);
    stage("serialize", sp.serialize_ms);
    stage("teardown", sp.teardown_ms);
  }
  json::Value doc = json::Value::object();
  doc["displayTimeUnit"] = json::Value::string("ms");
  doc["traceEvents"] = std::move(events);
  return doc;
}

json::Value strip_meta(const json::Value& v) {
  if (v.is_object()) {
    json::Value out = json::Value::object();
    for (const auto& [key, child] : v.as_object()) {
      if (key == "meta") {
        continue;
      }
      out[key] = strip_meta(child);
    }
    return out;
  }
  if (v.is_array()) {
    json::Value out = json::Value::array();
    for (const json::Value& child : v.as_array()) {
      out.append(strip_meta(child));
    }
    return out;
  }
  return v;
}

}  // namespace fpst::serve
