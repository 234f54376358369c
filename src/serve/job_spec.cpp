#include "serve/job_spec.hpp"

#include <cmath>
#include <cstdio>
#include <set>

#include "sim/bits.hpp"
#include "vpu/vpu.hpp"

namespace fpst::serve {

namespace {

namespace json = perf::json;

bool known_program(const std::string& p) {
  return p == "allreduce" || p == "saxpy" || p == "ring";
}

/// The integer fields and their ranges, read by validate() and by
/// spec_from_json, which checks a sent value before narrowing it.
constexpr struct {
  const char* key;
  int JobSpec::*member;
  int lo;
  int hi;
} kIntFields[] = {
    {"dimension", &JobSpec::dimension, 0, 10},
    {"threads", &JobSpec::threads, 1, 64},
    {"rounds", &JobSpec::rounds, 1, 100000},
    {"elems", &JobSpec::elems, 1, 128},
};

void require_range(const char* field, std::int64_t v, std::int64_t lo,
                   std::int64_t hi) {
  if (v < lo || v > hi) {
    throw SpecError("out-of-range",
                    std::string("field '") + field + "' = " +
                        std::to_string(v) + " outside [" +
                        std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
}

/// A numeric spec field must be a finite integral JSON number. The JSON
/// grammar cannot spell NaN, but documents built through the Value API (or
/// oversized literals that parse to +/-inf) can carry one — hash nothing
/// that is not exactly representable.
std::int64_t integral_field(const char* field, const json::Value& v) {
  if (v.kind() == json::Value::Kind::integer) {
    return v.as_int();
  }
  if (v.kind() == json::Value::Kind::number) {
    const double d = v.as_double();
    if (!std::isfinite(d)) {
      throw SpecError("not-finite", std::string("field '") + field +
                                        "' is NaN or infinite");
    }
    if (d != std::floor(d) || d < -9.0e18 || d > 9.0e18) {
      throw SpecError("not-integral", std::string("field '") + field +
                                          "' is not an integer");
    }
    return static_cast<std::int64_t>(d);
  }
  throw SpecError("bad-type",
                  std::string("field '") + field + "' must be a number");
}

}  // namespace

void validate(const JobSpec& spec) {
  if (!known_program(spec.program)) {
    throw SpecError("bad-program",
                    "unknown program '" + spec.program +
                        "' (expected allreduce | saxpy | ring)");
  }
  for (const auto& f : kIntFields) {
    require_range(f.key, spec.*f.member, f.lo, f.hi);
  }
  if (!vpu::parse_vpu_mode(spec.vpu_mode).has_value()) {
    throw SpecError("bad-mode",
                    "unknown vpu_mode '" + spec.vpu_mode +
                        "' (expected softfloat | batch | checked)");
  }
}

json::Value spec_to_json(const JobSpec& spec) {
  json::Value doc = json::Value::object();
  doc["program"] = json::Value::string(spec.program);
  doc["dimension"] = json::Value::integer(spec.dimension);
  doc["threads"] = json::Value::integer(spec.threads);
  doc["rounds"] = json::Value::integer(spec.rounds);
  doc["elems"] = json::Value::integer(spec.elems);
  doc["seed"] = json::Value::integer(static_cast<std::int64_t>(spec.seed));
  doc["vpu_mode"] = json::Value::string(spec.vpu_mode);
  return doc;
}

JobSpec spec_from_json(const json::Value& doc) {
  if (!doc.is_object()) {
    throw SpecError("bad-type", "spec must be a JSON object");
  }
  static const std::set<std::string> kFields{"program", "dimension",
                                            "threads", "rounds",
                                            "elems",   "seed",
                                            "vpu_mode"};
  for (const auto& [key, value] : doc.as_object()) {
    (void)value;
    if (kFields.count(key) == 0) {
      throw SpecError("unknown-field", "unknown field '" + key + "'");
    }
  }
  JobSpec spec;
  if (const json::Value* v = doc.find("program")) {
    if (!v->is_string()) {
      throw SpecError("bad-type", "field 'program' must be a string");
    }
    spec.program = v->as_string();
  }
  for (const auto& f : kIntFields) {
    if (const json::Value* v = doc.find(f.key)) {
      const std::int64_t sent = integral_field(f.key, *v);
      require_range(f.key, sent, f.lo, f.hi);
      spec.*f.member = static_cast<int>(sent);
    }
  }
  if (const json::Value* v = doc.find("seed")) {
    spec.seed = static_cast<std::uint64_t>(integral_field("seed", *v));
  }
  if (const json::Value* v = doc.find("vpu_mode")) {
    if (!v->is_string()) {
      throw SpecError("bad-type", "field 'vpu_mode' must be a string");
    }
    spec.vpu_mode = v->as_string();
  }
  validate(spec);
  return spec;
}

JobSpec parse_spec(std::string_view text) {
  json::Value doc;
  try {
    doc = json::Value::parse(text);
  } catch (const std::exception& e) {
    const std::string what = e.what();
    throw SpecError(
        what.find("duplicate object key") != std::string::npos
            ? "duplicate-key"
            : "parse-error",
        what);
  }
  return spec_from_json(doc);
}

std::string canonical_spec(const JobSpec& spec) {
  return spec_to_json(spec).dump(-1);
}

std::string content_address(const JobSpec& spec) {
  // FNV-1a 64-bit over the canonical bytes.
  char buf[24];
  std::snprintf(buf, sizeof buf, "ca-%016llx",
                static_cast<unsigned long long>(
                    bits::fnv1a(canonical_spec(spec))));
  return buf;
}

}  // namespace fpst::serve
