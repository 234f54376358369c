// JobSpec: the unit of work the simulation service accepts, and its
// content address.
//
// A spec names a workload program, the machine shape it runs on, the data
// seed and the engine partition. Because every simulation in this repo is
// bit-for-bit deterministic (the CI determinism gates of PRs 2-6 pin dump
// bytes across runs, hosts and worker-thread counts), the dump produced by
// a spec is a pure function of the spec itself — so the spec's canonical
// serialization can be hashed into a *content address* and identical
// requests can be served from a byte cache instead of re-simulated.
//
// Canonicalization is strict by design: a request that would hash to the
// "same" address as another while meaning something different (duplicate
// keys, NaN, unknown fields that a newer client thinks are significant)
// is rejected with a typed SpecError instead of being silently folded in.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "perf/json.hpp"

namespace fpst::serve {

/// Typed bad-request error. `code()` is a stable machine-readable slug
/// (e.g. "unknown-field", "duplicate-key", "not-finite") that the wire
/// protocol forwards to clients; what() carries the human diagnostic.
class SpecError : public std::runtime_error {
 public:
  SpecError(std::string code, const std::string& what)
      : std::runtime_error(what), code_{std::move(code)} {}

  const std::string& code() const { return code_; }

 private:
  std::string code_;
};

/// One simulation request. Field ranges are validated by validate() /
/// spec_from_json; the defaults form a valid spec.
struct JobSpec {
  /// Workload program: "allreduce" (rounds of a dimension-exchange vector
  /// allreduce), "saxpy" (gather-overlapped VSAXPY stripes plus a closing
  /// reduction) or "ring" (elems-vector ring shifts, every node active).
  std::string program = "allreduce";
  /// Cube dimension: 2^dimension nodes, 0 <= dimension <= 10.
  int dimension = 2;
  /// Requested worker threads, 1..64. threads == 1 runs the serial
  /// kernel; threads > 1 runs the sharded parallel engine. The shard
  /// partition is derived from (threads, dimension) only — never from the
  /// host — so the dump bytes stay a pure function of the spec.
  int threads = 1;
  /// Workload repetition count, 1..100000.
  int rounds = 1;
  /// Vector length per operation, 1..128 (one 64-bit memory row).
  int elems = 16;
  /// Data seed: initial per-node values are derived from (seed, node).
  std::uint64_t seed = 0;
  /// VPU arithmetic arm: "softfloat" (oracle, default), "batch" (host-FP
  /// fast path) or "checked" (both, abort on divergence). All three produce
  /// byte-identical dumps — the batch arm is bit-exact by contract — but
  /// the field is part of the canonical spec, so each mode hashes to its
  /// own content address: a cached result always records which arm actually
  /// produced it, and a checked re-run is never masked by a cache hit.
  std::string vpu_mode = "softfloat";

  friend bool operator==(const JobSpec&, const JobSpec&) = default;
};

/// Throws SpecError when a field is out of range or the program is
/// unknown. (Construction-by-hand skips parsing, so the service calls
/// this again at the trust boundary.)
void validate(const JobSpec& spec);

/// Spec -> sorted-key JSON object (perf::json objects are std::map-backed,
/// so key order is canonical by construction).
perf::json::Value spec_to_json(const JobSpec& spec);

/// Parse and validate a spec from a JSON document object. Throws SpecError
/// on unknown fields, wrong types, non-finite or non-integral numbers, and
/// range violations; an integer is range-checked as sent, before it is
/// narrowed to the field's type.
JobSpec spec_from_json(const perf::json::Value& doc);

/// Parse and validate a spec from JSON text. The parser rejects duplicate
/// keys (SpecError "duplicate-key") rather than silently collapsing them
/// before hashing.
JobSpec parse_spec(std::string_view text);

/// The canonical serialization: compact, sorted-key JSON. Two specs have
/// equal canonical bytes iff they are equal.
std::string canonical_spec(const JobSpec& spec);

/// Content address: "ca-" + 16 lowercase hex digits of the FNV-1a 64-bit
/// hash of canonical_spec(). This is the result-cache key.
std::string content_address(const JobSpec& spec);

}  // namespace fpst::serve
