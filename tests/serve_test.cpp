// Tests for the serving layer (src/serve): canonical JobSpec
// serialization + typed bad-request rejection, the content-addressed LRU
// result cache, the per-tenant fair bounded queue, deterministic job
// execution, the end-to-end Service cache-hit contract (identical
// spec -> byte-identical result with zero simulation events), and the
// observability surface (per-request spans, per-tenant SLO accounting,
// the tmon body/meta determinism split).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/machine.hpp"
#include "mem/memory.hpp"
#include "node/node.hpp"
#include "perf/chrome_trace.hpp"
#include "perf/json.hpp"
#include "serve/job_queue.hpp"
#include "serve/job_spec.hpp"
#include "serve/result_cache.hpp"
#include "serve/runner.hpp"
#include "serve/service.hpp"
#include "serve/tmon.hpp"
#include "sim/bits.hpp"

namespace {

using namespace fpst;
using serve::JobSpec;

/// The SpecError code thrown by `fn`, or "" when nothing was thrown.
std::string error_code(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const serve::SpecError& e) {
    return e.code();
  }
  return "";
}

std::shared_ptr<const std::string> bytes(const std::string& s) {
  return std::make_shared<const std::string>(s);
}

// ------------------------------------------------------------ JobSpec

TEST(JobSpecTest, CanonicalSerializationIsCompactAndSorted) {
  const JobSpec spec;  // defaults
  EXPECT_EQ(serve::canonical_spec(spec),
            "{\"dimension\":2,\"elems\":16,\"program\":\"allreduce\","
            "\"rounds\":1,\"seed\":0,\"threads\":1,"
            "\"vpu_mode\":\"softfloat\"}");
}

TEST(JobSpecTest, ContentAddressShapeAndSensitivity) {
  JobSpec spec;
  const std::string base = serve::content_address(spec);
  ASSERT_EQ(base.size(), 19u);
  EXPECT_EQ(base.substr(0, 3), "ca-");
  EXPECT_EQ(base.find_first_not_of("0123456789abcdef", 3), std::string::npos);

  // Equal specs hash equally; every field participates in the address —
  // notably threads, which never changes the simulated *result*, but
  // changes the engine partition recorded in the dump.
  JobSpec same;
  EXPECT_EQ(serve::content_address(same), base);
  JobSpec seed = spec;
  seed.seed = 1;
  JobSpec threads = spec;
  threads.threads = 2;
  EXPECT_NE(serve::content_address(seed), base);
  EXPECT_NE(serve::content_address(threads), base);
  EXPECT_NE(serve::content_address(seed), serve::content_address(threads));
}

TEST(JobSpecTest, ParseRoundTripsCanonicalForm) {
  JobSpec spec;
  spec.program = "ring";
  spec.dimension = 3;
  spec.threads = 4;
  spec.rounds = 7;
  spec.elems = 9;
  spec.seed = 123456789ULL;
  EXPECT_EQ(serve::parse_spec(serve::canonical_spec(spec)), spec);
}

TEST(JobSpecTest, BadRequestCorpusYieldsTypedErrors) {
  const struct {
    const char* text;
    const char* code;
  } kCorpus[] = {
      {"{\"program\":\"fizzbuzz\"}", "bad-program"},
      {"{\"dimension\":11}", "out-of-range"},
      {"{\"dimension\":-1}", "out-of-range"},
      {"{\"threads\":0}", "out-of-range"},
      {"{\"threads\":65}", "out-of-range"},
      {"{\"rounds\":0}", "out-of-range"},
      {"{\"elems\":129}", "out-of-range"},
      {"{\"rounds\":1.5}", "not-integral"},
      {"{\"program\":3}", "bad-type"},
      {"{\"seed\":\"zero\"}", "bad-type"},
      {"[1,2,3]", "bad-type"},
      {"{\"bogus\":1}", "unknown-field"},
      {"{\"Program\":\"ring\"}", "unknown-field"},  // case-sensitive
      {"{\"seed\":1,\"seed\":2}", "duplicate-key"},
      {"{\"seed\":1,\"elems\":4,\"elems\":4}", "duplicate-key"},
      {"not json at all", "parse-error"},
      {"{\"seed\":1", "parse-error"},
      {"{\"vpu_mode\":\"fast\"}", "bad-mode"},
      {"{\"vpu_mode\":\"Batch\"}", "bad-mode"},  // case-sensitive
      {"{\"vpu_mode\":3}", "bad-type"},
      // Integers that would wrap into range when narrowed to int.
      {"{\"dimension\":4294967299}", "out-of-range"},
      {"{\"threads\":4294967297}", "out-of-range"},
      {"{\"rounds\":4294967297}", "out-of-range"},
      {"{\"elems\":-4294967280}", "out-of-range"},
  };
  for (const auto& c : kCorpus) {
    EXPECT_EQ(error_code([&] { (void)serve::parse_spec(c.text); }), c.code)
        << "input: " << c.text;
  }
  // A wrapped value is reported as sent, not as its narrowed remainder.
  try {
    (void)serve::parse_spec("{\"dimension\":4294967299}");
  } catch (const serve::SpecError& e) {
    EXPECT_STREQ(e.what(), "field 'dimension' = 4294967299 outside [0, 10]");
  }
}

TEST(JobSpecTest, NonFiniteNumbersAreRejected) {
  // JSON text cannot spell NaN, but a Value built through the API can
  // carry one; spec_from_json sits behind both paths.
  namespace json = perf::json;
  json::Value doc = json::Value::object();
  doc["rounds"] = json::Value::number(std::nan(""));
  EXPECT_EQ(error_code([&] { (void)serve::spec_from_json(doc); }),
            "not-finite");
  doc["rounds"] = json::Value::number(HUGE_VAL);
  EXPECT_EQ(error_code([&] { (void)serve::spec_from_json(doc); }),
            "not-finite");
}

TEST(JobSpecTest, ParseRejectsDuplicateKeysAtAnyDepth) {
  namespace json = perf::json;
  // The one parse mode refuses a second value for a key instead of
  // silently keeping either, in nested objects too, and names the key.
  for (const char* dup : {"{\"a\":1,\"a\":2}", "[{\"b\":{\"a\":1,\"a\":1}}]"}) {
    try {
      (void)json::Value::parse(dup);
      ADD_FAILURE() << "duplicate key parsed: " << dup;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("duplicate object key \"a\""),
                std::string::npos)
          << e.what();
    }
  }
  // The same key in sibling objects is no duplicate.
  EXPECT_EQ(json::Value::parse("[{\"a\":1},{\"a\":2}]").as_array().size(), 2u);
}

// ------------------------------------------------------------ ResultCache

TEST(ResultCacheTest, MissThenHitReturnsSameBytes) {
  serve::ResultCache cache{1024};
  EXPECT_EQ(cache.lookup("ca-a"), nullptr);
  cache.insert("ca-a", bytes("payload"));
  const auto hit = cache.lookup("ca-a");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "payload");
  const auto st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.entries, 1u);
  EXPECT_EQ(st.bytes, 7u);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsedUnderByteBudget) {
  serve::ResultCache cache{100};
  cache.insert("ca-a", bytes(std::string(40, 'a')));
  cache.insert("ca-b", bytes(std::string(40, 'b')));
  // Freshen a so b is the LRU entry when c arrives.
  ASSERT_NE(cache.lookup("ca-a"), nullptr);
  cache.insert("ca-c", bytes(std::string(40, 'c')));
  EXPECT_NE(cache.lookup("ca-a"), nullptr);
  EXPECT_EQ(cache.lookup("ca-b"), nullptr);  // evicted
  EXPECT_NE(cache.lookup("ca-c"), nullptr);
  const auto st = cache.stats();
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.entries, 2u);
  EXPECT_EQ(st.bytes, 80u);
  EXPECT_LE(st.bytes, st.byte_budget);
}

TEST(ResultCacheTest, EvictedBytesStayValidForHolders) {
  serve::ResultCache cache{10};
  cache.insert("ca-a", bytes("0123456789"));
  const auto held = cache.lookup("ca-a");
  ASSERT_NE(held, nullptr);
  cache.insert("ca-b", bytes("9876543210"));  // evicts a entirely
  EXPECT_EQ(cache.lookup("ca-a"), nullptr);
  EXPECT_EQ(*held, "0123456789");  // the client's copy is untouched
}

TEST(ResultCacheTest, OversizeValueIsNotStored) {
  serve::ResultCache cache{8};
  cache.insert("ca-big", bytes("far too large for the budget"));
  EXPECT_EQ(cache.lookup("ca-big"), nullptr);
  const auto st = cache.stats();
  EXPECT_EQ(st.oversize_rejects, 1u);
  EXPECT_EQ(st.entries, 0u);
  EXPECT_EQ(st.bytes, 0u);
}

TEST(ResultCacheTest, ZeroBudgetDisablesStorage) {
  serve::ResultCache cache{0};
  cache.insert("ca-a", bytes("x"));
  EXPECT_EQ(cache.lookup("ca-a"), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ResultCacheTest, ReinsertReplacesValueAndAccounting) {
  serve::ResultCache cache{100};
  cache.insert("ca-a", bytes("old-bytes"));
  cache.insert("ca-a", bytes("new"));
  const auto hit = cache.lookup("ca-a");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "new");
  const auto st = cache.stats();
  EXPECT_EQ(st.entries, 1u);
  EXPECT_EQ(st.bytes, 3u);
}

// ------------------------------------------------------------ JobQueue

TEST(JobQueueTest, FifoWithinOneTenant) {
  serve::JobQueue q{8};
  ASSERT_TRUE(q.push("t", 1));
  ASSERT_TRUE(q.push("t", 2));
  ASSERT_TRUE(q.push("t", 3));
  EXPECT_EQ(q.pop(), std::optional<std::uint64_t>{1});
  EXPECT_EQ(q.pop(), std::optional<std::uint64_t>{2});
  EXPECT_EQ(q.pop(), std::optional<std::uint64_t>{3});
}

TEST(JobQueueTest, RoundRobinKeepsSmallTenantAheadOfBacklog) {
  serve::JobQueue q{32};
  // Tenant a floods ten jobs before tenant b submits one.
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(q.push("a", i));
  }
  ASSERT_TRUE(q.push("b", 100));
  // b's job pops second — behind exactly one of a's, not all ten.
  EXPECT_EQ(q.pop(), std::optional<std::uint64_t>{0});
  EXPECT_EQ(q.pop(), std::optional<std::uint64_t>{100});
  EXPECT_EQ(q.pop(), std::optional<std::uint64_t>{1});
}

TEST(JobQueueTest, TryPushRefusesWhenFull) {
  serve::JobQueue q{2};
  EXPECT_TRUE(q.try_push("t", 1));
  EXPECT_TRUE(q.try_push("u", 2));
  EXPECT_FALSE(q.try_push("t", 3));
  (void)q.pop();
  EXPECT_TRUE(q.try_push("t", 3));
}

TEST(JobQueueTest, CloseDrainsPendingThenEndsStream) {
  serve::JobQueue q{8};
  ASSERT_TRUE(q.push("t", 1));
  ASSERT_TRUE(q.push("t", 2));
  q.close();
  EXPECT_FALSE(q.push("t", 3));
  EXPECT_FALSE(q.try_push("t", 3));
  EXPECT_EQ(q.pop(), std::optional<std::uint64_t>{1});
  EXPECT_EQ(q.pop(), std::optional<std::uint64_t>{2});
  EXPECT_EQ(q.pop(), std::nullopt);
}

// ------------------------------------------------------------ runner

TEST(RunnerTest, ShardPartitionDerivesFromSpecOnly) {
  JobSpec spec;
  spec.dimension = 3;  // 8 nodes
  spec.threads = 1;
  EXPECT_EQ(serve::shards_for(spec), 1);
  spec.threads = 4;
  EXPECT_EQ(serve::shards_for(spec), 4);
  spec.threads = 3;  // rounds down to a power of two
  EXPECT_EQ(serve::shards_for(spec), 2);
  spec.threads = 64;  // capped by the node count
  EXPECT_EQ(serve::shards_for(spec), 8);
  spec.dimension = 0;  // a single node is always one shard
  EXPECT_EQ(serve::shards_for(spec), 1);
}

TEST(RunnerTest, SameSpecProducesByteIdenticalDumps) {
  JobSpec spec;
  spec.program = "ring";
  spec.dimension = 2;
  spec.rounds = 2;
  spec.elems = 8;
  spec.seed = 11;
  serve::JobRun run_a{spec};
  serve::JobRun run_b{spec};
  const serve::RunOutcome a = run_a.execute();
  const serve::RunOutcome b = run_b.execute();
  ASSERT_NE(a.dump, nullptr);
  ASSERT_NE(b.dump, nullptr);
  EXPECT_EQ(*a.dump, *b.dump);
  EXPECT_EQ(a.events, b.events);
  EXPECT_GT(a.events, 0u);
}

// Byte identity across commits: tests/corpus/dumps/ holds dumps written by
// an earlier JobRun (1- and 2-cube allreduce/saxpy/ring, serial and on two
// shards). Each carries its spec under results.spec; re-running that spec
// today must reproduce the file byte for byte, so a format drift that every
// run of one commit shares still fails here.
TEST(RunnerTest, ReproducesCommittedReferenceDumps) {
  const std::filesystem::path dir =
      std::filesystem::path(FPST_SOURCE_DIR) / "tests/corpus/dumps";
  std::size_t checked = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    const std::string reference = bytes.str();
    const perf::json::Value doc = perf::json::Value::parse(reference);
    const JobSpec spec =
        serve::spec_from_json(*doc.find("results")->find("spec"));
    serve::JobRun run{spec};
    const serve::RunOutcome out = run.execute();
    EXPECT_TRUE(*out.dump == reference)
        << entry.path().filename() << " drifted from the committed bytes";
    ++checked;
  }
  EXPECT_EQ(checked, 12u);
}

// The dump loader accepts every committed reference dump, and each file is
// canonical: its parsed tree prints it back byte for byte.
TEST(RunnerTest, CommittedReferenceDumpsLoadAndRoundTrip) {
  const std::filesystem::path dir =
      std::filesystem::path(FPST_SOURCE_DIR) / "tests/corpus/dumps";
  std::size_t checked = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    const perf::json::Value doc = perf::json::Value::parse(bytes.str());
    EXPECT_NO_THROW(perf::from_json(doc)) << entry.path().filename();
    EXPECT_EQ(doc.dump(2) + "\n", bytes.str()) << entry.path().filename();
    ++checked;
  }
  EXPECT_EQ(checked, 12u);
}

// Byte identity across commits over a wider sweep than the reference
// dumps: tests/corpus/dumps/sweep_digests.txt holds the FNV-1a 64 digest
// of the dump of every spec in dimensions 1-7 x every program x
// softfloat/batch x 1/2/4 threads (rounds 2, elems 8), one
// "<program> <dimension> <vpu_mode> <threads> <digest>" line each.
TEST(RunnerTest, DumpDigestSweepMatchesCommittedDigests) {
  std::ifstream in(std::filesystem::path(FPST_SOURCE_DIR) /
                   "tests/corpus/dumps/sweep_digests.txt");
  ASSERT_TRUE(in) << "missing sweep_digests.txt";
  std::size_t checked = 0;
  JobSpec spec;
  spec.rounds = 2;
  spec.elems = 8;
  std::string digest;
  while (in >> spec.program >> spec.dimension >> spec.vpu_mode >>
         spec.threads >> digest) {
    serve::JobRun run{spec};
    const std::string dump = *run.execute().dump;
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(bits::fnv1a(dump)));
    EXPECT_EQ(hex, digest) << spec.program << " " << spec.dimension << " "
                           << spec.vpu_mode << " " << spec.threads;
    ++checked;
  }
  EXPECT_EQ(checked, 126u);
}

TEST(RunnerTest, DifferentSeedProducesDifferentDumps) {
  JobSpec spec;
  spec.program = "allreduce";
  spec.dimension = 2;
  spec.rounds = 1;
  spec.elems = 4;
  spec.seed = 1;
  serve::JobRun run_a{spec};
  spec.seed = 2;
  serve::JobRun run_b{spec};
  EXPECT_NE(*run_a.execute().dump, *run_b.execute().dump);
}

TEST(JobSpecTest, VpuModeParticipatesInContentAddress) {
  JobSpec spec;
  const std::string soft = serve::content_address(spec);
  spec.vpu_mode = "batch";
  const std::string batch = serve::content_address(spec);
  spec.vpu_mode = "checked";
  const std::string checked = serve::content_address(spec);
  // The arms are bit-exact by contract, but the cache key still records
  // which arm ran: a checked request must never be satisfied by a cached
  // softfloat dump, so all three addresses are distinct.
  EXPECT_NE(soft, batch);
  EXPECT_NE(soft, checked);
  EXPECT_NE(batch, checked);

  const JobSpec round_trip = serve::parse_spec(serve::canonical_spec(spec));
  EXPECT_EQ(round_trip.vpu_mode, "checked");
  EXPECT_EQ(serve::content_address(round_trip), checked);
}

TEST(RunnerTest, CheckedModeSaxpyIsByteIdenticalToSoftfloat) {
  // The ISSUE-8 equivalence contract at the serve layer: a 4-node SAXPY in
  // `checked` mode (which executes the batch arm and the softfloat oracle
  // on every vector form and throws on any divergence) produces the same
  // simulation bytes as a plain `softfloat` run. The dumps differ only in
  // the three fields that name the mode — the content address, the spec
  // echo and the perf workload string (which embeds the canonical spec) —
  // so neutralise those and compare the rest byte-for-byte.
  JobSpec spec;
  spec.program = "saxpy";
  spec.dimension = 2;  // 4 nodes
  spec.rounds = 3;
  spec.elems = 32;
  spec.seed = 5;
  auto dump_for = [&](const char* mode) {
    JobSpec s = spec;
    s.vpu_mode = mode;
    serve::JobRun run{s};
    return run.execute();
  };
  const serve::RunOutcome soft = dump_for("softfloat");
  const serve::RunOutcome checked = dump_for("checked");
  const serve::RunOutcome batch = dump_for("batch");
  EXPECT_EQ(soft.checksum, checked.checksum);
  EXPECT_EQ(soft.checksum, batch.checksum);
  EXPECT_EQ(soft.events, checked.events);
  EXPECT_EQ(soft.events, batch.events);

  auto neutralised = [](const serve::RunOutcome& out) {
    perf::json::Value doc = perf::json::Value::parse(*out.dump);
    doc["results"]["address"] = perf::json::Value::string("-");
    doc["results"]["spec"]["vpu_mode"] = perf::json::Value::string("-");
    doc["metadata"]["workload"] = perf::json::Value::string("-");
    return doc.dump(2);
  };
  EXPECT_EQ(neutralised(soft), neutralised(checked));
  EXPECT_EQ(neutralised(soft), neutralised(batch));
}

TEST(RunnerTest, ProgressSettlesAtFinalEventCount) {
  JobSpec spec;
  spec.program = "saxpy";
  spec.dimension = 1;
  spec.rounds = 3;
  spec.elems = 8;
  serve::JobRun run{spec};
  EXPECT_EQ(run.progress(), 0u);
  const serve::RunOutcome out = run.execute();
  EXPECT_EQ(run.progress(), out.events);
  EXPECT_GT(out.events, 0u);
}

// ------------------------------------------------------------ Service

JobSpec small_spec(std::uint64_t seed) {
  JobSpec spec;
  spec.program = "allreduce";
  spec.dimension = 2;
  spec.rounds = 2;
  spec.elems = 8;
  spec.seed = seed;
  return spec;
}

// Node memory is mapped by its first write, and a message never writes
// it: allreduce and ring jobs map no node's memory, while saxpy stages its
// arrays into every node's.
TEST(RunnerTest, OnlySaxpyJobsMapNodeMemory) {
  for (const std::string program : {"allreduce", "ring", "saxpy"}) {
    JobSpec spec = small_spec(3);
    spec.program = program;
    spec.dimension = 6;
    serve::JobRun run{spec};
    (void)run.execute();
    core::TSeries& machine = run.machine();
    std::size_t mapped = 0;
    for (net::NodeId id = 0; id < machine.size(); ++id) {
      mapped += machine.node(id).memory().mapped() ? 1U : 0U;
    }
    EXPECT_EQ(mapped, program == "saxpy" ? machine.size() : 0u) << program;
  }
}

/// The dump of one run of `spec`, its machine freed before this returns.
std::string run_dump(const JobSpec& spec) {
  serve::JobRun run{spec};
  return *run.execute().dump;
}

// A freed machine's node arrays go to the pool, and the next saxpy job's
// first writes take them back: after a warm-up a job maps no array, and a
// reused array changes no byte of a dump.
TEST(RunnerTest, SaxpyJobsReuseFreedNodeArrays) {
  JobSpec a = small_spec(3);
  a.program = "saxpy";
  a.dimension = 5;
  JobSpec b = a;
  b.seed = 4;
  b.elems = 128;
  const std::string first = run_dump(a);
  const mem::PoolStats warm = mem::pool_stats();
  const std::string other = run_dump(b);
  const std::string again = run_dump(a);
  const mem::PoolStats after = mem::pool_stats();
  EXPECT_EQ(after.mapped, warm.mapped) << "a job after the warm-up mapped";
  EXPECT_EQ(after.reused, warm.reused + 2 * (std::uint64_t{1} << a.dimension));
  EXPECT_TRUE(first == again) << "A's dumps differ";
  EXPECT_TRUE(first != other);
}

// Serve workers and shard threads take arrays from the pool and return
// them at once: two threads each run 20 saxpy jobs, one of them on two
// shards, and every dump equals the one its job wrote alone.
TEST(RunnerTest, ConcurrentSaxpyJobsShareThePool) {
  constexpr std::size_t kJobs = 20;
  std::vector<JobSpec> specs;
  for (std::size_t i = 0; i < 2 * kJobs; ++i) {
    JobSpec spec = small_spec(200 + i);
    spec.program = "saxpy";
    spec.dimension = 5;
    spec.elems = 8 << (i % 5);  // 8 to 128
    spec.threads = i == 1 ? 2 : 1;
    specs.push_back(spec);
  }
  std::vector<std::string> reference;
  for (const JobSpec& spec : specs) {
    reference.push_back(run_dump(spec));
  }
  std::vector<std::string> dumps(specs.size());
  {
    std::vector<std::jthread> workers;
    for (std::size_t w = 0; w < 2; ++w) {
      workers.emplace_back([&specs, &dumps, w] {
        for (std::size_t i = w * kJobs; i < (w + 1) * kJobs; ++i) {
          dumps[i] = run_dump(specs[i]);
        }
      });
    }
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(dumps[i] == reference[i]) << "job " << i;
  }
}

// A job's waiters wake once its result is cached, so a spec resubmitted as
// soon as wait() returns is a hit, whichever worker takes it.
TEST(ServiceTest, ResubmitAfterWaitIsAZeroEventHit) {
  serve::Service::Options opts;
  opts.workers = 2;
  serve::Service service{opts};
  for (std::uint64_t seed = 100; seed < 120; ++seed) {
    SCOPED_TRACE(seed);
    const serve::JobStatus miss =
        service.wait(service.submit("ana", small_spec(seed)));
    ASSERT_EQ(miss.state, serve::JobState::kDone) << miss.error;
    EXPECT_FALSE(miss.cache_hit);
    const serve::JobStatus hit =
        service.wait(service.submit("bob", small_spec(seed)));
    ASSERT_EQ(hit.state, serve::JobState::kDone) << hit.error;
    EXPECT_TRUE(hit.cache_hit);
    EXPECT_EQ(hit.events, 0u);
  }
}

TEST(ServiceTest, IdenticalSpecHitsCacheWithZeroEventsAndSameBytes) {
  serve::Service::Options opts;
  opts.workers = 1;  // serialise: the second job runs after the insert
  serve::Service service{opts};
  const serve::JobId a = service.submit("ana", small_spec(5));
  const serve::JobStatus first = service.wait(a);
  ASSERT_EQ(first.state, serve::JobState::kDone) << first.error;
  EXPECT_FALSE(first.cache_hit);
  EXPECT_GT(first.events, 0u);
  ASSERT_NE(first.result, nullptr);

  const serve::JobId b = service.submit("bob", small_spec(5));
  const serve::JobStatus second = service.wait(b);
  ASSERT_EQ(second.state, serve::JobState::kDone) << second.error;
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.events, 0u);  // nothing was simulated
  ASSERT_NE(second.result, nullptr);
  EXPECT_EQ(*first.result, *second.result);  // byte-identical
  EXPECT_EQ(first.address, second.address);

  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(ServiceTest, DifferentSeedOrThreadsMissesCache) {
  serve::Service::Options opts;
  opts.workers = 1;
  serve::Service service{opts};
  const serve::JobStatus base = service.wait(service.submit("t", small_spec(1)));
  JobSpec other_seed = small_spec(2);
  JobSpec other_threads = small_spec(1);
  other_threads.threads = 2;
  const serve::JobStatus st_seed =
      service.wait(service.submit("t", other_seed));
  const serve::JobStatus st_threads =
      service.wait(service.submit("t", other_threads));
  EXPECT_FALSE(st_seed.cache_hit);
  EXPECT_FALSE(st_threads.cache_hit);
  EXPECT_NE(st_seed.address, base.address);
  EXPECT_NE(st_threads.address, base.address);
  EXPECT_EQ(service.stats().cache_hits, 0u);
}

TEST(ServiceTest, TinyBudgetEvictionRerunsByteIdentically) {
  serve::Service::Options opts;
  opts.workers = 1;
  // Big enough for roughly one dump: inserting the second spec's result
  // evicts the first, so resubmitting the first re-simulates.
  opts.cache_bytes = 40 << 10;
  serve::Service service{opts};
  const serve::JobStatus first = service.wait(service.submit("t", small_spec(1)));
  ASSERT_EQ(first.state, serve::JobState::kDone) << first.error;
  (void)service.wait(service.submit("t", small_spec(2)));
  const serve::JobStatus again = service.wait(service.submit("t", small_spec(1)));
  ASSERT_EQ(again.state, serve::JobState::kDone) << again.error;
  EXPECT_FALSE(again.cache_hit);  // was evicted
  EXPECT_GT(again.events, 0u);    // really re-ran
  ASSERT_NE(again.result, nullptr);
  EXPECT_EQ(*first.result, *again.result);  // determinism held
  EXPECT_GE(service.stats().cache.evictions, 1u);
}

TEST(ServiceTest, ProgressIsMonotonicWhileObservedMidRun) {
  serve::Service::Options opts;
  opts.workers = 1;
  serve::Service service{opts};
  JobSpec spec = small_spec(3);
  spec.rounds = 2000;  // long enough that polling overlaps the run
  const serve::JobId id = service.submit("t", spec);
  std::vector<std::uint64_t> observed;
  for (;;) {
    const serve::JobStatus st = service.status(id);
    observed.push_back(st.events);
    if (st.state == serve::JobState::kDone ||
        st.state == serve::JobState::kFailed) {
      break;
    }
  }
  for (std::size_t i = 1; i < observed.size(); ++i) {
    EXPECT_GE(observed[i], observed[i - 1]) << "at sample " << i;
  }
  const serve::JobStatus final_st = service.status(id);
  ASSERT_EQ(final_st.state, serve::JobState::kDone) << final_st.error;
  EXPECT_GT(final_st.events, 0u);
}

TEST(ServiceTest, TrySubmitReportsBackpressureAsFailedRecord) {
  serve::Service::Options opts;
  opts.workers = 1;
  opts.queue_capacity = 1;
  serve::Service service{opts};
  JobSpec slow = small_spec(1);
  slow.rounds = 5000;  // keep the single worker busy well past the pushes
  const serve::JobId running = service.submit("t", slow);  // worker takes it
  const serve::JobId queued = service.submit("t", small_spec(2));
  serve::JobId refused = 0;
  ASSERT_FALSE(service.try_submit("t", small_spec(3), &refused));
  const serve::JobStatus st = service.status(refused);
  EXPECT_EQ(st.state, serve::JobState::kFailed);
  EXPECT_NE(st.error.find("backpressure"), std::string::npos);
  // wait() resolves immediately for the refused record, and the accepted
  // jobs still complete.
  EXPECT_EQ(service.wait(refused).state, serve::JobState::kFailed);
  EXPECT_EQ(service.wait(running).state, serve::JobState::kDone);
  EXPECT_EQ(service.wait(queued).state, serve::JobState::kDone);
  EXPECT_EQ(service.stats().failed, 1u);
}

TEST(ServiceTest, UnknownIdThrows) {
  serve::Service::Options opts;
  opts.workers = 1;
  serve::Service service{opts};
  EXPECT_THROW((void)service.status(99), std::out_of_range);
  EXPECT_THROW((void)service.wait(99), std::out_of_range);
}

TEST(ServiceTest, InvalidSpecIsRejectedAtSubmit) {
  serve::Service::Options opts;
  opts.workers = 1;
  serve::Service service{opts};
  JobSpec bad;
  bad.program = "fizzbuzz";
  EXPECT_THROW((void)service.submit("t", bad), serve::SpecError);
  EXPECT_EQ(service.stats().submitted, 0u);
}

TEST(ServiceTest, SubmitAfterShutdownThrows) {
  serve::Service::Options opts;
  opts.workers = 1;
  serve::Service service{opts};
  service.shutdown();
  EXPECT_THROW((void)service.submit("t", small_spec(1)), std::runtime_error);
}

TEST(ServiceTest, SpanShapesDistinguishMissFromHit) {
  serve::Service::Options opts;
  opts.workers = 1;  // serialise so the second submit is a guaranteed hit
  serve::Service service{opts};
  const serve::JobId a = service.submit("ana", small_spec(7));
  ASSERT_EQ(service.wait(a).state, serve::JobState::kDone);
  const serve::JobId b = service.submit("bob", small_spec(7));
  ASSERT_EQ(service.wait(b).state, serve::JobState::kDone);
  // saxpy writes its arrays into node memory before the run, as part of
  // the timed setup.
  JobSpec saxpy = small_spec(8);
  saxpy.program = "saxpy";
  saxpy.dimension = 5;
  saxpy.elems = 128;
  const serve::JobId c = service.submit("cy", saxpy);
  ASSERT_EQ(service.wait(c).state, serve::JobState::kDone);
  // Teardown follows the terminal state; joining the worker makes sure
  // every job's teardown is recorded before the spans are read.
  service.shutdown();

  const serve::JobSpan miss = service.span(a);
  EXPECT_EQ(miss.id, a);
  EXPECT_EQ(miss.tenant, "ana");
  EXPECT_EQ(miss.program, "allreduce");
  EXPECT_EQ(miss.state, serve::JobState::kDone);
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_GT(miss.events, 0u);
  // A miss actually simulated, so the execute stage has real wall-clock
  // and the stages sum to no more than the end-to-end total.
  for (const serve::JobId id : {a, c}) {
    const serve::JobSpan sp = service.span(id);
    EXPECT_GT(sp.exec_ms, 0.0) << sp.program;
    EXPECT_LE(sp.queue_ms + sp.cache_ms + sp.setup_ms + sp.exec_ms +
                  sp.serialize_ms,
              sp.total_ms + 1e-6)
        << sp.program;
    EXPECT_GT(sp.teardown_ms, 0.0) << sp.program;
  }

  const serve::JobSpan hit = service.span(b);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.events, 0u);
  EXPECT_EQ(hit.address, miss.address);
  // A hit never touches the runner: the miss-only stages stay zero.
  EXPECT_EQ(hit.setup_ms, 0.0);
  EXPECT_EQ(hit.exec_ms, 0.0);
  EXPECT_EQ(hit.serialize_ms, 0.0);
  EXPECT_EQ(hit.teardown_ms, 0.0);

  const std::vector<serve::JobSpan> all = service.spans();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].id, a);  // id order
  EXPECT_EQ(all[1].id, b);
  EXPECT_EQ(all[2].id, c);
}

TEST(ServiceTest, PerTenantStatsSplitCountersAndLatencies) {
  serve::Service::Options opts;
  opts.workers = 1;
  serve::Service service{opts};
  (void)service.wait(service.submit("ana", small_spec(1)));  // miss
  (void)service.wait(service.submit("ana", small_spec(1)));  // hit
  (void)service.wait(service.submit("bob", small_spec(2)));  // miss

  const serve::ServiceStats st = service.stats();
  ASSERT_EQ(st.tenants.size(), 2u);
  const serve::TenantStats& ana = st.tenants.at("ana");
  EXPECT_EQ(ana.submitted, 2u);
  EXPECT_EQ(ana.completed, 2u);
  EXPECT_EQ(ana.failed, 0u);
  EXPECT_EQ(ana.cache_hits, 1u);
  EXPECT_EQ(ana.cache_misses, 1u);
  EXPECT_EQ(ana.latency_us.count(), 2u);
  EXPECT_EQ(ana.queue_wait_us.count(), 2u);
  const serve::TenantStats& bob = st.tenants.at("bob");
  EXPECT_EQ(bob.submitted, 1u);
  EXPECT_EQ(bob.cache_hits, 0u);
  EXPECT_EQ(bob.cache_misses, 1u);
  // The tenant accounts partition the global counters exactly.
  EXPECT_EQ(ana.submitted + bob.submitted, st.submitted);
  EXPECT_EQ(ana.completed + bob.completed, st.completed);
  EXPECT_EQ(ana.cache_hits + bob.cache_hits, st.cache_hits);
}

TEST(ServiceTest, StatsSnapshotStaysConsistentUnderConcurrency) {
  // stats() promises a single consistent snapshot: even while submits and
  // completions race, `completed + failed <= submitted` must hold in every
  // returned value (and the per-tenant accounts must respect the same
  // bound). Run under TSan this also shakes out torn reads.
  serve::Service::Options opts;
  opts.workers = 2;
  serve::Service service{opts};
  std::atomic<bool> done{false};
  std::vector<serve::JobId> ids;
  std::thread submitter([&] {
    for (std::uint64_t i = 0; i < 48; ++i) {
      // Seeds cycle through a small pool so the storm mixes hits + misses.
      ids.push_back(service.submit(i % 2 == 0 ? "ana" : "bob",
                                   small_spec(i % 5)));
    }
    done.store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire)) {
    const serve::ServiceStats st = service.stats();
    EXPECT_LE(st.completed + st.failed, st.submitted);
    EXPECT_LE(st.cache_hits, st.completed);
    std::uint64_t tenant_submitted = 0;
    std::uint64_t tenant_terminal = 0;
    for (const auto& [name, t] : st.tenants) {
      EXPECT_LE(t.completed + t.failed, t.submitted) << "tenant " << name;
      tenant_submitted += t.submitted;
      tenant_terminal += t.completed + t.failed;
    }
    EXPECT_EQ(tenant_submitted, st.submitted);
    EXPECT_LE(tenant_terminal, st.submitted);
  }
  submitter.join();
  for (const serve::JobId id : ids) {
    EXPECT_EQ(service.wait(id).state, serve::JobState::kDone);
  }
  const serve::ServiceStats final_st = service.stats();
  EXPECT_EQ(final_st.submitted, 48u);
  EXPECT_EQ(final_st.completed + final_st.failed, final_st.submitted);
}

// ------------------------------------------------------------ tmon

TEST(TmonTest, MetricsJsonQuarantinesWallClockInMeta) {
  serve::Service::Options opts;
  opts.workers = 1;
  serve::Service service{opts};
  (void)service.wait(service.submit("ana", small_spec(1)));  // miss
  (void)service.wait(service.submit("ana", small_spec(1)));  // hit

  namespace json = perf::json;
  const json::Value doc = serve::metrics_to_json(service.stats());
  EXPECT_EQ(doc.find("kind")->as_string(), "tmon-metrics");
  EXPECT_EQ(doc.find("submitted")->as_int(), 2);
  EXPECT_EQ(doc.find("cache_hits")->as_int(), 1);
  const json::Value* ana = doc.find("tenants")->find("ana");
  ASSERT_NE(ana, nullptr);
  EXPECT_EQ(ana->find("completed")->as_int(), 2);
  // Wall-clock lives only in meta: the body keys carry no timing...
  ASSERT_NE(doc.find("meta"), nullptr);
  EXPECT_EQ(doc.find("uptime_ms"), nullptr);
  EXPECT_NE(doc.find("meta")->find("uptime_ms"), nullptr);
  EXPECT_NE(doc.find("meta")->find("tenants")->find("ana")->find("latency_us"),
            nullptr);
  // ...and stripping meta leaves a purely deterministic document.
  const json::Value body = serve::strip_meta(doc);
  EXPECT_EQ(body.find("meta"), nullptr);
  EXPECT_NE(body.find("tenants")->find("ana"), nullptr);
}

TEST(TmonTest, SpanJsonKeepsTimingsOutOfTheBody) {
  serve::JobSpan sp;
  sp.id = 3;
  sp.tenant = "ana";
  sp.program = "ring";
  sp.state = serve::JobState::kDone;
  sp.events = 42;
  sp.exec_ms = 1.5;
  sp.total_ms = 2.0;
  sp.teardown_ms = 0.25;
  namespace json = perf::json;
  const json::Value v = serve::span_to_json(sp);
  EXPECT_EQ(v.find("id")->as_int(), 3);
  EXPECT_EQ(v.find("events")->as_int(), 42);
  EXPECT_EQ(v.find("error"), nullptr);  // empty error key is omitted
  EXPECT_EQ(v.find("exec_ms"), nullptr);
  EXPECT_EQ(v.find("meta")->find("exec_ms")->as_double(), 1.5);
  EXPECT_EQ(v.find("teardown_ms"), nullptr);
  EXPECT_EQ(v.find("meta")->find("teardown_ms")->as_double(), 0.25);
  const json::Value stripped = serve::strip_meta(v);
  EXPECT_EQ(stripped.find("meta"), nullptr);
  EXPECT_EQ(stripped.find("id")->as_int(), 3);
}

TEST(TmonTest, StripMetaRemovesEveryNestingLevel) {
  namespace json = perf::json;
  json::Value doc = json::Value::object();
  doc["keep"] = json::Value::integer(1);
  doc["meta"] = json::Value::object();
  doc["meta"]["clock"] = json::Value::number(1.0);
  json::Value inner = json::Value::object();
  inner["meta"] = json::Value::string("gone");
  inner["also_keep"] = json::Value::boolean(true);
  json::Value arr = json::Value::array();
  arr.append(std::move(inner));
  doc["list"] = std::move(arr);

  const json::Value out = serve::strip_meta(doc);
  EXPECT_EQ(out.find("meta"), nullptr);
  EXPECT_EQ(out.find("keep")->as_int(), 1);
  const json::Value& elem = out.find("list")->as_array()[0];
  EXPECT_EQ(elem.find("meta"), nullptr);
  EXPECT_TRUE(elem.find("also_keep")->as_bool());
}

TEST(TmonTest, ChromeTraceEmitsOneSliceRowPerStage) {
  serve::JobSpan sp;
  sp.id = 0;
  sp.tenant = "ana";
  sp.program = "saxpy";
  sp.queue_ms = 0.5;
  sp.cache_ms = 0.0;  // zero-length stages are dropped, not emitted
  sp.exec_ms = 2.0;
  sp.teardown_ms = 0.25;
  namespace json = perf::json;
  const json::Value doc = serve::spans_chrome_trace({sp});
  const auto& events = doc.find("traceEvents")->as_array();
  // process_name + thread_name metadata plus the three non-zero stages.
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[2].find("name")->as_string(), "queue");
  EXPECT_EQ(events[3].find("name")->as_string(), "exec");
  // exec starts where queue ended: ts is cumulative within the job row.
  EXPECT_DOUBLE_EQ(events[3].find("ts")->as_double(), 500.0);
  EXPECT_DOUBLE_EQ(events[3].find("dur")->as_double(), 2000.0);
  EXPECT_EQ(events[4].find("name")->as_string(), "teardown");
  EXPECT_DOUBLE_EQ(events[4].find("ts")->as_double(), 2500.0);
}

TEST(ServiceTest, CacheDisabledNeverHits) {
  serve::Service::Options opts;
  opts.workers = 1;
  opts.cache_bytes = 0;
  serve::Service service{opts};
  (void)service.wait(service.submit("t", small_spec(1)));
  const serve::JobStatus second =
      service.wait(service.submit("t", small_spec(1)));
  EXPECT_FALSE(second.cache_hit);
  EXPECT_GT(second.events, 0u);
  // A zero budget is the off switch: every lookup misses and every insert
  // is rejected as oversize.
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache.misses, 2u);
  EXPECT_EQ(stats.cache.oversize_rejects, 2u);
  EXPECT_EQ(stats.cache.entries, 0u);
}

}  // namespace
