#!/usr/bin/env sh
# CI gate for the FPS T Series simulator.
#
# Stages (run `./ci.sh --list-stages` for the one-line table):
#   1. warnings-as-errors build + the tier-1 ctest suite (`ctest -L tier1`)
#      under the selected sanitizer flavour
#   2. tcheck static verification: every shipped example must be clean
#   3. tcheck over the corpus of deliberately-broken programs: every one
#      must be flagged (with --werror, so warning-class defects count)
#   4. tperf pipeline: the traced 2-cube SAXPY example writes a dump,
#      ttrace must load it cleanly (no balance violation), its vpu-active
#      MFLOPS must match bench_fig1_node's 128-element SAXPY rate within
#      1%, and bench_overlap's no-overlap ablation dump must be flagged
#      as a balance VIOLATION. The dumps of this example and of stage 5's
#      all-to-all, serial and at --threads 1-4, are pinned to committed
#      digests by the tier-1 digest_ledger test (tests/digest_ledger.txt)
#   5. tscope pipeline: two tscope analyses of one 16-node all-to-all dump
#      must be byte-identical, and the routing invariants must hold (max
#      hops <= log2 n, observed per-edge crossings exactly equal to the
#      static e-cube congestion prediction) on the serial dump and on a
#      4-thread sharded one
#   6. tcheck --predict cross-validation: the static cost model's
#      prediction for the shipped vform SAXPY must match the tisa_traced
#      measurement (instruction count exact, elapsed within the documented
#      2% tolerance — today the match is bit-exact), and the static
#      per-edge volume of the all-to-all .comm twin must match the traced
#      16-node run exactly: every cube edge crossed 16 times, 512 hops
#   7. engine perf trajectory: bench_simcore --json records DES event
#      throughput; events/sec is gated run over run with 10% slack. The
#      release leg also echoes the occam message path's ns per event,
#      allocations per message and state per node, and a served job's
#      setup and teardown per node (a saxpy job's too), which are not gated
#   8. serve storm: bench_serve drives an open-loop mixed request storm
#      through the in-process job service — completion must be >= 99%,
#      cached results byte-identical with zero simulated events, the
#      mixed-storm cache hit rate >= 30%, and the duplicate-heavy storm >=
#      5x the jobs/sec of its cache-disabled twin. Run over run, mixed-storm
#      jobs/sec is gated with 30% slack and the p99 submit->complete
#      latency (the SLO gate) may grow to at most 4x. The stage also runs
#      the tmon selfdump harness twice and requires the span + metrics
#      documents to be byte-identical once `meta` blocks (wall-clock
#      timings) are stripped — the observability determinism contract
#   9. vpu batch arm: the randomized cross-validation fuzzer (every
#      elementwise form, both precisions, special operands — batch arm vs
#      softfloat oracle, fixed seed) must pass, and the
#      bench_kernels_scaling --batch-sweep must be bit-identical across
#      modes, match the committed BENCH_kernels.json rows' result_hash,
#      events and sim_us when it has the committed rounds and elems, and
#      keep the batch arm's wall-clock speedup above conservative
#      flavour-dependent floors; elem_ops_per_sec is gated run over run
#      with 30% slack (BENCH_kernels.json records the >=10x 10-cube
#      trajectory measured on a quiet host — the CI floor is deliberately
#      lower because wall-clock ratios on shared runners are noisy)
#  10. parallel engine scaling trajectory: bench_parallel_scaling sweeps
#      the cube sizes for the flavour (release 6,10; sanitized 4,6;
#      FPST_FULL_SWEEP=1 extends release to the paper's full 12-cube) and
#      gates the distance-aware scheduler's events/sec-per-core run over
#      run with 30% slack. The stage then runs the bench's --verify mode as
#      a hard determinism gate: cross-thread perf dumps at 1/2/4 workers
#      must be byte-identical and the sharded engine must reach the serial
#      engine's simulated time exactly
#  11. the repo benchmark's own smoke tests (python3
#      perfbench/test_perfbench.py, release leg only): every workload
#      passes its output checks untraced and traced — the traced replay
#      parses each job's streamed dump (perf::to_json) and prints it again,
#      and must get back the bytes serve streamed — injected corruption
#      lands in `failed`, and every BENCHMARK.json metric prints. perfbench builds its own
#      RelWithDebInfo binary from src/, so this also catches a src/ change
#      that breaks the benchmark build. Sanitizer legs skip it loudly: the
#      benchmark build carries no sanitizer flags
#  12. clang-tidy over all first-party translation units (skipped when the
#      toolchain image has no clang-tidy); src/check findings are blocking
#
# The run-over-run gate (stages 7-10, function gate_record): each gated
# bench writes a BENCH record whose meta.build tags its flavour (release or
# sanitized), and the fresh metric is judged against the *lowest* value
# among the same-flavour records — the previous run's
# <build-dir>/BENCH_*.prev.json and the committed BENCH_*.json at the repo
# root. Records of the other flavour are ignored, so a sanitized run is
# never judged against a release baseline. Gating against the lowest
# record rides out upward noise spikes (a lucky steal-free run); a real
# regression still undercuts every record. The fresh record then becomes
# the next *.prev.json.
#
# A per-stage wall-clock summary table is printed on exit (pass or fail).
#
# usage: ./ci.sh [options] [build-dir]        (default build dir: build-ci)
#   --stage N[,M...]  run only the listed stages (default: all). Stages
#                     after 1 assume the build dir is already built.
#   --list-stages     print the stage table and exit
#   --sanitize MODE   sanitizer flavour for the stage-1 build: `none`,
#                     `address,undefined` (default) or `thread`
#   --threads LIST    comma list of worker-thread counts for the
#                     stage-10 scaling sweep (default 1,2,4)
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
build_dir=
stages=
sanitize="address,undefined"
threads_list="1,2,4"

list_stages() {
  cat <<'EOF'
ci.sh stages:
  1  build (-Werror, sanitizer flavour) + tier-1 ctest suite
  2  tcheck: shipped examples verify clean
  3  tcheck: corpus of broken programs all flagged
  4  tperf: traced_saxpy -> ttrace report -> MFLOPS cross-check,
     E9 ablation flagged
  5  tscope: analysis determinism, e-cube routing invariants (serial
     and sharded)
  6  tcheck --predict: static cost/volume prediction vs measurement
  7  bench_simcore throughput gate
  8  bench_serve storm: completion/hit-rate/cache-speedup/jobs-per-sec
     gates + p99 SLO gate + tmon span/metrics determinism gate
  9  vpu batch arm: cross-validation fuzz + batch-sweep equivalence,
     BENCH_kernels.json row pin and speed gates
 10  bench_parallel_scaling: events/sec-per-core trajectory gate +
     cross-thread determinism verify (FPST_FULL_SWEEP=1 -> 12-cube)
 11  perfbench smoke tests: benchmark checks + tree-vs-stream dump bytes
     (release leg; skipped loudly on sanitizer legs)
 12  clang-tidy (src/check findings blocking)
EOF
}

while [ $# -gt 0 ]; do
  case $1 in
    --stage)
      [ $# -ge 2 ] || { echo "ci: --stage needs an argument" >&2; exit 2; }
      stages=$2; shift 2 ;;
    --stage=*) stages=${1#--stage=}; shift ;;
    --list-stages) list_stages; exit 0 ;;
    --sanitize)
      [ $# -ge 2 ] || { echo "ci: --sanitize needs an argument" >&2; exit 2; }
      sanitize=$2; shift 2 ;;
    --sanitize=*) sanitize=${1#--sanitize=}; shift ;;
    --threads)
      [ $# -ge 2 ] || { echo "ci: --threads needs an argument" >&2; exit 2; }
      threads_list=$2; shift 2 ;;
    --threads=*) threads_list=${1#--threads=}; shift ;;
    -h|--help)
      sed -n '/^# usage:/,/^set -eu/p' "$0" | sed '$d' | sed 's/^# \{0,1\}//'
      exit 0 ;;
    -*) echo "ci: unknown option $1 (try --list-stages)" >&2; exit 2 ;;
    *) build_dir=$1; shift ;;
  esac
done
build_dir=${build_dir:-"$repo_root/build-ci"}
[ "$sanitize" = "none" ] && sanitize=""

# want_stage N: true when stage N was selected (all stages by default).
want_stage() {
  [ -n "$stages" ] || return 0
  _found=1
  _old_ifs=$IFS; IFS=,
  for _s in $stages; do
    [ "$_s" = "$1" ] && _found=0
  done
  IFS=$_old_ifs
  return $_found
}

stages_ran=""
stage_times=""
stage_cur=""
stage_start=0

# Close out the wall-clock timer for the stage currently in flight (if any)
# and append "<stage>:<seconds>" to the summary accumulator. POSIX sh has no
# arrays, so the table lives in one space-separated string.
end_stage_timer() {
  [ -n "$stage_cur" ] || return 0
  stage_times="$stage_times${stage_times:+ }$stage_cur:$(($(date +%s) - stage_start))"
  stage_cur=""
}

# Printed from the EXIT trap so the table shows up on failures too — the
# stage that blew the gate is the one whose duration you want to see.
print_stage_times() {
  end_stage_timer
  [ -n "$stage_times" ] || return 0
  echo "ci: per-stage wall clock:"
  total=0
  for _entry in $stage_times; do
    printf '  stage %-2s %5ss\n' "${_entry%%:*}" "${_entry#*:}"
    total=$((total + ${_entry#*:}))
  done
  printf '  total    %5ss\n' "$total"
}
trap print_stage_times EXIT

begin_stage() {
  end_stage_timer
  stage_cur=$1
  stage_start=$(date +%s)
  stages_ran="$stages_ran${stages_ran:+,}$1"
  echo "== [$1/12] $2 =="
}

# gate_record <bench> <fresh> <committed> <metric> <ge|le> <factor> ...:
# the run-over-run gate whose rule the header states. For each (metric,
# op, factor) triple the fresh value must be >= (ge) or <= (le) factor x
# the lowest same-flavour record among <fresh minus .json>.prev.json and
# <committed>. A same-flavour record without the metric fails the stage.
gate_record() {
  _bin=$1; _fresh=$2; _committed=$3; shift 3
  _prev_rec=${_fresh%.json}.prev.json
  _flavour=$("$_bin" --metric build "$_fresh")
  while [ $# -ge 3 ]; do
    _metric=$1; _op=$2; _factor=$3; shift 3
    _value=$("$_bin" --metric "$_metric" "$_fresh")
    echo "ci: $(basename "$_bin") $_metric=$_value build=$_flavour"
    _low=""
    for _record in "$_prev_rec" "$_committed"; do
      [ -f "$_record" ] || continue
      _rec_flavour=$("$_bin" --metric build "$_record")
      [ "$_rec_flavour" = "$_flavour" ] || continue
      _rec=$("$_bin" --metric "$_metric" "$_record")
      echo "ci: recorded $_record $_metric=$_rec"
      if [ -z "$_low" ] ||
         awk -v a="$_rec" -v b="$_low" 'BEGIN { exit !(a < b) }'; then
        _low=$_rec
      fi
    done
    if [ -z "$_low" ]; then
      echo "ci: no $_flavour record of $_metric yet; nothing to gate against"
      continue
    fi
    awk -v f="$_value" -v b="$_low" -v k="$_factor" -v op="$_op" 'BEGIN {
      exit !(op == "ge" ? (f >= k * b) : (f <= k * b))
    }' || {
      echo "ci: $(basename "$_bin") $_metric=$_value is not $_op" \
           "$_factor x the lowest $_flavour record ($_low)" >&2
      exit 1
    }
  done
  cp "$_fresh" "$_prev_rec"
}

if want_stage 1; then
  begin_stage 1 "build (-Werror, FPST_SANITIZE='$sanitize') + tier-1 tests"
  cmake -B "$build_dir" -S "$repo_root" \
        -DFPST_WERROR=ON -DFPST_SANITIZE="$sanitize"
  cmake --build "$build_dir" -j
  (cd "$build_dir" && ctest -L tier1 --output-on-failure -j)
fi

tcheck="$build_dir/tools/tcheck"

if want_stage 2; then
  begin_stage 2 "tcheck: shipped examples must verify clean"
  "$tcheck" "$repo_root"/examples/tisa/*.tisa "$repo_root"/examples/comm/*.comm
fi

if want_stage 3; then
  begin_stage 3 "tcheck: corpus of broken programs must all be flagged"
  bad=0
  found=0
  for f in "$repo_root"/tests/corpus/*; do
    # An unmatched glob passes through literally; a vanished corpus must
    # fail the stage, not silently verify zero programs. Subdirectories
    # (the reference dumps under dumps/) are not programs.
    [ -f "$f" ] || continue
    found=$((found + 1))
    if "$tcheck" --werror -q "$f"; then
      echo "ci: NOT FLAGGED (corpus program slipped through): $f" >&2
      bad=1
    fi
  done
  if [ "$found" -eq 0 ]; then
    echo "ci: corpus glob matched no files under tests/corpus/ —" \
         "the stage would vacuously pass" >&2
    exit 1
  fi
  [ "$bad" -eq 0 ] || exit 1
  echo "ci: $found corpus programs all flagged"
fi

if want_stage 4; then
  begin_stage 4 "tperf: trace -> ttrace report -> cross-check"
  ttrace="$build_dir/tools/ttrace"
  dump="$build_dir/ci_traced_saxpy.json"
  "$build_dir/examples/traced_saxpy" "$dump"
  # A balanced workload: ttrace must accept it even with violations fatal.
  "$ttrace" --fail-on-violation "$dump"
  # Cross-check the two independent MFLOPS measurements: ttrace's vpu-active
  # rate (flops / vpu busy from the counters) vs bench_fig1_node's directly
  # timed 128-element SAXPY row. They must agree within 1%.
  active=$("$ttrace" --metric active_mflops "$dump")
  fig1=$("$build_dir/bench/bench_fig1_node" |
         awk '$1 == "128" {print $NF; exit}')
  echo "ci: ttrace active_mflops=$active bench_fig1_node(128)=$fig1"
  awk -v a="$active" -v b="$fig1" 'BEGIN {
    d = a - b; if (d < 0) d = -d;
    if (b <= 0 || d / b > 0.01) { exit 1 }
  }' || {
    echo "ci: MFLOPS mismatch: ttrace $active vs bench_fig1_node $fig1" >&2
    exit 1
  }
  # The no-overlap ablation (2 flops per gathered element) must be flagged.
  "$build_dir/bench/bench_overlap" --json "$build_dir/ci_e9.json" > /dev/null
  if "$ttrace" --fail-on-violation "$build_dir/ci_e9.json" > /dev/null; then
    echo "ci: ttrace missed the gather-balance violation in the E9 dump" >&2
    exit 1
  fi
  "$ttrace" "$build_dir/ci_e9.json" | grep -q VIOLATION || {
    echo "ci: ttrace report does not mark the E9 ablation as VIOLATION" >&2
    exit 1
  }
fi

if want_stage 5; then
  begin_stage 5 "tscope: 16-node all-to-all message tracing"
  tscope="$build_dir/tools/tscope"
  a2a="$build_dir/ci_alltoall.json"
  a2a_t4="$build_dir/ci_alltoall.t4.json"
  # The dumps themselves are pinned by the digest ledger; the stitched
  # analyses of one dump must match byte for byte.
  "$build_dir/examples/alltoall_traced" "$a2a" 4 > /dev/null
  "$tscope" --json "$a2a" > "$build_dir/ci_alltoall_a.msg.json"
  "$tscope" --json "$a2a" > "$build_dir/ci_alltoall_b.msg.json"
  cmp -s "$build_dir/ci_alltoall_a.msg.json" \
         "$build_dir/ci_alltoall_b.msg.json" || {
    echo "ci: tscope analyses of one dump differ" >&2
    exit 1
  }
  # Routing invariants, hard error on any deviation: every flight within the
  # log2 n hop bound on minimal routes, and the observed per-edge crossings
  # exactly equal to net/hypercube's static e-cube congestion prediction.
  "$tscope" --check-ecube "$a2a"
  echo "ci: tscope p50_us=$("$tscope" --metric p50_us "$a2a")" \
       "p99_us=$("$tscope" --metric p99_us "$a2a")" \
       "critical_path_frac=$("$tscope" --metric critical_path_frac "$a2a")"
  # The sharded engine's dump must satisfy the routing invariants too.
  "$build_dir/examples/alltoall_traced" --threads 4 "$a2a_t4" 4 > /dev/null
  "$tscope" --check-ecube "$a2a_t4"
fi

if want_stage 6; then
  begin_stage 6 "tcheck --predict: static prediction vs measured run"
  # Single node: assemble-and-run the shipped vform SAXPY under tperf, then
  # require the static prediction to agree — instruction count exactly,
  # elapsed time within the documented 2% tolerance (the match is bit-exact
  # today; the tolerance only covers deliberate future timing-model drift).
  saxpy_dump="$build_dir/ci_predict_saxpy.json"
  "$build_dir/examples/tisa_traced" \
      "$repo_root/examples/tisa/vform_saxpy.tisa" "$saxpy_dump" > /dev/null
  "$tcheck" --predict "$repo_root/examples/tisa/vform_saxpy.tisa" \
      --against "$saxpy_dump" --tolerance 0.02
  # Network: the all-to-all .comm twin's static per-edge volume must match
  # the traced 16-node run *exactly* — 240 messages, 512 hops, every one of
  # the 32 cube edges crossed 16 times. Any deviation is a hard failure.
  a2a_dump="$build_dir/ci_predict_alltoall.json"
  "$build_dir/examples/alltoall_traced" "$a2a_dump" 4 > /dev/null
  "$tcheck" --predict "$repo_root/examples/comm/alltoall.comm" \
      --against "$a2a_dump"
fi

if want_stage 7; then
  begin_stage 7 "bench_simcore: DES event-throughput trajectory"
  simcore="$build_dir/bench/bench_simcore"
  simcore_fresh="$build_dir/BENCH_simcore.json"
  "$simcore" --json "$simcore_fresh" > /dev/null
  gate_record "$simcore" "$simcore_fresh" "$repo_root/BENCH_simcore.json" \
              events_per_sec ge 0.9
  # The occam message path's host cost, perf off and (6- and 10-cube) on,
  # and a served job's fixed cost per node, by machine size, with and
  # without saxpy's staged arrays: recorded and echoed on the release leg,
  # not gated.
  if [ -z "$sanitize" ]; then
    for key in msg_ns_per_event_cube6 perf_ns_per_event_cube6 \
               msg_ns_per_event_cube7 msg_ns_per_event_cube10 \
               perf_ns_per_event_cube10 \
               msg_ns_per_event_cube12 allocs_per_message \
               state_bytes_per_node_cube7 state_bytes_per_node_cube10 \
               state_bytes_per_node_cube12 setup_us_per_node_cube7 \
               setup_us_per_node_cube10 setup_us_per_node_cube12 \
               teardown_us_per_node_cube7 teardown_us_per_node_cube10 \
               teardown_us_per_node_cube12 saxpy_setup_us_per_node_cube7 \
               saxpy_setup_us_per_node_cube10 \
               saxpy_teardown_us_per_node_cube7 \
               saxpy_teardown_us_per_node_cube10; do
      echo "ci: bench_simcore $key=$("$simcore" --metric "$key" \
            "$simcore_fresh") (not gated)"
    done
  fi
fi

if want_stage 8; then
  begin_stage 8 "bench_serve: job-service storm gates"
  bserve="$build_dir/bench/bench_serve"
  serve_fresh="$build_dir/BENCH_serve.json"
  "$bserve" --json "$serve_fresh" > /dev/null
  completion=$("$bserve" --metric completion_frac "$serve_fresh")
  hit_rate=$("$bserve" --metric hit_rate "$serve_fresh")
  speedup=$("$bserve" --metric cache_speedup "$serve_fresh")
  identical=$("$bserve" --metric byte_identical "$serve_fresh")
  p50=$("$bserve" --metric p50_ms "$serve_fresh")
  p90=$("$bserve" --metric p90_ms "$serve_fresh")
  echo "ci: bench_serve completion=$completion hit_rate=$hit_rate" \
       "cache_speedup=$speedup byte_identical=$identical" \
       "p50_ms=$p50 p90_ms=$p90"
  # Correctness gates — flavour-independent.
  [ "$identical" = "true" ] || {
    echo "ci: cached results were not byte-identical to simulation" >&2
    exit 1
  }
  awk -v c="$completion" 'BEGIN { exit !(c >= 0.99) }' || {
    echo "ci: storm completion $completion below 0.99" >&2
    exit 1
  }
  awk -v h="$hit_rate" 'BEGIN { exit !(h >= 0.30) }' || {
    echo "ci: mixed-storm cache hit rate $hit_rate below 0.30" >&2
    exit 1
  }
  # A cache hit skips simulation entirely, so the duplicate-heavy storm
  # must beat its cache-disabled twin by >= 5x on every flavour.
  awk -v s="$speedup" 'BEGIN { exit !(s >= 5.0) }' || {
    echo "ci: cache speedup ${speedup}x below the 5x gate" >&2
    exit 1
  }
  # Run-over-run: jobs/sec with 30% slack (service-level throughput rides
  # on OS thread scheduling, not just the event loop), and the mixed-storm
  # p99 submit->complete latency as the SLO gate with 4x headroom — tail
  # latency rides on scheduler jitter far more than throughput does, and a
  # genuine SLO regression (lost cache, serialized workers) shows up as
  # 10x+, not 2x.
  gate_record "$bserve" "$serve_fresh" "$repo_root/BENCH_serve.json" \
              jobs_per_sec ge 0.7 p99_ms le 4.0
  # Observability determinism: the tmon selfdump harness submits a fixed
  # job sequence through an in-process service; everything outside the
  # `meta` blocks is a pure function of that sequence. Two runs, strip
  # meta, byte-compare — guards the body/meta split in src/serve/tmon.cpp.
  tmon="$build_dir/tools/tmon"
  for run in a b; do
    "$tmon" selfdump --spans "$build_dir/ci_tmon_spans.$run.json" \
            --metrics "$build_dir/ci_tmon_metrics.$run.json" > /dev/null
  done
  for kind in spans metrics; do
    for run in a b; do
      "$tmon" --strip-meta "$build_dir/ci_tmon_$kind.$run.json" \
              > "$build_dir/ci_tmon_$kind.$run.body.json"
    done
    cmp -s "$build_dir/ci_tmon_$kind.a.body.json" \
           "$build_dir/ci_tmon_$kind.b.body.json" || {
      echo "ci: tmon $kind dumps differ across identical runs" \
           "(meta stripped)" >&2
      exit 1
    }
  done
  echo "ci: tmon span/metrics dumps byte-identical across runs (meta stripped)"
fi

if want_stage 9; then
  begin_stage 9 "vpu batch arm: cross-validation fuzz + sweep gates"
  # Randomized cross-validation of the host-FP batch arm against the
  # softfloat oracle: all elementwise forms, f32 and f64, operand classes
  # weighted toward specials (NaN/inf/denormal/flush boundaries). The seed
  # is fixed in the test, so a failure is reproducible; FPST_FUZZ_CASES
  # widens the sweep locally (default here: 10k cases).
  FPST_FUZZ_CASES="${FPST_FUZZ_CASES:-10000}" \
    "$build_dir/tests/vpu_batch_test" --gtest_filter='VpuBatchFuzz.*'
  bkern="$build_dir/bench/bench_kernels_scaling"
  kern_fresh="$build_dir/BENCH_kernels.json"
  # Sanitized flavours run a smaller sweep — the gate there is equivalence,
  # not speed (sanitizer softfloat runs are ~10x slower and would dominate
  # CI wall time at the 10-cube point).
  if [ -n "$sanitize" ]; then
    "$bkern" --batch-sweep --dims 4,6 --rounds 4 --repeats 2 \
             --json "$kern_fresh" > /dev/null
  else
    "$bkern" --batch-sweep --dims 6,10 --rounds 8 --repeats 5 \
             --json "$kern_fresh" > /dev/null
  fi
  kern_identical=$("$bkern" --metric bit_identical "$kern_fresh")
  kern_speedup=$("$bkern" --metric batch_speedup "$kern_fresh")
  echo "ci: batch sweep bit_identical=$kern_identical" \
       "speedup=${kern_speedup}x"
  # Equivalence is the hard gate on every flavour: the batch arm must be
  # bit-for-bit the machine (results, simulated time, event counts).
  [ "$kern_identical" = "true" ] || {
    echo "ci: batch arm diverged from the softfloat oracle in the sweep" >&2
    exit 1
  }
  # Pin the deterministic fields of every (dim, mode) row to the committed
  # record: results, event counts and simulated time. The equivalence gate
  # above passes a change that moves both arms the same way; this does
  # not. Only a sweep of the committed shape (rounds, elems) compares, so
  # the sanitized leg's smaller sweep skips the pin.
  python3 - "$kern_fresh" "$repo_root/BENCH_kernels.json" <<'PIN'
import json
import sys

fresh, pinned = (json.load(open(path)) for path in sys.argv[1:3])
shape = ("rounds", "elems")
if any(fresh["meta"][k] != pinned["meta"][k] for k in shape):
    print("ci: SKIPPED the BENCH_kernels.json pin: sweep rounds/elems "
          f"{[fresh['meta'][k] for k in shape]} differ from the committed "
          f"{[pinned['meta'][k] for k in shape]}", file=sys.stderr)
    sys.exit(0)
committed = {(r["dim"], r["mode"]): r for r in pinned["results"]["rows"]}
bad = 0
for row in fresh["results"]["rows"]:
    key = (row["dim"], row["mode"])
    ref = committed.get(key)
    if ref is None:
        print(f"ci: no committed BENCH_kernels.json row for {key}",
              file=sys.stderr)
        bad += 1
        continue
    for field in ("result_hash", "events", "sim_us"):
        if row[field] != ref[field]:
            print(f"ci: batch sweep {key} {field}={row[field]}, committed "
                  f"{ref[field]}", file=sys.stderr)
            bad += 1
if bad:
    sys.exit(1)
print(f"ci: batch sweep pinned: {len(fresh['results']['rows'])} rows match "
      "BENCH_kernels.json (result_hash, events, sim_us)")
PIN
  # Speed floors are deliberately conservative: the committed release
  # baseline records >=10x at the 10-cube point, but shared runners see
  # wall-clock noise that a ratio gate at 10 would trip on. A real
  # regression (vectorisation lost, clean pass disabled) lands near 1x and
  # still fails these.
  if [ -z "$sanitize" ]; then
    awk -v s="$kern_speedup" 'BEGIN { exit !(s >= 5.0) }' || {
      echo "ci: batch-arm speedup ${kern_speedup}x below the 5x release floor" >&2
      exit 1
    }
  else
    awk -v s="$kern_speedup" 'BEGIN { exit !(s >= 1.5) }' || {
      echo "ci: batch-arm speedup ${kern_speedup}x below the 1.5x sanitized floor" >&2
      exit 1
    }
  fi
  # Throughput trajectory, run over run with the serve storm's 30% slack
  # (wall-clock benches on shared hosts).
  gate_record "$bkern" "$kern_fresh" "$repo_root/BENCH_kernels.json" \
              elem_ops_per_sec ge 0.7
fi

if want_stage 10; then
  begin_stage 10 "bench_parallel_scaling: scaling trajectory + determinism"
  bpar="$build_dir/bench/bench_parallel_scaling"
  par_fresh="$build_dir/BENCH_parallel.json"
  # Flavour-scaled sweep: sanitized engines run ~10x slower, so they sweep
  # smaller cubes (the gate there is the trajectory of the *sanitized*
  # flavour, never compared against release records). FPST_FULL_SWEEP=1 —
  # set by the nightly job — extends the release sweep to the paper's full
  # 12-cube and verifies determinism at that size.
  if [ -n "$sanitize" ]; then
    par_dims="4,6"; par_verify=6
  elif [ -n "${FPST_FULL_SWEEP:-}" ]; then
    par_dims="6,10,12"; par_verify=12
  else
    par_dims="6,10"; par_verify=10
  fi
  "$bpar" --dims "$par_dims" --threads "$threads_list" --json "$par_fresh"
  # Scaling trajectory: the distance-aware scheduler's events/sec-per-core
  # at the gate point (largest swept cube <= 10-cube, max worker count),
  # run over run with the serve storm's 30% slack, because multi-thread
  # wall clock on shared runners is the noisiest metric here.
  gate_record "$bpar" "$par_fresh" "$repo_root/BENCH_parallel.json" \
              events_per_sec_per_core ge 0.7
  # Hard determinism gate, no tolerance: the bench's --verify mode re-runs
  # the sweep workload at 1/2/4 worker threads and byte-compares the perf
  # dumps, and requires the sharded engine (any thread count) to reach the
  # serial engine's simulated time exactly. A non-zero exit fails the stage.
  "$bpar" --verify "$par_verify" \
          --verify-out "$build_dir/ci_parallel_verify.json"
fi

if want_stage 11; then
  begin_stage 11 "perfbench: the benchmark's own smoke tests"
  if [ -n "$sanitize" ]; then
    echo "ci: SKIPPED stage 11 (perfbench smoke tests) on the" \
         "'$sanitize' leg — the benchmark builds its own unsanitized" \
         "binary, and the release leg runs it" >&2
  else
    python3 "$repo_root/perfbench/test_perfbench.py"
  fi
fi

if want_stage 12; then
  begin_stage 12 "clang-tidy"
  "$repo_root"/tools/run-tidy.sh "$build_dir"
fi

if [ -z "$stages_ran" ]; then
  echo "ci: no stages selected (have: --stage $stages)" >&2
  exit 2
fi
echo "ci: all stages passed (ran: $stages_ran)"
