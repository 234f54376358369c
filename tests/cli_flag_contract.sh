#!/bin/sh
# The flag-error contract of the command-line tools, the gated benches and
# the examples: a bad flag value exits 2 with exactly one
# "<tool>: --flag: ..." line on stderr. It never exits 0, never aborts,
# and never starts any work. A bad positional argument names the argument
# instead of a flag, and a size or path that an example's model cannot run
# prints the model's own error after the example's name, also with exit 2.
#
# usage: cli_flag_contract.sh TSIM TCHECK BENCH_PARALLEL_SCALING BENCH_SERVE
#                             SOURCE_DIR EXAMPLES_DIR
set -u
tsim=$1
tcheck=$2
bpar=$3
bserve=$4
src=$5
ex=$6
scratch=$(mktemp -d) || exit 1
trap 'rm -rf "$scratch"' EXIT
sock=$scratch/tsim.sock
failures=0

# probe TOOL FLAG CMD...: CMD must exit 2 and print one stderr line, which
# starts "TOOL: FLAG: " (FLAG may be a positional argument's name, or the
# prefix of the error a model throws).
probe() {
  _tool=$1
  _flag=$2
  shift 2
  "$@" > "$scratch/out" 2> "$scratch/err"
  _rc=$?
  if [ "$_rc" -eq 2 ] && [ "$(wc -l < "$scratch/err")" -eq 1 ] &&
     grep -q "^$_tool: $_flag: " "$scratch/err"; then
    echo "ok: $(cat "$scratch/err")"
  else
    echo "FAIL (exit $_rc, want 2 and one '$_tool: $_flag: ' line): $*" >&2
    sed 's/^/  stderr: /' "$scratch/err" >&2
    failures=$((failures + 1))
  fi
}

probe tsim --workers "$tsim" run-server --socket "$sock" --workers 0
probe tsim --workers "$tsim" run-server --socket "$sock" --workers abc
probe tsim --dim "$tsim" hash --dim abc
probe tsim --dim "$tsim" hash --dim 3x
probe tsim --dim "$tsim" hash --dim 4294967299
probe tsim --seed "$tsim" hash --seed x
probe tsim --id "$tsim" status --socket "$sock" --id abc
probe tcheck --tolerance "$tcheck" --tolerance abc --predict \
      "$src/examples/tisa/hello.tisa"
probe bench_parallel_scaling --dims "$bpar" --dims 30
probe bench_parallel_scaling --dims "$bpar" --dims 6,x
probe bench_serve --jobs "$bserve" --jobs 12abc
probe alltoall_traced dimension "$ex/alltoall_traced" "$scratch/a.json" 40
probe alltoall_traced dimension "$ex/alltoall_traced" "$scratch/a.json" abc
probe alltoall_traced --threads "$ex/alltoall_traced" --threads 0
probe cg_solver dim "$ex/cg_solver" 10 99
probe cg_solver Node::alloc_rows "$ex/cg_solver" 1024 0 1
probe fft_hypercube log2_points "$ex/fft_hypercube" abc
probe fft_hypercube log2_points "$ex/fft_hypercube" 40 2
probe fft_hypercube run_fft "$ex/fft_hypercube" 3 3
probe occam_pipeline blocks "$ex/occam_pipeline" 0 0
probe occam_pipeline block_elems "$ex/occam_pipeline" 1 100000
probe cabinet_matmul n "$ex/cabinet_matmul" 16000
probe cabinet_matmul n "$ex/cabinet_matmul" 40
probe traced_saxpy perf "$ex/traced_saxpy" "$scratch/no_such_dir/x.json"
probe tisa_traced perf "$ex/tisa_traced" "$src/examples/tisa/hello.tisa" \
      "$scratch/no_such_dir/x.json"

# A good value still works: the ring 3-cube's content address.
address=$("$tsim" hash --program ring --dim 3 | tail -n 1)
if [ "$address" = ca-a8bc6edf51dbc6d9 ]; then
  echo "ok: tsim hash --program ring --dim 3 -> $address"
else
  echo "FAIL: tsim hash --program ring --dim 3 -> '$address'," \
       "want ca-a8bc6edf51dbc6d9" >&2
  failures=$((failures + 1))
fi

[ "$failures" -eq 0 ] || { echo "$failures probe(s) failed" >&2; exit 1; }
