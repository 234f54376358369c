#!/bin/sh
# The flag-error contract of the command-line tools, the gated benches and
# the examples: a bad flag value exits 2 with exactly one
# "<tool>: --flag: ..." line on stderr. It never exits 0, never aborts,
# and never starts any work. A bad positional argument names the argument
# instead of a flag, and a size or path that an example's model cannot run
# prints the model's own error after the example's name, also with exit 2.
# Malformed program text through tisa_traced and tcheck ends with a
# documented exit code too, never with a signal or a hang.
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

# ends CODE CMD...: CMD must end within 20 s with exit CODE, never with a
# signal or a hang; exit 2 must come with one "<tool>: " stderr line.
ends() {
  _want=$1
  shift
  _tool=$(basename "$1")
  timeout 20 "$@" > "$scratch/out" 2> "$scratch/err"
  _rc=$?
  if [ "$_rc" -eq "$_want" ] &&
     { [ "$_rc" -ne 2 ] || { [ "$(wc -l < "$scratch/err")" -eq 1 ] &&
                             grep -q "^$_tool: " "$scratch/err"; }; }; then
    echo "ok: exit $_rc: $*"
  else
    echo "FAIL (exit $_rc, want $_want): $*" >&2
    sed 's/^/  stderr: /' "$scratch/err" >&2
    failures=$((failures + 1))
  fi
}

# A few lines of program text never kill or hang a tool. The machine
# faults on a 32-bit division overflow and carries on; the assembler
# refuses an image outside RAM, a number past 32 bits and a label operand
# its six-byte encoding cannot hold; a .comm spec may not use the
# collectives' tags.
printf 'main:\n mint\n ldc -1\n div\n halt\n' > "$scratch/div_overflow.tisa"
printf 'main:\n mint\n ldc -1\n rem\n halt\n' > "$scratch/rem_overflow.tisa"
printf 'main:\n .space 2000000\n halt\n' > "$scratch/space_2m.tisa"
printf 'main:\n .space 4000000000\n halt\n' > "$scratch/space_4g.tisa"
printf 'main:\n halt\n .word 0x1ffffffff\n' > "$scratch/word_33_bits.tisa"
printf 'main:\n ldc -2147483649\n halt\n' > "$scratch/ldc_33_bits.tisa"
printf '.org 0x10000000\nmain:\n ldc main\n halt\n' \
       > "$scratch/onchip_label.tisa"
printf 'dim 1\n0: send 1 32768 ; barrier\n1: barrier ; recv 0 32768\n' \
       > "$scratch/collective_tag.comm"
for p in div_overflow rem_overflow; do
  ends 0 "$ex/tisa_traced" "$scratch/$p.tisa" "$scratch/$p.json"
done
ends 1 "$tcheck" "$scratch/div_overflow.tisa"
ends 1 "$tcheck" --predict "$scratch/div_overflow.tisa"
ends 0 "$tcheck" "$scratch/rem_overflow.tisa"
ends 0 "$tcheck" --predict "$scratch/rem_overflow.tisa"
for p in space_2m space_4g word_33_bits ldc_33_bits onchip_label; do
  ends 2 "$ex/tisa_traced" "$scratch/$p.tisa" "$scratch/$p.json"
  ends 1 "$tcheck" "$scratch/$p.tisa"
  ends 1 "$tcheck" --predict "$scratch/$p.tisa"
done
ends 1 "$tcheck" "$scratch/collective_tag.comm"

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
