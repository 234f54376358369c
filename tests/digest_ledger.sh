#!/bin/sh
# The digest ledger (tests/digest_ledger.txt): every line pins one command's
# output, a dump file or its stdout, to a committed sha256 digest and byte
# count. The test re-runs every line and fails on any difference, so a
# refactor that keeps the ledger passing kept every covered output byte for
# byte, at every thread count the ledger names.
#
# A ledger line is "<sha256> <bytes> <program> [args...]". The program is an
# example or bench binary name; "{out}" in the arguments stands for a scratch
# file, whose bytes are then digested instead of stdout, and "{src}" for the
# source tree. Lines starting with '#' are comments.
#
# usage: digest_ledger.sh EXAMPLES_DIR BENCH_DIR SOURCE_DIR [--write]
#   --write prints the ledger with fresh digests instead of checking it.
#   Regenerate the ledger only from the parent commit of a change, and only
#   for an output change that CHANGES.md names.
set -u
ex=$(cd "$1" && pwd) || exit 2
bench=$(cd "$2" && pwd) || exit 2
src=$(cd "$3" && pwd) || exit 2
mode=${4:-check}
ledger=$src/tests/digest_ledger.txt
scratch=$(mktemp -d) || exit 1
trap 'rm -rf "$scratch"' EXIT
failures=0
checked=0

while IFS= read -r line; do
  case $line in
    '' | '#'*)
      [ "$mode" = --write ] && printf '%s\n' "$line"
      continue
      ;;
  esac
  want_sha=${line%% *}
  rest=${line#* }
  want_bytes=${rest%% *}
  cmd=${rest#* }
  prog=${cmd%% *}
  args=
  [ "$prog" != "$cmd" ] && args=${cmd#* }
  if [ -x "$ex/$prog" ]; then
    bin=$ex/$prog
  elif [ -x "$bench/$prog" ]; then
    bin=$bench/$prog
  else
    echo "FAIL: no program '$prog' in $ex or $bench" >&2
    failures=$((failures + 1))
    continue
  fi
  out=$scratch/out
  rm -f "$out"
  args=$(printf '%s' "$args" | sed "s|{out}|$out|g; s|{src}|$src|g")
  # Word splitting of $args is intended: ledger arguments hold no spaces.
  # shellcheck disable=SC2086
  (cd "$scratch" && "$bin" $args) < /dev/null > "$scratch/stdout" \
      2> "$scratch/stderr"
  rc=$?
  case $cmd in
    *'{out}'*) file=$out ;;
    *) file=$scratch/stdout ;;
  esac
  if [ "$rc" -ne 0 ] || [ ! -f "$file" ]; then
    echo "FAIL (exit $rc): $cmd" >&2
    sed 's/^/  stderr: /' "$scratch/stderr" >&2
    failures=$((failures + 1))
    continue
  fi
  sha=$(sha256sum < "$file" | cut -d' ' -f1)
  bytes=$(wc -c < "$file" | tr -d ' ')
  if [ "$mode" = --write ]; then
    printf '%s %s %s\n' "$sha" "$bytes" "$cmd"
  elif [ "$sha" = "$want_sha" ] && [ "$bytes" = "$want_bytes" ]; then
    checked=$((checked + 1))
  else
    echo "FAIL: $cmd" >&2
    echo "  want $want_sha $want_bytes bytes" >&2
    echo "  got  $sha $bytes bytes" >&2
    failures=$((failures + 1))
  fi
done < "$ledger"

[ "$mode" = --write ] || echo "digest ledger: $checked line(s) match"
[ "$failures" -eq 0 ]
