#!/usr/bin/env bash
# The console script's output against the pinned files in tests/data.
#
#   tests/check_pinned_cli.sh [verify] [bounds] [scalar] [imports] [usage]
#                                                (all when none given)
#
# verify: both suites, and the strict one reached through
# PUNCTURED_METRIC_TOL; then, warm, one interpreter running
# punctmetric.cli.main on every check alone under each suite (verify
# --check NAME), as perfbench's verify operations run them, then on
# default, strict through PUNCTURED_METRIC_TOL (verify with no --suite),
# strict, default and strict, then on every check alone again, so that
# the later runs read the reports that verify kept, and the reply lines
# the CLI kept beside them, from the first ones, each line against its
# row: a line kept for one profile never answers the other.
# scalar: eval of every evaluator (f21 on each
# of its routes), constants, bounds ring --compare and a short figure1;
# then, warm, one interpreter running punctmetric.cli.main on that
# figure1 twice, so that a second run in one process reads as the first.
# bounds: rho and sigma at the domains and points
# of tests/test_cli.py's PINNED_BOUNDS and PINNED_BOUNDS_Z, in its
# order; N = 2 and 10 take the list rows of the queries, N = 40 and
# 128 the sorted table, and 129, the 400 clustered punctures and the
# 400 on a circle about z = 3,2 the pruned search.
# imports: each subcommand once, with PYTHONPROFILEIMPORTTIME=1, and
# the sorted punctmetric.* modules that it loads, punctmetric.cli left
# out (python -m runs it as __main__), and argparse if it loads, against
# cli_imports.txt: only the bounds subcommand loads bounds, eval NAME
# only NAME's module and what that imports, and only help and a value
# that starts with "-" but is no negative number as argparse reads one
# (-2 and -1.5 are, -1e-3, -inf and -1,0 are not) load argparse (and
# punctmetric._usage, which builds the parser).
# usage: help at each level, abbreviated, repeated and unknown options,
# option values that start with "-", "--", missing and bad values,
# each with its exit code, its stdout and whether it wrote to stderr,
# against cli_usage.txt.  The messages themselves are not compared:
# argparse words them differently from one Python to the next.
# PUNCTMETRIC names the
# command (default: punctmetric; from a checkout,
# PUNCTMETRIC="python -m punctmetric.cli" with PYTHONPATH=src); PYTHON
# names the interpreter of the warm part (default: python3).  Exits
# non-zero at the first difference.
set -euo pipefail
cd "$(dirname "$0")/.."
# pytest's filterwarnings does not reach these processes
export PYTHONWARNINGS=error::RuntimeWarning
read -r -a run <<< "${PUNCTMETRIC:-punctmetric}"
read -r -a python <<< "${PYTHON:-python3}"
# a command that cannot start would fail every diff with the whole
# pinned file: say so once instead
if ! "${run[@]}" --help > /dev/null 2>&1; then
  echo "cannot run '${run[*]}' (--help fails): install the package, or" \
    "set PUNCTMETRIC, e.g. PUNCTMETRIC=\"python3 -m punctmetric.cli\"" \
    "with PYTHONPATH=src" >&2
  exit 2
fi

verify() {
  "${run[@]}" verify --suite default | diff - tests/data/verify_default.jsonl
  "${run[@]}" verify --suite strict | diff - tests/data/verify_strict.jsonl
  PUNCTURED_METRIC_TOL=strict "${run[@]}" verify \
    | diff - tests/data/verify_strict.jsonl
  warm=$(mktemp -d)
  trap 'rm -rf "$warm"' EXIT
  "${python[@]}" - "$warm" <<'EOF'
import contextlib
import os
import sys

from punctmetric import verify
from punctmetric.cli import main

# one file per suite run: each suite's checks one at a time, in the
# pinned files' order, then five whole suites, the second of them
# strict through PUNCTURED_METRIC_TOL, then the checks again
alone = [[["verify", "--check", name, "--suite", suite]
          for name in verify.check_names()] for suite in ("default", "strict")]
suites = [[["verify", "--suite", suite]]
          for suite in ("default", "strict") * 2]
runs = alone + suites[:1] + [[["verify"]]] + suites[1:] + alone
for i, argvs in enumerate(runs):
    suite = argvs[0][-1]
    if suite == "verify":
        suite = os.environ["PUNCTURED_METRIC_TOL"] = "strict"
    with open(f"{sys.argv[1]}/{i}_{suite}", "w") as out, \
            contextlib.redirect_stdout(out):
        for argv in argvs:
            if main(argv):
                sys.exit(f"{' '.join(argv)} failed, run {i + 1} of "
                         f"{len(runs)}")
    os.environ.pop("PUNCTURED_METRIC_TOL", None)
EOF
  for out in "$warm"/*; do
    diff "$out" "tests/data/verify_${out##*_}.jsonl"
  done
  rm -rf "$warm"
}

pinned() {
  for domain in "$@"; do
    for z in -1,0 0.5,0.8660254037844386 3,2 1e-300,0 -1e9,0 \
        0.1,0.2 -0.016218728184858068,-0.26770582777249746; do
      for query in rho sigma; do
        "${run[@]}" bounds "$query" \
          --domain "tests/data/domain_$domain.json" --z="$z"
      done
    done
  done
}

bounds() {
  pinned pair ten | diff - tests/data/bounds_cli.jsonl
  pinned forty | diff - tests/data/bounds_cli_forty.jsonl
  pinned clusters | diff - tests/data/bounds_cli_clusters.jsonl
  pinned edge128 edge129 | diff - tests/data/bounds_cli_edge.jsonl
  pinned ring400 | diff - tests/data/bounds_cli_ring.jsonl
}

scalar() {
  {
    for f21 in "0.5 0.5 1 0.3" "0.5 0.5 1 0.99" "1.5 1.5 2 0.9" \
        "0.9 1.1 2.6 0.95" "2 3 3 0.9"; do
      read -r a b c x <<< "$f21"
      "${run[@]}" eval f21 --a "$a" --b "$b" --c "$c" --x "$x"
    done
    "${run[@]}" eval K --r 0.5
    "${run[@]}" eval mu --r 0.3
    "${run[@]}" eval lambda --x 2
    "${run[@]}" eval phi --x 3
    "${run[@]}" eval h --t 1.5
    "${run[@]}" eval H --t -2
    for t in 0.01 3 200; do
      "${run[@]}" eval varphi --t "$t"
    done
    "${run[@]}" eval P --t 2
    "${run[@]}" eval Q --t -1 --a 0.3 --b 0.7
    "${run[@]}" eval q --t 5
    "${run[@]}" eval N --a 0.5 --b 0.5 --c 1 --x 0.2
    "${run[@]}" eval M --a 1 --b 2 --c 3.5 --x 0.7
    "${run[@]}" constants
    "${run[@]}" bounds ring --c 0.5 --r1 1 --r2 8 --compare
    "${run[@]}" bounds ring --c 3 --r1 0.7 --r2 1e6 --compare
    # B(a, b) past the float range on the log route, and the bp baseline
    # where c/(2 C0) is subnormal
    "${run[@]}" eval f21 --a 1e-310 --b 1e-310 --c 2e-310 --x 0.9
    for c in 1e-320 5e-324; do
      "${run[@]}" bounds ring --c "$c" --r1 1 --r2 2 --compare
    done
  } | diff - tests/data/scalar_cli.jsonl
  "${run[@]}" figure1 --lo 0.02 --hi 12 --count 9 \
    | diff - tests/data/figure1_cli.csv
  warm=$(mktemp -d)
  trap 'rm -rf "$warm"' EXIT
  "${python[@]}" - "$warm" <<'EOF'
import contextlib
import sys

from punctmetric.cli import main

for i in range(2):
    with open(f"{sys.argv[1]}/{i}", "w") as out, \
            contextlib.redirect_stdout(out):
        if main(["figure1", "--lo", "0.02", "--hi", "12", "--count", "9"]):
            sys.exit(f"figure1 failed, run {i + 1} of 2")
EOF
  for out in "$warm"/*; do
    diff "$out" tests/data/figure1_cli.csv
  done
  rm -rf "$warm"
}

imports() {
  for argv in "eval f21 --a 0.5 --b 0.5 --c 1 --x 0.3" "eval h --t 1.5" \
      "eval H --t -2" "eval varphi --t 3" "eval P --t 2" \
      "verify --check thm_c212_1" "verify --suite default" "constants" \
      "figure1 --count 9" "bounds ring --c 0.5 --r1 1 --r2 8 --compare" \
      "bounds rho --domain tests/data/domain_ten.json --z=3,2" \
      "bounds sigma --domain tests/data/domain_forty.json --z=3,2" \
      "eval --help"; do
    read -r -a args <<< "$argv"
    echo "$argv:"
    # the import report goes to stderr, the subcommand's output away
    PYTHONPROFILEIMPORTTIME=1 "${run[@]}" "${args[@]}" 2>&1 > /dev/null \
      | sed -n 's/^import time:.*| *\(punctmetric\.[A-Za-z0-9_.]*\|argparse\)$/  \1/p' \
      | { grep -vx '  punctmetric\.cli' || true; } | sort
  done | diff - tests/data/cli_imports.txt
}

usage() {
  local argv rc
  seen=$(mktemp -d)
  trap 'rm -rf "$seen"' EXIT
  # one argv a line, in the shell's quoting
  while IFS= read -r argv; do
    eval "set -- $argv"
    echo "\$ punctmetric $argv"
    rc=0
    # help text wraps at the terminal's width
    COLUMNS=80 "${run[@]}" "$@" < /dev/null > "$seen/out" 2> "$seen/err" \
      || rc=$?
    if [ -s "$seen/err" ]; then
      echo "exit $rc, stderr written"
    else
      echo "exit $rc, stderr empty"
    fi
    cat "$seen/out"
  done <<'ARGV' | diff - tests/data/cli_usage.txt
-h
--help
eval -h
verify --help
bounds -h
bounds ring -h
bounds rho -h
bounds sigma --help
constants -h
figure1 -h
eval h --t 1.5 -h
verify --check thm_c212_1 --suit strict
bounds ring --c 0.5 --r1 1 --r2 8 --comp
bounds rho --do tests/data/domain_ten.json --z 3,2
eval h --t -1.5
eval h --t -1e5
eval h --t=-1e5
bounds rho --domain tests/data/domain_ten.json --z -1,0
bounds rho --domain tests/data/domain_ten.json --z=-1,0
eval h --t 1 --t 2
verify --check thm_c212_1 --check thm_c212_4
verify --json --json --check thm_c212_1
eval --t 1.5 -- h
eval h -- --t 1.5
verify --check thm_c212_1 --json=1
eval --t 1 h
eval h --t=1
verify --check ''
verify --check=
eval h
eval h --t
eval
bounds ring --c 0.5 --r1 1
bounds rho --z 3,2
bounds
''
frob
bounds dist --c 1
eval h --q 1
eval h extra --t 1
constants extra
figure1 --count 3.5
figure1 --count 3 --lo x
bounds rho --domain tests/data/domain_ten.json --z x
verify --suite lax
verify --suite
eval frobnicate --t 1
ARGV
  rm -rf "$seen"
}

parts=("$@")
[ ${#parts[@]} -gt 0 ] || parts=(verify bounds scalar imports usage)
for part in "${parts[@]}"; do
  case $part in
    verify | bounds | scalar | imports | usage) "$part" ;;
    *) echo "unknown part: $part (want verify, bounds, scalar, imports" \
         "or usage)" >&2
       exit 2 ;;
  esac
done
echo "pinned CLI output matches"
