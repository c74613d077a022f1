#!/usr/bin/env bash
# The console script's output against the pinned files in tests/data.
#
#   tests/check_pinned_cli.sh [verify] [bounds]     (both when none given)
#
# verify: both suites, and the strict one reached through
# PUNCTURED_METRIC_TOL.  bounds: rho and sigma at the domains and points
# of tests/test_cli.py's PINNED_BOUNDS and PINNED_BOUNDS_Z, in its
# order; N = 2 and 10 take the list route of the queries, N = 40 the
# array route.  PUNCTMETRIC names the command (default: punctmetric;
# from a checkout, PUNCTMETRIC="python -m punctmetric.cli" with
# PYTHONPATH=src).  Exits non-zero at the first difference.
set -euo pipefail
cd "$(dirname "$0")/.."
# pytest's filterwarnings does not reach these processes
export PYTHONWARNINGS=error::RuntimeWarning
read -r -a run <<< "${PUNCTMETRIC:-punctmetric}"

verify() {
  "${run[@]}" verify --suite default | diff - tests/data/verify_default.jsonl
  "${run[@]}" verify --suite strict | diff - tests/data/verify_strict.jsonl
  PUNCTURED_METRIC_TOL=strict "${run[@]}" verify \
    | diff - tests/data/verify_strict.jsonl
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
}

parts=("$@")
[ ${#parts[@]} -gt 0 ] || parts=(verify bounds)
for part in "${parts[@]}"; do
  case $part in
    verify | bounds) "$part" ;;
    *) echo "unknown part: $part (want verify or bounds)" >&2; exit 2 ;;
  esac
done
echo "pinned CLI output matches"
