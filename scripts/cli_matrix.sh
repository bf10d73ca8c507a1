#!/usr/bin/env bash
# Run a fixed set of qqft CLI configurations into OUTDIR with WORKERS worker
# processes.  Each run gets its own subdirectory holding its output files,
# stdout and stderr.  Outputs must not depend on the worker count, so the
# trees of two worker counts, or of two commits, compare with `diff -r`:
#
#   scripts/cli_matrix.sh out1 1 && scripts/cli_matrix.sh out2 2
#   diff -r out1 out2
#
# Runs the package from this checkout's src/; an absolute PYTHONPATH runs
# another copy instead (the runs start inside OUTDIR).  A third argument,
# any git revision, runs that revision's src/, extracted to a temporary
# directory, with this script's configurations, for example to compare a
# change with its parent:
#
#   scripts/cli_matrix.sh base 2 HEAD~1 && scripts/cli_matrix.sh head 2
#   diff -r base head
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: $0 OUTDIR WORKERS [REVISION]" >&2
    exit 2
fi
out=$1
workers=$2
root="$(cd "$(dirname "$0")/.." && pwd)"
if [ $# -eq 3 ]; then
    tree="$(mktemp -d)"
    trap 'rm -rf "$tree"' EXIT
    git -C "$root" archive "$3" src | tar -x -C "$tree"
    export PYTHONPATH="$tree/src"
else
    export PYTHONPATH="${PYTHONPATH:-$root/src}"
fi
mkdir -p "$out"
# paths in the printed lines are relative to OUTDIR, so trees compare
cd "$out"

run() {  # NAME ARGS...: qqft ARGS --out NAME, with stdout and stderr kept
    local name=$1
    shift
    mkdir -p "$name"
    python -m qqft "$@" >"$name/stdout" 2>"$name/stderr"
}

run flat-grid4 flatband --grid 4 --realizations 3 --sigma 0,1e-3,5e-3 \
    --phase-grid 3 --seed 5 --noise-on-diagonal \
    --workers "$workers" --out flat-grid4
run flat-grid8 flatband --grid 8 --realizations 4 --sigma 1e-3,0 \
    --phase-grid 2 --phase-realizations 2 --seed 3 \
    --workers "$workers" --out flat-grid8
# ranges given on the command line parse to lists, not the default tuples
run flat-ranges flatband --grid 4 --realizations 2 --sigma 2e-3 \
    --phase-grid 2 --phi-range -1 1.5 --m-range -2 0.5 --seed 9 \
    --workers "$workers" --out flat-ranges
# sigma = 0 takes the sine route, 5e-2 and 0.3 the arctan2 fallback; 0.3
# comes within the headroom margin of the branch cut and prints its line
run flat-wrap flatband --grid 4 --realizations 2 --sigma 0,5e-2,0.3 \
    --phase-grid 0 --seed 5 --workers "$workers" --out flat-wrap
# phase sigma 0.2 takes every cell within the headroom margin of the
# branch cut: one stderr line per cell
run flat-wrap-bott flatband --grid 4 --sigma "" --phase-grid 2 \
    --phase-sigma 0.2 --phase-realizations 2 --seed 5 --workers "$workers" \
    --out flat-wrap-bott
run poincare-n6 poincare --N 6 --realizations 3 --seed 5 --noise-on-diagonal \
    --workers "$workers" --out poincare-n6
run poincare-n16 poincare --N 16 --gamma 3 --realizations 2 --sigma 0,5e-3 \
    --seed 5 --noise-on-diagonal --workers "$workers" --out poincare-n16
run poincare-n33 poincare --N 33 --sigma 0,1e-3,5e-3,1e-2,2e-2,5e-2 \
    --realizations 4 --seed 11 --workers "$workers" --out poincare-n33
# the clean reference taken from a zero sigma that comes last, and measured
# apart when no sigma is zero
run poincare-zero-last poincare --N 33 --sigma 1e-3,0 --realizations 3 \
    --seed 7 --workers "$workers" --out poincare-zero-last
# a zero sigma between two nonzero ones: realization 0 keeps the given order
run poincare-zero-middle poincare --N 6 --sigma 1e-3,0,2e-2 \
    --realizations 3 --seed 7 --workers "$workers" --out poincare-zero-middle
# seven realizations: two blocks of sweep tasks, the second one short
run poincare-blocks poincare --N 33 --sigma 0,5e-3,2e-2 --realizations 7 \
    --seed 13 --workers "$workers" --out poincare-blocks
run poincare-no-zero poincare --N 16 --gamma 3 --sigma 5e-3 --realizations 3 \
    --seed 7 --noise-on-diagonal --workers "$workers" --out poincare-no-zero
# the benchmark's poincare workload: its realizations compose in blocks of
# 21, 20 and 10 members, so the worker-count and base-commit diffs cover the
# configuration whose timing the benchmark reports
run poincare-bench poincare --N 33 --gamma 2 \
    --sigma 0,1e-3,5e-3,1e-2,2e-2,5e-2 --realizations 10 --seed 3 \
    --workers "$workers" --out poincare-bench
run compile compile --N 33 --out compile
run compile-n4 compile --n 4 --out compile-n4
run verify verify compile/seq_generic_N33.json
# at phi = pi/2, M = 3 sits on a phase boundary and the 6 x 6 grid holds
# the point where d vanishes, so the model cannot be flattened: that cell
# counts both realizations of its block as closed gaps (a NaN Bott value
# and one stderr line), while M = 4 is gapped.  Last, since a revision that
# still aborts here has written every other run by then
run flat-boundary flatband --grid 6 --sigma "" --phase-grid 2 \
    --phi-range 1.5707963267948966 1.5707963267948966 --m-range 3 4 \
    --phase-realizations 2 --seed 5 --workers "$workers" --out flat-boundary
