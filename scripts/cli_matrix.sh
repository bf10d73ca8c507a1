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
run poincare-no-zero poincare --N 16 --gamma 3 --sigma 5e-3 --realizations 3 \
    --seed 7 --noise-on-diagonal --workers "$workers" --out poincare-no-zero
run compile compile --N 33 --out compile
run verify verify compile/seq_generic_N33.json
