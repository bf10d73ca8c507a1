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
# another copy instead (the runs start inside OUTDIR), for example to
# compare two commits.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 OUTDIR WORKERS" >&2
    exit 2
fi
out=$1
workers=$2
src="$(cd "$(dirname "$0")/.." && pwd)/src"
export PYTHONPATH="${PYTHONPATH:-$src}"
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
run compile compile --N 33 --out compile
run verify verify compile/seq_generic_N33.json
