#!/usr/bin/env bash
# Run a fixed set of qqft CLI configurations into OUTDIR with WORKERS worker
# processes.  Each run gets its own subdirectory holding its output files,
# stdout and stderr, and a file `status` with the exit status of a run that
# failed.  A failing run does not stop the script, so that the trees hold
# error paths too; the script exits with status 1 after the last run when a
# run failed that is not in its list of error-path runs, or one in that
# list succeeded.  Outputs
# must not depend on the worker count, so the trees of two worker counts,
# or of two commits, compare with `diff -r`:
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

# NAME ARGS...: qqft ARGS --out NAME, with stdout and stderr kept, and the
# exit status in NAME/status when it is not 0
run() {
    local name=$1
    shift
    mkdir -p "$name"
    rm -f "$name/status"
    python -m qqft "$@" >"$name/stdout" 2>"$name/stderr" || echo $? >"$name/status"
}

run flat-grid4 flatband --grid 4 --realizations 3 --sigma 0,1e-3,5e-3 \
    --phase-grid 3 --seed 5 --noise-on-diagonal \
    --workers "$workers" --out flat-grid4
run flat-grid8 flatband --grid 8 --realizations 4 --sigma 1e-3,0 \
    --phase-grid 2 --phase-realizations 2 --seed 3 \
    --workers "$workers" --out flat-grid8
# a 6 x 6 grid takes the generic route: the 2D assembly with factors of a
# size that is not a power of two
run flat-grid6 flatband --grid 6 --realizations 3 --sigma 0,2e-3,1e-2 \
    --phase-grid 2 --phase-realizations 2 --seed 7 \
    --workers "$workers" --out flat-grid6
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
# no linear table exists for N = 18, gamma = 2: an orbit-cover dispersion,
# with a noiseless diagonal step, so every member takes the exact phase table
run poincare-n18 poincare --N 18 --gamma 2 --sigma 0,5e-3 --realizations 3 \
    --seed 5 --workers "$workers" --out poincare-n18
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
run verify-n4 verify compile-n4/seq_radix2_n4.json
# at phi = pi/2, M = 3 sits on a phase boundary and the 6 x 6 grid holds
# the point where d vanishes, so the model cannot be flattened: that cell
# counts both realizations of its block as closed gaps (a NaN Bott value
# and one stderr line), while M = 4 is gapped
run flat-boundary flatband --grid 6 --sigma "" --phase-grid 2 \
    --phi-range 1.5707963267948966 1.5707963267948966 --m-range 3 4 \
    --phase-realizations 2 --seed 5 --workers "$workers" --out flat-boundary
# the same point in the gap sweep: the model cannot be flattened, so the
# command stops with one error line and exit status 1, and writes no output
run flat-singular flatband --phi 1.5707963267948966 --M 3 --grid 6 \
    --phase-grid 0 --sigma 0,1e-3 --realizations 2 --workers "$workers" \
    --out flat-singular
# bounds that the library checks when its objects are built: a grid whose
# evolution exceeds engine.MAX_DIM, and a boost with gamma < 2; each stops
# with one error line and writes no output file
run flat-grid46 flatband --grid 46 --workers "$workers" --out flat-grid46
run poincare-gamma1 poincare --gamma 1 --workers "$workers" \
    --out poincare-gamma1

# the runs that must fail; every other run must succeed
must_fail=" flat-singular flat-grid46 poincare-gamma1 "
status=0
for name in */; do
    name=${name%/}
    if [ -e "$name/status" ]; then failed=yes; else failed=no; fi
    case "$must_fail" in
        *" $name "*) expect=yes ;;
        *) expect=no ;;
    esac
    if [ "$failed" != "$expect" ]; then
        echo "$0: $name: failed=$failed, expected failed=$expect" >&2
        status=1
    fi
done
exit "$status"
