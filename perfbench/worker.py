"""One fresh interpreter of a benchmark run: set up, then call the CLI in a loop.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --result FILE --outdir DIR [--setup-only] [--trace] [--toy]

Set-up is timed from `import qqft` until the first realization could start.
The timed sweep then calls `qqft.cli.main(argv)` in this process, again and
again with the same argv, until `--seconds` would be exceeded (at least two
calls, so repeats can be compared, unless the first took all the time).
Each call's outputs are hashed, checked and deleted.  The reference kernel of
`reference.py` is timed before the first call and after each call, in as many
processes at once as the workload uses cores; a call carries the mean of the
two runs next to it.  With `--trace` the layers are wrapped before set-up and
the spans are written next to the result.  The result is one JSON file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from reference import Reference
from tracer import Tracer, layer_metrics, leftover_wrappers
from workloads import FULL, TOY, WORKLOADS, OutputError

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment(numpy, scipy) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def run_call(qqft, workload, size, argv, out) -> dict:
    """One CLI call: timing, then hashes and checks of what it wrote."""
    stdout = io.StringIO()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(stdout):
            code = qqft.cli.main(argv)
    except Exception:  # a crash is a failed call, reported and counted
        traceback.print_exc()
        code = "exception"
    record = {"wall_s": time.perf_counter() - wall0,
              "cpu_s": time.process_time() - cpu0}
    record.update(inspect_outputs(workload, size, out, code))
    shutil.rmtree(out, ignore_errors=True)
    return record


def inspect_outputs(workload, size, out, code=0) -> dict:
    """Hashes, size and check result of the files one call wrote to `out`.

    A call that did not exit 0 or whose files do not parse fails in full.
    """
    realizations = workload.realizations(size)
    files = sorted(p for p in out.iterdir() if p.is_file()) if out.is_dir() else []
    record = {
        "realizations": realizations,
        "hashes": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in files},
        "bytes": sum(p.stat().st_size for p in files),
    }
    if code != 0:
        record["failed"], record["notes"] = realizations, [f"exit {code}"]
    else:
        try:
            record["failed"], record["notes"] = workload.check(out, size)
        except OutputError as exc:
            record["failed"], record["notes"] = realizations, [str(exc)]
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--outdir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--toy", action="store_true")
    args = ap.parse_args(argv)
    workload, size = WORKLOADS[args.workload], TOY if args.toy else FULL

    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import qqft
    import qqft.cli
    import scipy
    if Path(qqft.__file__).resolve().parent != ROOT / "src" / "qqft":
        raise SystemExit(f"qqft imported from {qqft.__file__}, not {ROOT / 'src'}")
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workload.setup(qqft, size)
    result = {"setup_s": time.perf_counter() - start}

    if not args.setup_only:
        calls = []
        if tracer:
            tracer.mark_sweep()
        sweep_start = time.perf_counter()
        with Reference(workload.cores(size)) as reference:
            refs = [reference()]
            while True:
                out = args.outdir / f"call{len(calls)}"
                call = run_call(qqft, workload, size,
                                workload.argv(args.seed, out, size), out)
                refs.append(reference())
                call["ref_wall_s"], call["ref_cpu_s"] = (
                    (before + after) / 2 for before, after in zip(*refs[-2:]))
                calls.append(call)
                elapsed = time.perf_counter() - sweep_start
                typical = statistics.median(c["wall_s"] for c in calls)
                # two calls at least, so repeats can be compared, unless one
                # call already took the whole budget
                if elapsed + typical > args.seconds and (
                        len(calls) >= 2 or elapsed > args.seconds):
                    break
        result["calls"], result["refs"] = calls, refs
        shutil.rmtree(args.outdir, ignore_errors=True)
        if tracer:
            tracer.uninstall()
            result["leftover_wrappers"] = leftover_wrappers()
            result["layers"] = layer_metrics(
                tracer, sum(c["realizations"] for c in calls), len(calls),
                sum(c["bytes"] for c in calls))
            tracer.write(args.result.with_suffix(".spans.jsonl"))
        result["env"] = environment(numpy, scipy)
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    args.result.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
