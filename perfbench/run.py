"""Benchmark of the qqft CLI sweeps.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

NAME is one of the workloads in `workloads.py` (see README.md for why each
exists).  Every interpreter that does the work is a fresh `worker.py`
process, one at a time:

* `--trace 0`: several set-up-only interpreters plus one timed sweep give the
  end-to-end metrics of BENCHMARK.json; throughput and CPU are taken over the
  whole sweep and count time in runs of the reference kernel of
  `reference.py` (unit `ref`), timed next to each call, and the plain
  wall-clock figures are printed as `info` lines;
* `--trace 1`: an untraced sweep and a traced sweep, half the time each, give
  the per-layer metrics and `trace.overhead` (traced / untraced median call
  time).

Every CLI call's outputs are checked and hashed; calls whose hashes differ
from the run's first call count as failed.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.  Records of the run
(environment, per-call checks, spans of a traced sweep) go to
`.perfbench-runs/` in the checkout.  `--workload all` runs every workload in
both modes and ends with one JSON object keyed by workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench-runs"
SETUP_INTERPRETERS = 4        # plus the sweep's own set-up: median of 5
CHILD_BUDGET_S = 170.0        # a run must end within 180 s


def load_spec():
    """BENCHMARK.json of the checkout, or None when it is missing."""
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.is_file() else None


def units(spec, kind):
    return {m["name"]: m["unit"] for m in spec[kind]}


def git_revision():
    if not (ROOT / ".git").exists():
        return None, None

    def git(*cmd):
        return subprocess.run(["git", "-C", str(ROOT), *cmd], check=True,
                              capture_output=True, text=True,
                              timeout=30).stdout.strip()
    try:
        return (git("rev-parse", "HEAD"),
                bool(git("status", "--porcelain", "--untracked-files=no")))
    except (OSError, subprocess.SubprocessError):
        return None, None


class Run:
    """The fresh interpreters of one workload run and what they reported."""

    def __init__(self, workload, seed, toy):
        self.workload, self.seed, self.toy = workload, seed, toy
        self.dir = RUNS / f"{workload}-seed{seed}-{os.getpid()}-{time.time_ns()}"
        self.dir.mkdir(parents=True)
        self.deadline = time.monotonic() + CHILD_BUDGET_S
        self.children = 0

    def child(self, seconds=0.0, setup_only=False, trace=False) -> dict:
        tag = f"child{self.children}"
        self.children += 1
        result = self.dir / f"{tag}.json"
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--seconds", str(seconds), "--result", str(result),
               "--outdir", str(self.dir / tag)]
        cmd += ["--setup-only"] * setup_only + ["--trace"] * trace
        cmd += ["--toy"] * self.toy
        # the worker never prints results to stdout; keep ours for the JSON
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       env=dict(os.environ, **WORKLOADS[self.workload].env),
                       timeout=max(1.0, self.deadline - time.monotonic()))
        return json.loads(result.read_text())


def summarize(calls):
    """attempted, failed and notes; a call whose outputs differ from the
    first call's fails in full."""
    reference = calls[0]["hashes"]
    attempted = failed = 0
    notes = {}
    for i, call in enumerate(calls):
        lost = call["failed"]
        if call["hashes"] != reference:
            lost = call["realizations"]
            notes[f"call {i}: outputs differ from call 0"] = 1
        attempted += call["realizations"]
        failed += lost
        for note in call["notes"]:
            notes[note] = notes.get(note, 0) + 1
    return attempted, failed, [f"{note} [{n}/{len(calls)} calls]"
                               for note, n in notes.items()]


def sweep_rates(calls):
    """Wall-clock throughput and CPU over all calls of a sweep, and the mean
    wall and CPU time of the reference kernel next to them."""
    realizations = sum(c["realizations"] for c in calls)
    return {
        "realizations_per_s": realizations / sum(c["wall_s"] for c in calls),
        "cpu_s_per_realization": sum(c["cpu_s"] for c in calls) / realizations,
        "reference_s": statistics.mean(c["ref_wall_s"] for c in calls),
        "reference_cpu_s": statistics.mean(c["ref_cpu_s"] for c in calls),
    }


def measure(spec, workload, seed, seconds, trace, toy=False):
    """Run one workload; return (result line dict, record dict)."""
    run = Run(workload, seed, toy)
    if trace:
        plain = run.child(seconds / 2)
        traced = run.child(seconds / 2, trace=True)
        sweeps = [plain, traced]
        overhead = (statistics.median(c["wall_s"] for c in traced["calls"])
                    / statistics.median(c["wall_s"] for c in plain["calls"]))
        metrics = dict(traced["layers"], **{
            "trace.overhead": overhead,
            "sweep.realizations_per_s":
                sweep_rates(plain["calls"])["realizations_per_s"]})
        wanted = units(spec, "per_layer")
        leftovers = traced["leftover_wrappers"]
    else:
        setups = [run.child(setup_only=True)["setup_s"]
                  for _ in range(SETUP_INTERPRETERS)]
        sweep = run.child(seconds)
        sweeps = [sweep]
        calls = sweep["calls"]
        rates = sweep_rates(calls)
        metrics = {
            "realizations_per_ref": (rates["realizations_per_s"]
                                     * rates["reference_s"]),
            "cpu_ref_per_realization": (rates["cpu_s_per_realization"]
                                        / rates["reference_cpu_s"]),
            "setup_s": statistics.median(setups + [sweep["setup_s"]]),
            "peak_rss_mb": sweep["peak_rss_mb"],
        }
        wanted = units(spec, "end_to_end")
        leftovers = []

    raw = sweep_rates(sweeps[0]["calls"])
    attempted, failed, notes = summarize([c for s in sweeps for c in s["calls"]])
    if leftovers:
        failed = attempted
        notes.append(f"wrappers left bound after tracing: {leftovers}")
    revision, dirty = git_revision()
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "argv": sys.argv, "git_revision": revision, "git_dirty": dirty,
        "env": sweeps[0]["env"], "notes": notes,
        "failed_frac": failed / attempted, "metrics": metrics, "raw": raw,
        "calls": [c for s in sweeps for c in s["calls"]],
    }
    (run.dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    line = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in wanted.items()},
    }
    return line, record


def report(line, record):
    print(f"== {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} calls={len(record['calls'])}")
    print("env " + json.dumps(dict(record["env"], git_revision=record["git_revision"],
                                   git_dirty=record["git_dirty"],
                                   seed=record["seed"], argv=record["argv"])))
    for note in record["notes"]:
        print(f"check {note}")
    print(f"check failed_frac = {record['failed_frac']:.6g} "
          f"({line['failed']}/{line['attempted']}) "
          f"{'PASS' if line['correct'] else 'FAIL'}")
    for name, value in record["raw"].items():
        print(f"info unnormalized {name} = {value:.6g}")
    for name, m in line["metrics"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="toy sizes (grid 4, N = 6) for the harness test")
    args = ap.parse_args(argv)
    spec = load_spec()
    if not (ROOT / "src" / "qqft" / "__init__.py").is_file() or not spec:
        print(f"error: {ROOT} has no src/qqft or BENCHMARK.json to benchmark",
              file=sys.stderr)
        return 2

    if args.workload != "all":
        line, record = measure(spec, args.workload, args.seed, args.seconds,
                               bool(args.trace), args.toy)
        report(line, record)
        print(json.dumps(line))
        return 0

    summary = {}
    for name in WORKLOADS:
        for trace in (False, True):
            line, record = measure(spec, name, args.seed, args.seconds, trace,
                                   args.toy)
            report(line, record)
            entry = summary.setdefault(name, {"correct": True, "metrics": {}})
            entry["correct"] &= line["correct"]
            entry["metrics"].update(line["metrics"])
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
