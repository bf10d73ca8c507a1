"""Smoke test of the benchmark harness at toy sizes (grid 4, N = 6).

    python3 -m pytest perfbench/test_harness.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from reference import Reference
from run import ROOT, load_spec, summarize
from tracer import LAYERS, Tracer, leftover_wrappers, public_functions
from worker import inspect_outputs
from workloads import TOY, WORKLOADS

sys.path.insert(0, str(ROOT / "src"))

import qqft.cli  # noqa: E402


def bench(*args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=170, check=True)
    return proc.stdout.splitlines()


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_printed_with_unit(workload, trace, kind):
    lines = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace), "--toy")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in load_spec()[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float))
        assert any(line.startswith(f"metric {name} = ") and line.endswith(f" {unit}")
                   for line in lines)


def test_wrappers_gone_after_traced_run(tmp_path):
    originals = {(m.__name__, name): fn for layer in LAYERS
                 for m in [sys.modules[f"qqft.{layer}"]]
                 for name, fn in public_functions(m)}
    bound_in_haldane = qqft.haldane.build_protocol_unitary
    delta = qqft.engine.NoiseModel.delta

    tracer = Tracer()
    tracer.install()
    try:
        assert qqft.haldane.build_protocol_unitary is not bound_in_haldane
        workload = WORKLOADS["flatband-gap"]
        assert qqft.cli.main(workload.argv(3, tmp_path, TOY)) == 0
    finally:
        tracer.uninstall()

    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "haldane.noise_sweep_gap_width",
            "protocol.build_protocol_unitary", "engine.apply_noisy_sequence",
            "protocol.extract_spectrum"} <= names
    assert tracer.delta_calls() > 0
    assert leftover_wrappers() == []
    for (module, name), fn in originals.items():
        assert getattr(sys.modules[module], name) is fn
    assert qqft.haldane.build_protocol_unitary is bound_in_haldane
    assert qqft.engine.NoiseModel.delta is delta


def test_reference_helpers_stopped():
    with Reference(2) as reference:
        helpers = [proc for proc, _ in reference._helpers]
        assert len(helpers) == 1 and helpers[0].is_alive()
        wall, cpu = reference()
    assert wall > 0 and cpu > 0
    assert not any(proc.is_alive() for proc in helpers)
    assert helpers[0].exitcode == 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_corrupted_output_counts_as_failed(workload, tmp_path):
    wl = WORKLOADS[workload]
    assert qqft.cli.main(wl.argv(3, tmp_path, TOY)) == 0
    clean = inspect_outputs(wl, TOY, tmp_path)
    assert clean["failed"] == 0 and clean["realizations"] > 0

    csv = sorted(tmp_path.glob("*.csv"))[-1]
    lines = csv.read_text().splitlines(keepends=True)
    lines[-1] = lines[-1].replace("0", "x", 1) if "0" in lines[-1] else "x\r\n"
    csv.write_text("".join(lines))
    corrupt = inspect_outputs(wl, TOY, tmp_path)
    assert corrupt["failed"] == corrupt["realizations"]
    assert corrupt["hashes"] != clean["hashes"]

    attempted, failed, notes = summarize([clean, dict(clean, hashes=corrupt["hashes"])])
    assert (attempted, failed) == (2 * clean["realizations"], clean["realizations"])
    assert any("differ" in n for n in notes)


def test_wrong_value_counts_as_failed(tmp_path):
    wl = WORKLOADS["flatband-gap"]
    assert qqft.cli.main(wl.argv(3, tmp_path, TOY)) == 0
    path = tmp_path / "gap_width.csv"
    head, header, clean_row, *rest = path.read_text().splitlines(keepends=True)
    fields = clean_row.split(",")
    fields[1] = repr(float(fields[1]) + 1e-6)      # G off 4 pi by 1e-6
    path.write_text("".join([head, header, ",".join(fields), *rest]))
    assert inspect_outputs(wl, TOY, tmp_path)["failed"] == TOY.gap_realizations


def test_refuses_a_directory_without_the_program(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (bench_dir / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "poincare",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not Path(tmp_path / ".perfbench-runs").exists()
