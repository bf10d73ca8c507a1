"""The benchmark workloads: CLI argv, set-up steps and output checks.

Each workload is one `qqft` command line.  The benchmark's seed becomes the
command's `--seed`; the program sees nothing else from the benchmark.  A
check reads the CSV files the command wrote and returns how many of the
call's realizations (phase-diagram cells for `flatband-bott`) failed, at the
acceptance tolerances.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

#: the CLI's default flat-band sigma list, which `flatband-gap` relies on
FLAT_SIGMAS = (0.0, 5e-4, 1e-3, 2.5e-3, 5e-3)
POINCARE_SIGMAS = (0.0, 1e-3, 5e-3, 1e-2, 2e-2, 5e-2)
#: acceptance criteria 4 and 7 are statements about means over at least this
#: many realizations per sigma; below it their bounds are reported, not checked
#: (one flat-band realization at sigma = 2.5e-3 has W/G of about 0.09-0.13)
STATISTICAL_MIN_REALIZATIONS = 100


@dataclass(frozen=True)
class Size:
    grid: int                  # flat-band Brillouin-zone grid per axis
    gap_realizations: int      # per sigma, flatband-gap
    phase_grid: int            # cells per axis, flatband-bott
    n_sites: int               # poincare N
    poincare_realizations: int


FULL = Size(grid=16, gap_realizations=1, phase_grid=2, n_sites=33,
            poincare_realizations=10)
TOY = Size(grid=4, gap_realizations=2, phase_grid=2, n_sites=6,
           poincare_realizations=3)


def workers() -> int:
    return len(os.sched_getaffinity(0))


# -- output files ----------------------------------------------------------

class OutputError(ValueError):
    """An output file is missing or does not parse."""


def read_csv(path: Path):
    """Rows of a qqft CSV as floats (empty cells become None)."""
    try:
        with open(path, newline="") as fh:
            if not fh.readline().startswith("# qqft/"):
                raise OutputError(f"{path.name}: missing qqft header line")
            reader = csv.reader(fh)
            header = next(reader)
            rows = [[float(v) if v != "" else None for v in row] for row in reader]
    except (OSError, StopIteration, ValueError) as exc:
        raise OutputError(f"{path.name}: {exc}") from exc
    if any(len(row) != len(header) for row in rows):
        raise OutputError(f"{path.name}: ragged rows")
    return header, rows


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


# -- checks ------------------------------------------------------------------

def check_gap(out: Path, size: Size) -> tuple:
    """gap_width.csv: finite rows with G > 0; clean row W < 1e-9 and
    G = 4 pi +- 1e-9; W/G < 0.12 at sigma = 2.5e-3 (checked from 100
    realizations per sigma on, reported below that)."""
    r = size.gap_realizations
    _, rows = read_csv(out / "gap_width.csv")
    if [row[0] for row in rows] != list(FLAT_SIGMAS):
        raise OutputError("gap_width.csv: unexpected sigma column")
    failed, notes = 0, []
    for sigma, gap, width, err_gap, err_width in rows:
        ok = _finite(gap, width, err_gap, err_width) and gap > 0
        if ok and sigma == 0.0:
            ok = width < 1e-9 and abs(gap - 4 * math.pi) < 1e-9
        if not ok:
            failed += r
            notes.append(f"sigma={sigma:g}: G={gap} W={width}")
        elif sigma == 2.5e-3:
            if r >= STATISTICAL_MIN_REALIZATIONS and not width / gap < 0.12:
                failed += r
            notes.append(f"info: sigma=2.5e-3 W/G = {width / gap:.4f} over "
                         f"{r} realization(s) (criterion 4 bound 0.12)")
    return failed, notes


def check_bott(out: Path, size: Size) -> tuple:
    """phase_diagram.csv: every cell's Bott index is a number within 1e-6 of
    an integer (NaN is a swallowed GapClosedError).  Bott = Chern agreement is
    reported, not checked."""
    _, gap_rows = read_csv(out / "gap_width.csv")
    if gap_rows:
        raise OutputError("gap_width.csv: rows for an empty sigma list")
    _, rows = read_csv(out / "phase_diagram.csv")
    cells = size.phase_grid ** 2
    if len(rows) != cells:
        raise OutputError(f"phase_diagram.csv: {len(rows)} cells, want {cells}")
    failed, agree, chern_cells, notes = 0, 0, 0, []
    for phi, m, bott, chern in rows:
        if not _finite(bott) or abs(bott - round(bott)) > 1e-6:
            failed += 1
            notes.append(f"phi={phi:.4f} M={m:g}: bott={bott}")
            continue
        if chern is not None:
            chern_cells += 1
            agree += round(bott) == chern
    notes.append(f"info: Bott = Chern in {agree}/{chern_cells} cells")
    return failed, notes


def _trend_ok(sigmas, means, errs) -> bool:
    """Acceptance criterion 7: at most one inversion beyond one standard
    error, and the log-log slope decelerates over the last interval."""
    inversions = sum(means[i] - means[i + 1] > math.hypot(errs[i], errs[i + 1])
                     for i in range(len(means) - 1))

    def slope(i, j):
        return math.log(means[j] / means[i]) / math.log(sigmas[j] / sigmas[i])

    return inversions <= 1 and slope(4, 5) <= 0.9 * slope(1, 2)


def check_poincare(out: Path, size: Size) -> tuple:
    """symmetry.csv: every S finite, clean row S_L, S_P < 1e-10; clean
    propagator max|Re G| < 1e-10; the criterion-7 trend only with at least
    100 realizations per sigma."""
    r = size.poincare_realizations
    _, rows = read_csv(out / "symmetry.csv")
    if [row[0] for row in rows] != list(POINCARE_SIGMAS):
        raise OutputError("symmetry.csv: unexpected sigma column")
    failed, notes = 0, []
    for sigma, sl, err_sl, sp, err_sp in rows:
        ok = _finite(sl, err_sl, sp, err_sp)
        if ok and sigma == 0.0:
            ok = sl < 1e-10 and sp < 1e-10
        if not ok:
            failed += r
            notes.append(f"sigma={sigma:g}: S_L={sl} S_P={sp}")
    _, greens = read_csv(out / "greens_re_sigma0.csv")
    re_max = max(abs(v) for row in greens for v in row)
    if len(greens) != size.n_sites or not re_max < 1e-10:
        failed += r
        notes.append(f"clean max|Re G| = {re_max}")
    if r >= STATISTICAL_MIN_REALIZATIONS:
        cols = list(zip(*rows))
        for label, means, errs in (("S_L", cols[1], cols[2]),
                                   ("S_P", cols[3], cols[4])):
            if not _trend_ok(POINCARE_SIGMAS, means, errs):
                failed += r * len(rows)
                notes.append(f"{label} noise trend fails criterion 7")
    return min(failed, r * len(rows)), notes


# -- set-up -----------------------------------------------------------------

def setup_flatband(qqft, size: Size):
    seq = qqft.circuit.build_radix2_qqft(size.grid.bit_length() - 1)
    qqft.engine.apply_noisy_sequence(seq)
    qqft.haldane.momentum_model(
        qqft.haldane.HaldaneParams(phi=-math.pi / 2, M=0.0), size.grid)


def setup_poincare(qqft, size: Size):
    seq = qqft.circuit.build_generic_qqft(size.n_sites)
    qqft.engine.apply_noisy_sequence(seq)
    qqft.poincare.build_dispersion(size.n_sites, 2)
    qqft.poincare.equivalence_classes(size.n_sites, 2)


# -- workloads ----------------------------------------------------------------

#: one BLAS thread: `flatband-gap` is the plain single-threaded baseline.
#: With two OpenBLAS threads on a two-core box its eigensolve is no faster,
#: and a call slowed up to tenfold whenever another process held a core.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable        # (seed, out, size) -> CLI argv
    realizations: Callable  # size -> realizations (cells) per call
    setup: Callable       # (qqft, size) -> None
    check: Callable       # (out, size) -> (failed, notes)
    env: dict = field(default_factory=dict)  # added to the worker's environment
    cores: Callable = lambda size: 1  # size -> cores busy, for the reference


WORKLOADS = {w.name: w for w in (
    Workload(
        "flatband-gap",
        lambda seed, out, size: [
            "flatband", "--phase-grid", "0", "--workers", "1",
            "--grid", str(size.grid),
            "--realizations", str(size.gap_realizations),
            "--seed", str(seed), "--out", str(out)],
        lambda size: len(FLAT_SIGMAS) * size.gap_realizations,
        setup_flatband, check_gap, SINGLE_THREAD),
    Workload(
        "flatband-bott",
        lambda seed, out, size: [
            "flatband", "--sigma", "", "--phase-grid", str(size.phase_grid),
            "--phase-sigma", "3e-2", "--workers", str(workers()),
            "--grid", str(size.grid),
            "--seed", str(seed), "--out", str(out)],
        lambda size: size.phase_grid ** 2,
        setup_flatband, check_bott,
        cores=lambda size: min(workers(), size.phase_grid ** 2)),
    Workload(
        "poincare",
        lambda seed, out, size: [
            "poincare", "--N", str(size.n_sites), "--gamma", "2",
            "--sigma", ",".join(f"{s:g}" for s in POINCARE_SIGMAS),
            "--workers", "1",
            "--realizations", str(size.poincare_realizations),
            "--seed", str(seed), "--out", str(out)],
        lambda size: len(POINCARE_SIGMAS) * size.poincare_realizations,
        setup_poincare, check_poincare),
)}
