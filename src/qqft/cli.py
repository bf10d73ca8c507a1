"""Reproducible experiment runner.

Subcommands
    compile    write a compiled sequence as qqft-seq/1 JSON and report depth
    verify     recompose a sequence file and check it against the DFT
    flatband   gap/width noise sweep and Bott/Chern phase diagram (CSV)
    poincare   propagator matrices, dispersion table and S_L/S_P sweep (CSV)

Every output embeds the artifact version and a digest of the run
configuration; rerunning a command with the same configuration and seed
reproduces every output byte-exactly (files carry no timestamps, and worker
counts never change numeric results).

The library owns the bounds of its inputs: each command builds its library
objects and runs its sweeps first, and `_reported` turns what they raise on
bad input into one `error:` line.  Only then does `_Run` create the output
directory, so a run that fails leaves none.  The CLI checks only what no
library call sees before the work starts: `--workers`, the phase diagram's
`--phase-grid` and `--phase-realizations` (the diagram starts after the
whole gap sweep), `--tol`, the sigma text and its file tags, and the size
of a compiled or verified sequence.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, circuit, engine, haldane, poincare

_DEF_FLAT_SIGMAS = "0,5e-4,1e-3,2.5e-3,5e-3"
_DEF_POINCARE_SIGMAS = "0,5e-3,2e-2"


def _sigma_list(text: str):
    try:
        # + 0.0 turns -0 into 0, so that the two count as one sigma
        sigmas = [float(s) + 0.0 for s in text.split(",") if s.strip() != ""]
    except ValueError as exc:
        raise SystemExit(f"error: --sigma: {exc}") from None
    # output file names carry the tag, so two sigmas must not share one
    if len({_sigma_tag(s) for s in sigmas}) < len(sigmas):
        raise SystemExit("error: --sigma values must differ in their first "
                         "6 significant digits")
    return sigmas


def _sigma_tag(sigma: float) -> str:
    return f"{sigma:g}".replace(".", "p").replace("-", "m")


# least value of each argument that no library call checks before the work
# starts; one that a command does not take is not checked
_LEAST = {"workers": 1, "phase_grid": 0, "phase_realizations": 1}


@contextmanager
def _reported(where: str = ""):
    """Turn what the library raises on bad input, a ValueError (such as
    SingularPointError or DispersionError) or an OSError, into the one
    `error:` line, with `where` before its message."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: {where}{exc}") from None


class _Run:
    """The output directory of one run, created once its results are in.

    Its config is every parsed argument that can change an output (all but
    `--out` and `--workers`), with parsed values such as `sigmas` in place
    of their text; each file written through it is listed in the manifest.
    """

    def __init__(self, args, **parsed):
        self.config = {k: v for k, v in vars(args).items()
                       if k not in ("func", "out", "workers", "sigma")}
        self.config.update(parsed)
        text = json.dumps(self.config, sort_keys=True)
        self.digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        self.dir = Path(args.out)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.outputs = []

    def write_json(self, name: str, doc: dict) -> Path:
        path = self.dir / name
        path.write_text(json.dumps(doc, indent=1) + "\n")
        self.outputs.append(name)
        return path

    def write_csv(self, name: str, header, rows):
        """Write a CSV of plain names, numbers and None (an empty cell),
        none of which the excel dialect quotes: joined as `csv.writer`
        prints them, without its overhead per cell.  `str`, not `repr`:
        a numpy float's repr names its type."""
        with open(self.dir / name, "w", newline="") as fh:
            fh.write(f"# qqft/{__version__} config={self.digest}\r\n")
            fh.write(",".join(header) + "\r\n")
            for row in rows:
                fh.write(",".join("" if v is None else str(v) for v in row)
                         + "\r\n")
        self.outputs.append(name)

    def finish(self, shown) -> int:
        """Write run_manifest.json, print `wrote <shown>` and return 0."""
        doc = {
            "schema": "qqft-run/1",
            "artifact_version": __version__,
            "command": self.config["command"],
            "config": self.config,
            "config_digest": self.digest,
            "outputs": sorted(self.outputs),
        }
        (self.dir / "run_manifest.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {shown}")
        return 0


# ---------------------------------------------------------------------------

def cmd_compile(args) -> int:
    # at most engine.MAX_DIM sites, which `verify` recomposes; 2^n > MAX_DIM
    # exactly when n >= MAX_DIM.bit_length(), so 2^n is never formed
    if args.n is not None and args.n >= engine.MAX_DIM.bit_length():
        raise SystemExit(f"error: --n {args.n} gives 2^{args.n} sites, which "
                         f"exceeds {engine.MAX_DIM}")
    if args.N is not None and args.N > engine.MAX_DIM:
        raise SystemExit(f"error: --N {args.N} exceeds {engine.MAX_DIM} sites")
    with _reported():
        if args.n is not None:
            seq = circuit.build_radix2_qqft(args.n)
            scaling = "N log N"
            name = f"seq_radix2_n{args.n}.json"
        else:
            seq = circuit.build_generic_qqft(args.N)
            scaling = "N^2"
            name = f"seq_generic_N{args.N}.json"
    run = _Run(args)
    doc = json.loads(circuit.sequence_to_json(seq))
    doc.update(artifact_version=__version__, config_digest=run.digest)
    path = run.write_json(name, doc)
    print(f"n_sites={seq.n_sites} depth={seq.depth} gates={len(seq.gates)} "
          f"scaling=D~{scaling}")
    return run.finish(path)


def cmd_verify(args) -> int:
    if not math.isfinite(args.tol):
        raise SystemExit("error: --tol must be finite")
    with _reported(f"{args.sequence}: "):
        seq = circuit.sequence_from_json(Path(args.sequence).read_text())
    if seq.n_sites > engine.MAX_DIM:
        raise SystemExit(f"error: {args.sequence}: {seq.n_sites} sites "
                         f"exceed {engine.MAX_DIM}")
    err = circuit.dft_distance(circuit.sequence_to_unitary(seq))
    ok = err < args.tol
    print(f"{'PASS' if ok else 'FAIL'} max|U - DFT| = {err:.3e} "
          f"(tol {args.tol:g}, N={seq.n_sites}, depth={seq.depth})")
    return 0 if ok else 1


def cmd_flatband(args) -> int:
    sigmas = _sigma_list(args.sigma)
    with _reported():
        # every object first, so that bad input fails before a sweep runs;
        # the ends of the ranges too, which the manifest records even when
        # no diagram is drawn
        params = haldane.HaldaneParams(phi=args.phi, M=args.M)
        noise = engine.NoiseModel(sigmas, args.seed, diagonal=args.noise_on_diagonal)
        phase_noise = replace(noise, sigma=args.phase_sigma)
        for end in zip(args.phi_range, args.m_range):
            haldane.HaldaneParams(*end)
        points = haldane.noise_sweep_gap_width(
            params, noise, args.realizations, grid=args.grid,
            workers=args.workers)
        if args.phase_grid > 0:
            phis = np.linspace(*args.phi_range, args.phase_grid)
            ms = np.linspace(*args.m_range, args.phase_grid)
            cells = haldane.phase_diagram(
                phis, ms, phase_noise, grid=args.grid,
                realizations=args.phase_realizations, workers=args.workers)
    run = _Run(args, sigmas=sigmas)

    rows = [(p.sigma, p.mean("gap"), p.mean("width"), p.stderr("gap"),
             p.stderr("width")) for p in points]
    run.write_csv("gap_width.csv",
                  ["sigma", "mean_gap", "mean_width", "stderr_gap",
                   "stderr_width"], rows)
    for p in points:
        gap, width = p.mean("gap"), p.mean("width")
        print(f"sigma={p.sigma:g}: G={gap:.6g} W={width:.6g} "
              f"W/G={width / gap:.4f}")

    if args.phase_grid > 0:
        run.write_csv("phase_diagram.csv", ["phi", "M", "bott", "chern"], cells)
        print(f"phase diagram: {len(cells)} cells at sigma={args.phase_sigma:g}")

    return run.finish(run.dir)


def cmd_poincare(args) -> int:
    sigmas = _sigma_list(args.sigma)
    with _reported():
        disp = poincare.build_dispersion(args.N, args.gamma)
        # the propagators are the sweep's realization 0: stream 0 at every sigma
        noise = engine.NoiseModel(sigmas, args.seed, diagonal=args.noise_on_diagonal)
        points, greens = poincare.noise_sweep_symmetry(
            disp, noise, args.realizations, workers=args.workers)
    run = _Run(args, sigmas=sigmas)

    run.write_json("dispersion.json", {
        "schema": "qqft-dispersion/1",
        "artifact_version": __version__,
        "config_digest": run.digest,
        "n_sites": disp.n_sites,
        "gamma": disp.gamma,
        "tau": 1.0,  # the period, the unit of time of every propagator
        "j": list(disp.j_table),
        "n_classes": len(disp.lattice.classes),
    })
    for sigma, g in greens.items():
        for part, array in (("re", g.real), ("im", g.imag)):
            # rows are the site offset n, columns the stroboscopic time m
            run.write_csv(f"greens_{part}_sigma{_sigma_tag(sigma)}.csv",
                          [f"m{m}" for m in range(args.N)], array.tolist())

    rows = [(p.sigma, p.mean("sl"), p.stderr("sl"), p.mean("sp"),
             p.stderr("sp")) for p in points]
    run.write_csv("symmetry.csv",
                  ["sigma", "mean_SL", "stderr_SL", "mean_SP", "stderr_SP"],
                  rows)
    for p in points:
        print(f"sigma={p.sigma:g}: S_L={p.mean('sl'):.6g} "
              f"S_P={p.mean('sp'):.6g}")

    return run.finish(run.dir)


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qqft",
        description="Nearest-neighbor Fourier compiler and Hamiltonian-"
                    "engineering experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compile", help="compile a Fourier sequence")
    size = pc.add_mutually_exclusive_group(required=True)
    size.add_argument("--n", type=int, help="radix-2 size exponent, N = 2^n")
    size.add_argument("--N", type=int, help="arbitrary size (Givens route)")
    pc.add_argument("--out", default=".", help="output directory")
    pc.set_defaults(func=cmd_compile)

    pv = sub.add_parser("verify", help="check a sequence file against the DFT")
    pv.add_argument("sequence", help="qqft-seq/1 JSON file")
    pv.add_argument("--tol", type=float, default=1e-10)
    pv.set_defaults(func=cmd_verify)

    pf = sub.add_parser("flatband", help="flat Chern band experiment")
    pf.add_argument("--phi", type=float, default=-np.pi / 2)
    pf.add_argument("--M", type=float, default=0.0)
    pf.add_argument("--sigma", default=_DEF_FLAT_SIGMAS,
                    help="comma-separated noise strengths")
    pf.add_argument("--realizations", type=int, default=100)
    pf.add_argument("--grid", type=int, default=16,
                    help="Brillouin-zone grid size per dimension")
    pf.add_argument("--phase-grid", type=int, default=32,
                    help="phase-diagram cells per axis (0 skips the diagram)")
    pf.add_argument("--phase-sigma", type=float, default=3e-2)
    pf.add_argument("--phase-realizations", type=int, default=1)
    pf.add_argument("--phi-range", type=float, nargs=2,
                    default=(-np.pi, np.pi))
    pf.add_argument("--m-range", type=float, nargs=2, default=(-6.0, 6.0))
    pf.set_defaults(func=cmd_flatband)

    pp = sub.add_parser("poincare", help="spacetime-crystal experiment")
    pp.add_argument("--N", type=int, default=33)
    pp.add_argument("--gamma", type=int, default=2)
    pp.add_argument("--sigma", default=_DEF_POINCARE_SIGMAS,
                    help="comma-separated noise strengths")
    pp.add_argument("--realizations", type=int, default=100)
    pp.set_defaults(func=cmd_poincare)

    for p in (pf, pp):
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--out", default="qqft-out")
        p.add_argument("--workers", type=int, default=1,
                       help="parallel worker processes; never changes results")
        p.add_argument("--noise-on-diagonal", action="store_true",
                       help="also apply one noise draw to the diagonal step")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for name, least in _LEAST.items():
        if getattr(args, name, least) < least:
            raise SystemExit(f"error: --{name.replace('_', '-')} must be "
                             f">= {least}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
