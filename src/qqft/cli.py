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
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, circuit, engine, haldane, poincare

_DEF_FLAT_SIGMAS = "0,5e-4,1e-3,2.5e-3,5e-3"
_DEF_POINCARE_SIGMAS = "0,5e-3,2e-2"


def _config_digest(config: dict) -> str:
    text = json.dumps(config, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _write_csv(path: Path, digest: str, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(f"# qqft/{__version__} config={digest}\r\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])


def _write_manifest(outdir: Path, command: str, config: dict, outputs):
    digest = _config_digest(config)
    doc = {
        "schema": "qqft-run/1",
        "artifact_version": __version__,
        "command": command,
        "config": config,
        "config_digest": digest,
        "outputs": sorted(outputs),
    }
    path = outdir / "run_manifest.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _sigma_list(text: str):
    try:
        # + 0.0 turns -0 into 0, so that the two count as one sigma
        sigmas = [float(s) + 0.0 for s in text.split(",") if s.strip() != ""]
    except ValueError as exc:
        raise SystemExit(f"error: --sigma: {exc}") from None
    if not all(math.isfinite(s) and s >= 0 for s in sigmas):
        raise SystemExit("error: --sigma values must be finite and >= 0")
    # output file names carry the tag, so two sigmas must not share one
    if len({_sigma_tag(s) for s in sigmas}) < len(sigmas):
        raise SystemExit("error: --sigma values must differ in their first "
                         "6 significant digits")
    return sigmas


def _sigma_tag(sigma: float) -> str:
    return f"{sigma:g}".replace(".", "p").replace("-", "m")


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------

def cmd_compile(args) -> int:
    if args.n is not None:
        if args.n < 1:
            raise SystemExit("error: --n must be >= 1")
        seq = circuit.build_radix2_qqft(args.n)
        scaling = "N log N"
        name = f"seq_radix2_n{args.n}.json"
    else:
        if args.N < 2:
            raise SystemExit("error: --N must be >= 2")
        seq = circuit.build_generic_qqft(args.N)
        scaling = "N^2"
        name = f"seq_generic_N{args.N}.json"
    config = {"command": "compile", "n": args.n, "N": args.N}
    digest = _config_digest(config)
    doc = json.loads(circuit.sequence_to_json(seq))
    doc["artifact_version"] = __version__
    doc["config_digest"] = digest
    out = _outdir(args)
    path = out / name
    path.write_text(json.dumps(doc, indent=1) + "\n")
    _write_manifest(out, "compile", config, [name])
    print(f"n_sites={seq.n_sites} depth={seq.depth} gates={len(seq.gates)} "
          f"scaling=D~{scaling}")
    print(f"wrote {path}")
    return 0


def cmd_verify(args) -> int:
    try:
        seq = circuit.sequence_from_json(Path(args.sequence).read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: {args.sequence}: {exc}") from None
    U = circuit.sequence_to_unitary(seq)
    err = circuit.dft_distance(U, seq.n_sites)
    ok = err < args.tol
    print(f"{'PASS' if ok else 'FAIL'} max|U - DFT| = {err:.3e} "
          f"(tol {args.tol:g}, N={seq.n_sites}, depth={seq.depth})")
    return 0 if ok else 1


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _require_at_least(least, args, *names):
    for name in names:
        if getattr(args, name) < least:
            raise SystemExit(f"error: {_flag(name)} must be >= {least}")


def _require_finite(args, *names):
    for name in names:
        if not np.isfinite(getattr(args, name)).all():
            raise SystemExit(f"error: {_flag(name)} must be finite")


def cmd_flatband(args) -> int:
    _require_at_least(1, args, "realizations", "phase_realizations", "workers")
    _require_at_least(2, args, "grid")
    _require_at_least(0, args, "phase_grid")
    sigmas = _sigma_list(args.sigma)
    if not (math.isfinite(args.phase_sigma) and args.phase_sigma >= 0):
        raise SystemExit("error: --phase-sigma must be finite and >= 0")
    _require_finite(args, "phi", "M", "phi_range", "m_range")
    params = haldane.HaldaneParams(phi=args.phi, M=args.M)
    dim = haldane.momentum_model(params, args.grid).dim
    if dim > engine.MAX_DIM:
        raise SystemExit(f"error: --grid {args.grid} gives evolution dimension "
                         f"{dim}, which exceeds {engine.MAX_DIM}")
    config = {
        "command": "flatband", "phi": args.phi, "M": args.M,
        "sigmas": sigmas, "realizations": args.realizations,
        "grid": args.grid, "seed": args.seed,
        "noise_on_diagonal": args.noise_on_diagonal,
        "phase_grid": args.phase_grid, "phase_sigma": args.phase_sigma,
        "phase_realizations": args.phase_realizations,
        "phi_range": args.phi_range, "m_range": args.m_range,
    }
    out = _outdir(args)
    digest = _config_digest(config)
    outputs = []

    points = haldane.noise_sweep_gap_width(
        params, sigmas, args.realizations, args.seed, grid=args.grid,
        workers=args.workers, noise_on_diagonal=args.noise_on_diagonal,
    )
    rows = [(p.sigma, p.mean("gap"), p.mean("width"), p.stderr("gap"),
             p.stderr("width")) for p in points]
    _write_csv(out / "gap_width.csv", digest,
               ["sigma", "mean_gap", "mean_width", "stderr_gap", "stderr_width"],
               rows)
    outputs.append("gap_width.csv")
    for p in points:
        gap, width = p.mean("gap"), p.mean("width")
        print(f"sigma={p.sigma:g}: G={gap:.6g} W={width:.6g} "
              f"W/G={width / gap:.4f}")

    if args.phase_grid > 0:
        phis = np.linspace(args.phi_range[0], args.phi_range[1],
                           args.phase_grid)
        ms = np.linspace(args.m_range[0], args.m_range[1], args.phase_grid)
        cells = haldane.phase_diagram(
            phis, ms, args.phase_sigma, args.seed, grid=args.grid,
            realizations=args.phase_realizations, workers=args.workers,
        )
        _write_csv(out / "phase_diagram.csv", digest,
                   ["phi", "M", "bott", "chern"], cells)
        outputs.append("phase_diagram.csv")
        print(f"phase diagram: {len(cells)} cells at sigma={args.phase_sigma:g}")

    _write_manifest(out, "flatband", config, outputs)
    print(f"wrote {out}")
    return 0


def cmd_poincare(args) -> int:
    _require_at_least(1, args, "realizations", "workers")
    _require_at_least(2, args, "N", "gamma")
    sigmas = _sigma_list(args.sigma)
    try:
        disp = poincare.build_dispersion(args.N, args.gamma)
    except poincare.DispersionError as exc:
        raise SystemExit(f"error: {exc}") from None
    config = {
        "command": "poincare", "N": args.N, "gamma": args.gamma,
        "sigmas": sigmas, "realizations": args.realizations,
        "seed": args.seed, "noise_on_diagonal": args.noise_on_diagonal,
    }
    out = _outdir(args)
    digest = _config_digest(config)
    outputs = []

    lattice = poincare.equivalence_classes(args.N, args.gamma)
    doc = {
        "schema": "qqft-dispersion/1",
        "artifact_version": __version__,
        "config_digest": digest,
        "n_sites": disp.n_sites,
        "gamma": disp.gamma,
        "tau": disp.tau,
        "j": list(disp.j_table),
        "n_classes": len(lattice.classes),
    }
    (out / "dispersion.json").write_text(json.dumps(doc, indent=1) + "\n")
    outputs.append("dispersion.json")

    # the propagators are the sweep's realization 0: stream 0 at every sigma
    points, greens = poincare.noise_sweep_symmetry(
        disp, lattice, sigmas, args.realizations, args.seed,
        workers=args.workers, noise_on_diagonal=args.noise_on_diagonal)
    for sigma, g in greens.items():
        for part, array in (("re", g.real), ("im", g.imag)):
            name = f"greens_{part}_sigma{_sigma_tag(sigma)}.csv"
            # rows are the site offset n, columns the stroboscopic time m
            _write_csv(out / name, digest,
                       [f"m{m}" for m in range(args.N)], array.tolist())
            outputs.append(name)

    rows = [(p.sigma, p.mean("sl"), p.stderr("sl"), p.mean("sp"),
             p.stderr("sp")) for p in points]
    _write_csv(out / "symmetry.csv", digest,
               ["sigma", "mean_SL", "stderr_SL", "mean_SP", "stderr_SP"], rows)
    outputs.append("symmetry.csv")
    for p in points:
        print(f"sigma={p.sigma:g}: S_L={p.mean('sl'):.6g} "
              f"S_P={p.mean('sp'):.6g}")

    _write_manifest(out, "poincare", config, outputs)
    print(f"wrote {out}")
    return 0


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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
