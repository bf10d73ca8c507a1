import argparse
import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from qqft import __version__, circuit, engine, poincare
from qqft.cli import _Run, main


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith(f"# qqft/{__version__} config=")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:] if line]
    return header, rows


class TestCompile:
    def test_radix2(self, tmp_path, capsys):
        assert main(["compile", "--n", "5", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "depth=106" in out
        assert "N log N" in out
        doc = json.loads((tmp_path / "seq_radix2_n5.json").read_text())
        assert doc["schema"] == "qqft-seq/1"
        assert doc["n_sites"] == 32
        assert doc["artifact_version"] == __version__
        assert "config_digest" in doc

    def test_generic(self, tmp_path, capsys):
        assert main(["compile", "--N", "33", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "N^2" in out
        seq = circuit.sequence_from_json(
            (tmp_path / "seq_generic_N33.json").read_text())
        assert seq.depth <= 2 * 33 * 33

    def test_invalid_size_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["compile", "--n", "0", "--out", str(tmp_path)])

    def test_manifest_written(self, tmp_path):
        main(["compile", "--n", "2", "--out", str(tmp_path)])
        doc = json.loads((tmp_path / "run_manifest.json").read_text())
        assert doc["schema"] == "qqft-run/1"
        assert doc["outputs"] == ["seq_radix2_n2.json"]


class TestVerify:
    def test_compiled_sequences_pass(self, tmp_path, capsys):
        for flag, val, name in [("--n", "4", "seq_radix2_n4.json"),
                                ("--N", "6", "seq_generic_N6.json"),
                                ("--N", "33", "seq_generic_N33.json")]:
            main(["compile", flag, val, "--out", str(tmp_path)])
            assert main(["verify", str(tmp_path / name)]) == 0
            assert "PASS" in capsys.readouterr().out

    def test_corrupted_gate_fails(self, tmp_path, capsys):
        main(["compile", "--n", "3", "--out", str(tmp_path)])
        path = tmp_path / "seq_radix2_n3.json"
        doc = json.loads(path.read_text())
        for gate in doc["gates"]:
            if gate["kind"] == "mix":
                gate["theta"] += 1e-3
                break
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("text,message", [
        (None, "No such file"),
        ("{not json", "Expecting property name"),
        ('{"schema": "qqft-seq/1", "n_sites": 2}', "no key 'gates'"),
        ('{"schema": "qqft-seq/9", "n_sites": 2, "gates": []}',
         "unsupported sequence schema"),
        ('{"schema": "qqft-seq/1", "n_sites": 2, "gates": '
         '[{"kind": "swap", "site": 1}]}', "does not fit on 2 sites"),
        ('{"schema": "qqft-seq/1", "n_sites": 3, "gates": '
         '[{"kind": "mix", "site": 0, "theta": 0.3}, '
         '{"kind": "mix", "site": 1, "theta": 0.5, "layer": -1}]}',
         "layer must be an integer >= 0, got -1")])
    def test_bad_file_is_one_error_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "seq.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(SystemExit, match=f"^error: {path}: .*{message}"):
            main(["verify", str(path)])
        assert capsys.readouterr().out == ""

    def test_oversized_sequence_is_one_error_line(self, tmp_path, capsys):
        # composing 200000 sites would allocate hundreds of GB
        path = tmp_path / "seq.json"
        path.write_text('{"schema": "qqft-seq/1", "n_sites": 200000, "gates": []}')
        with pytest.raises(SystemExit,
                           match=f"^error: {path}: 200000 sites exceed 4096$"):
            main(["verify", str(path)])
        assert capsys.readouterr().out == ""


FLAT_ARGS = ["flatband", "--grid", "4", "--realizations", "4",
             "--sigma", "0,2e-3", "--phase-grid", "2", "--seed", "7"]


class TestFlatband:
    def test_outputs(self, tmp_path, capsys):
        assert main(FLAT_ARGS + ["--out", str(tmp_path)]) == 0
        header, rows = read_rows(tmp_path / "gap_width.csv")
        assert header == ["sigma", "mean_gap", "mean_width",
                          "stderr_gap", "stderr_width"]
        assert len(rows) == 2
        # noiseless row: flat band with gap 2 * 2 pi
        assert float(rows[0][2]) < 1e-9
        assert float(rows[0][1]) == pytest.approx(4 * np.pi, abs=1e-9)
        header, cells = read_rows(tmp_path / "phase_diagram.csv")
        assert header == ["phi", "M", "bott", "chern"]
        assert len(cells) == 4
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert sorted(manifest["outputs"]) == ["gap_width.csv",
                                               "phase_diagram.csv"]

    def test_every_cell_parses_as_a_number(self, tmp_path):
        # phi and M are numpy floats: a cell holds the number, not its repr
        main(FLAT_ARGS + ["--out", str(tmp_path)])
        for name in ("gap_width.csv", "phase_diagram.csv"):
            with open(tmp_path / name, newline="") as fh:
                fh.readline()
                header, *rows = csv.reader(fh)
            assert rows and all(len(row) == len(header) for row in rows)
            for v in (v for row in rows for v in row if v != ""):
                float(v)            # raises on anything but a number
        _, cells = read_rows(tmp_path / "phase_diagram.csv")
        phis, ms = np.linspace(-np.pi, np.pi, 2), np.linspace(-6.0, 6.0, 2)
        assert [(float(c[0]), float(c[1])) for c in cells] == \
            [(phi, m) for phi in phis for m in ms]
        assert all(c[3] == "" or int(c[3]) in (-1, 0, 1) for c in cells)

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(FLAT_ARGS + ["--out", str(a)])
        main(FLAT_ARGS + ["--out", str(b)])
        for name in ("gap_width.csv", "phase_diagram.csv",
                     "run_manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_workers_do_not_change_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(FLAT_ARGS + ["--out", str(a), "--workers", "1"])
        main(FLAT_ARGS + ["--out", str(b), "--workers", "4"])
        for name in ("gap_width.csv", "phase_diagram.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("flag", ["--realizations", "--phase-realizations"])
    def test_zero_realizations_is_usage_error(self, tmp_path, flag):
        # the gap sweep checks its count; the CLI checks the phase diagram's
        message = {"--realizations": "n_realizations must be an integer >= 1",
                   "--phase-realizations": "--phase-realizations must be >= 1"}
        with pytest.raises(SystemExit, match=f"error: {message[flag]}"):
            main(FLAT_ARGS + ["--out", str(tmp_path), flag, "0"])
        assert not (tmp_path / "run_manifest.json").exists()

    def test_empty_sigma_list_runs(self, tmp_path):
        args = ["flatband", "--grid", "4", "--sigma", "", "--phase-grid", "2",
                "--seed", "7", "--out", str(tmp_path)]
        assert main(args) == 0
        _, rows = read_rows(tmp_path / "gap_width.csv")
        assert rows == []
        _, cells = read_rows(tmp_path / "phase_diagram.csv")
        assert len(cells) == 4

    def test_boundary_cell_counts_as_closed_gap(self, tmp_path, capsys):
        # M = 3 at phi = pi/2 is a phase boundary, and the 6 x 6 grid holds
        # the point where d vanishes: the model cannot be flattened, so every
        # member of the cell's block raises and each counts
        for r in (1, 3):
            out = tmp_path / str(r)
            args = ["flatband", "--grid", "6", "--sigma", "", "--phase-grid", "1",
                    "--phi-range", "1.5707963267948966", "1.5707963267948966",
                    "--m-range", "3", "3", "--phase-realizations", str(r),
                    "--out", str(out)]
            assert main(args) == 0
            _, cells = read_rows(out / "phase_diagram.csv")
            assert len(cells) == 1 and cells[0][2] == "nan" and cells[0][3] == ""
            assert capsys.readouterr().err.splitlines() == [
                f"phase diagram: gap closed in {r} of {r} realizations at "
                "phi=1.5708, M=3"]

    def test_noise_on_diagonal_flag(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(FLAT_ARGS + ["--out", str(a)])
        main(FLAT_ARGS + ["--out", str(b), "--noise-on-diagonal"])
        ra = read_rows(a / "gap_width.csv")[1]
        rb = read_rows(b / "gap_width.csv")[1]
        assert ra[0] == rb[0]          # noiseless row unaffected
        assert ra[1] != rb[1]          # noisy row differs

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_noise_on_diagonal_reaches_phase_diagram(self, tmp_path, workers):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["flatband", "--grid", "4", "--sigma", "0", "--realizations",
                "1", "--phase-grid", "2", "--phase-sigma", "0.05",
                "--workers", workers]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b), "--noise-on-diagonal"])
        header_a, cells_a = read_rows(a / "phase_diagram.csv")
        header_b, cells_b = read_rows(b / "phase_diagram.csv")
        assert header_a == header_b and len(cells_a) == len(cells_b) == 4
        assert [(c[0], c[1], c[3]) for c in cells_a] == \
            [(c[0], c[1], c[3]) for c in cells_b]
        # the Bott means move in their last digits when the diagonal draws
        assert [c[2] for c in cells_a] != [c[2] for c in cells_b]

    def test_minus_zero_runs_as_zero(self, tmp_path):
        args = ["flatband", "--grid", "4", "--realizations", "2",
                "--phase-grid", "0", "--out", str(tmp_path)]
        main(args + ["--sigma=-0"])
        _, rows = read_rows(tmp_path / "gap_width.csv")
        assert [row[0] for row in rows] == ["0.0"]
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert str(manifest["config"]["sigmas"]) == "[0.0]"


POIN_ARGS = ["poincare", "--N", "6", "--gamma", "2", "--realizations", "4",
             "--sigma", "0,5e-3,2e-2", "--seed", "3"]


class TestPoincare:
    def test_outputs(self, tmp_path):
        assert main(POIN_ARGS + ["--out", str(tmp_path)]) == 0
        disp = json.loads((tmp_path / "dispersion.json").read_text())
        assert disp["schema"] == "qqft-dispersion/1"
        assert len(disp["j"]) == 6
        # one real + one imaginary matrix per sigma
        for tag in ("0", "0p005", "0p02"):
            for part in ("re", "im"):
                assert (tmp_path / f"greens_{part}_sigma{tag}.csv").exists()
        _, rows = read_rows(tmp_path / "symmetry.csv")
        assert len(rows) == 3
        assert float(rows[0][1]) < 1e-10       # S_L at sigma = 0
        assert float(rows[0][3]) == 0.0        # S_P at sigma = 0
        # noiseless propagator is purely imaginary
        _, re_rows = read_rows(tmp_path / "greens_re_sigma0.csv")
        re_vals = np.array([[float(v) for v in row] for row in re_rows])
        assert np.abs(re_vals).max() < 1e-10

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(POIN_ARGS + ["--out", str(a)])
        main(POIN_ARGS + ["--out", str(b)])
        for name in ("symmetry.csv", "greens_im_sigma0p02.csv",
                     "dispersion.json", "run_manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_workers_do_not_change_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(POIN_ARGS + ["--out", str(a), "--workers", "1"])
        main(POIN_ARGS + ["--out", str(b), "--workers", "3"])
        assert (a / "symmetry.csv").read_bytes() == \
            (b / "symmetry.csv").read_bytes()

    def test_noise_on_diagonal_reaches_symmetry(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(POIN_ARGS + ["--out", str(a)])
        main(POIN_ARGS + ["--out", str(b), "--noise-on-diagonal"])
        ra = read_rows(a / "symmetry.csv")[1]
        rb = read_rows(b / "symmetry.csv")[1]
        assert ra[0] == rb[0]          # sigma = 0 row unaffected
        assert ra[1] != rb[1] and ra[2] != rb[2]

    def test_zero_realizations_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit,
                           match="error: n_realizations must be an integer >= 1"):
            main(POIN_ARGS + ["--out", str(tmp_path), "--realizations", "0"])

    def test_minus_zero_runs_as_zero(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["poincare", "--N", "6", "--realizations", "2", "--seed", "3"]
        main(args + ["--sigma=-0,1e-2", "--out", str(a)])
        main(args + ["--sigma", "0,1e-2", "--out", str(b)])
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        assert "greens_re_sigmam0.csv" not in names
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()
        assert read_rows(a / "symmetry.csv")[1][0][0] == "0.0"

    @pytest.mark.parametrize("sigma", ["0,5e-3,2e-2", "1e-3,0", "5e-3"])
    def test_one_greens_call_per_block(self, tmp_path, monkeypatch, sigma):
        # the Green's files and the zero sigma come from realization 0: one
        # clean call for the reference of s_total, then one call per block
        # of four consecutive realizations, each one column
        calls = []
        greens = poincare.greens_function

        def spy(disp, block=engine.NOISELESS):
            calls.append(block)
            return greens(disp, block)

        monkeypatch.setattr(poincare, "greens_function", spy)
        main(["poincare", "--N", "6", "--realizations", "5", "--sigma", sigma,
              "--seed", "3", "--out", str(tmp_path)])
        sigmas = tuple(float(s) for s in sigma.split(","))
        nonzero = tuple(s for s in sigmas if s != 0)
        columns = [poincare.NoiseModel(sigmas, 3)] + [
            poincare.NoiseModel(nonzero, 3, stream_id=r) for r in range(1, 5)]
        assert calls == [engine.NOISELESS, columns[:4], columns[4:]]

    def test_empty_sigma_list_writes_empty_symmetry(self, tmp_path):
        assert main(["poincare", "--N", "6", "--realizations", "2",
                     "--sigma", "", "--out", str(tmp_path)]) == 0
        header, rows = read_rows(tmp_path / "symmetry.csv")
        assert header[0] == "sigma" and rows == []
        assert not list(tmp_path.glob("greens_*"))

    def test_greens_csv_matches_one_sigma_at_a_time(self, tmp_path):
        main(POIN_ARGS + ["--out", str(tmp_path), "--noise-on-diagonal"])
        disp = poincare.build_dispersion(6, 2)
        for tag, block in (("0", engine.NOISELESS),
                           ("0p02", [poincare.NoiseModel(2e-2, 3, diagonal=True)])):
            G = next(poincare.greens_function(disp, block)).matrix
            for part, array in (("re", G.real), ("im", G.imag)):
                _, rows = read_rows(tmp_path / f"greens_{part}_sigma{tag}.csv")
                written = np.array([[float(v) for v in row] for row in rows])
                assert written.tobytes() == array.tobytes()


# every parsed argument but --out and --workers, with sigmas for --sigma
CONFIG_KEYS = {
    "compile": {"command", "n", "N"},
    "flatband": {"command", "phi", "M", "sigmas", "realizations", "grid",
                 "seed", "noise_on_diagonal", "phase_grid", "phase_sigma",
                 "phase_realizations", "phi_range", "m_range"},
    "poincare": {"command", "N", "gamma", "sigmas", "realizations", "seed",
                 "noise_on_diagonal"},
}
RUN_ARGS = {"compile": ["compile", "--n", "3"], "flatband": FLAT_ARGS,
            "poincare": POIN_ARGS}


class TestWriteCsv:
    def test_bytes_match_csv_writer(self, tmp_path):
        header = ["a", "b", "c", "d"]
        rows = [(0.1, np.float64(-np.pi), 3, None),
                (-0.0, float("nan"), float("inf"), 5e-324),
                (np.float64(-0.0), np.float64(np.nan), -np.inf, np.int64(-7)),
                (None, None, 1e22, np.float64(1e-7))]
        run = _Run(argparse.Namespace(command="test", out=str(tmp_path)))
        run.write_csv("joined.csv", header, rows)
        with open(tmp_path / "writer.csv", "w", newline="") as fh:
            fh.write(f"# qqft/{__version__} config={run.digest}\r\n")
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow(["" if v is None else v for v in row])
        assert (tmp_path / "joined.csv").read_bytes() == \
            (tmp_path / "writer.csv").read_bytes()
        assert run.outputs == ["joined.csv"]


class TestManifest:
    @pytest.mark.parametrize("command", RUN_ARGS)
    def test_config_keys(self, tmp_path, command):
        main(RUN_ARGS[command] + ["--out", str(tmp_path)])
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert set(manifest["config"]) == CONFIG_KEYS[command]
        assert manifest["command"] == command
        for name in manifest["outputs"]:
            assert manifest["config_digest"] in (tmp_path / name).read_text()

    @pytest.mark.parametrize("command", RUN_ARGS)
    def test_same_manifest_for_any_workers_and_out(self, tmp_path, command):
        a, b = tmp_path / "a", tmp_path / "b"
        workers = ([], []) if command == "compile" else \
            (["--workers", "1"], ["--workers", "3"])
        main(RUN_ARGS[command] + workers[0] + ["--out", str(a)])
        main(RUN_ARGS[command] + workers[1] + ["--out", str(b)])
        assert (a / "run_manifest.json").read_bytes() == \
            (b / "run_manifest.json").read_bytes()


class TestBadInput:
    """Bad input fails with one clear line before any output is written."""

    # a case whose message once named the flag, before the library owned
    # its bound, keeps the id it had then
    @pytest.mark.parametrize("args,message", [
        pytest.param(["poincare", "--N", "0"], "N must be an integer >= 1, got 0",
                     id="args0---N must be >= 2"),
        pytest.param(["poincare", "--N", "1"],
                     "no nontrivial Lorentz-compatible dispersion for N=1",
                     id="args1---N must be >= 2"),
        (["poincare", "--N", "4"], "no nontrivial Lorentz-compatible dispersion"),
        pytest.param(["poincare", "--gamma", "1"],
                     "gamma must be an integer >= 2, got 1",
                     id="args3---gamma must be >= 2"),
        pytest.param(["poincare", "--sigma", "nan"], "sigma must be finite and >= 0",
                     id="args4---sigma values must be finite"),
        (["poincare", "--sigma", "1e-3,abc"], "--sigma: could not convert"),
        pytest.param(["poincare", "--sigma", "0,-1e-3"],
                     "sigma must be finite and >= 0",
                     id="args6---sigma values must be finite and >= 0"),
        (["poincare", "--workers", "0"], "--workers must be >= 1"),
        (["poincare", "--workers", "-3"], "--workers must be >= 1"),
        (["flatband", "--workers", "0"], "--workers must be >= 1"),
        (["flatband", "--workers", "-3"], "--workers must be >= 1"),
        (["flatband", "--phase-grid", "-1"], "--phase-grid must be >= 0"),
        pytest.param(["flatband", "--grid", "1"],
                     "grid must be an integer >= 2, got 1",
                     id="args12---grid must be >= 2"),
        pytest.param(["flatband", "--sigma", "inf"], "sigma must be finite and >= 0",
                     id="args13---sigma values must be finite"),
        pytest.param(["flatband", "--phase-sigma", "nan"],
                     "sigma must be finite and >= 0, .* got nan",
                     id="args14---phase-sigma must be finite"),
        (["poincare", "--sigma", "0,0"], "--sigma values must differ"),
        (["poincare", "--sigma", "1e-3,0.001"], "--sigma values must differ"),
        (["flatband", "--sigma", "0.001,0.0010000001"], "--sigma values must differ"),
        pytest.param(["flatband", "--grid", "46"],
                     "grid=46 gives evolution dimension 4232, which exceeds 4096",
                     id="args18-exceeds"),
        pytest.param(["flatband", "--phi", "nan"],
                     "parameters must be finite: HaldaneParams\\(phi=nan",
                     id="args19---phi must be finite"),
        pytest.param(["flatband", "--M", "inf"],
                     "parameters must be finite: .*M=inf",
                     id="args20---M must be finite"),
        pytest.param(["flatband", "--phi-range", "nan", "1"],
                     "parameters must be finite: HaldaneParams\\(phi=nan, M=-6.0\\)",
                     id="args21---phi-range must be finite"),
        pytest.param(["flatband", "--m-range", "0", "inf"],
                     "parameters must be finite: .*M=inf",
                     id="args22---m-range must be finite"),
        (["poincare", "--sigma", "0,-0"], "--sigma values must differ"),
        (["flatband", "--sigma=-0,0"], "--sigma values must differ"),
        pytest.param(["flatband", "--phase-sigma", "-1"],
                     "sigma must be finite and >= 0, .* got -1.0",
                     id="args25---phase-sigma must be >= 0"),
        pytest.param(["compile", "--n", "0"], "n must be an integer >= 1, got 0",
                     id="args26---n must be >= 1"),
        pytest.param(["compile", "--N", "1"], "N must be an integer >= 2, got 1",
                     id="args27---N must be >= 2"),
        # more than engine.MAX_DIM sites, or more than MAX_DIM^2 propagator
        # entries (N > 256), are refused before anything is built
        (["compile", "--N", "4097"], "--N 4097 exceeds 4096 sites"),
        (["compile", "--n", "13"], "--n 13 gives 2\\^13 sites, which exceeds"),
        (["compile", "--n", "1000000000"], "which exceeds 4096"),
        pytest.param(["poincare", "--N", "257"],
                     "N=257 gives 257\\^3 propagator entries, which exceeds 4096\\^2",
                     id="args31---N 257 gives 257\\^3 .* exceeds 4096\\^2"),
        (["poincare", "--N", "1000"], "exceeds"),
        # a gap sweep of a model that cannot be flattened: d vanishes at a
        # point of the 6 x 6 grid
        (["flatband", "--phi", "1.5707963267948966", "--M", "3", "--grid", "6",
          "--phase-grid", "0", "--sigma", "0,1e-3", "--realizations", "2"],
         "d vanishes"),
        (["flatband", "--realizations", "0"],
         "n_realizations must be an integer >= 1, got 0"),
        (["flatband", "--phase-realizations", "0"],
         "--phase-realizations must be >= 1"),
        # |d| overflows from |M| of about 1.3e154: the flattened model
        # would be 0
        (["flatband", "--M", "1e308", "--grid", "4", "--realizations", "1",
          "--phase-grid", "0"], "d is too large to flatten: its norm overflows"),
    ])
    def test_usage_error(self, tmp_path, args, message):
        out = tmp_path / "out"
        with pytest.raises(SystemExit, match="^error: .*" + message):
            main(args + ["--out", str(out)])
        assert not out.exists()

    def test_verify_tol_must_be_finite(self, tmp_path, capsys):
        main(["compile", "--n", "2", "--out", str(tmp_path)])
        path = str(tmp_path / "seq_radix2_n2.json")
        capsys.readouterr()
        with pytest.raises(SystemExit, match="^error: --tol must be finite"):
            main(["verify", path, "--tol", "nan"])
        assert capsys.readouterr().out == ""


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "qqft", "compile", "--n", "2",
             "--out", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "depth=5" in result.stdout
