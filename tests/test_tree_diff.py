import importlib.util
import math
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "tree_diff", Path(__file__).resolve().parent.parent / "scripts" / "tree_diff.py")
tree_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tree_diff)


def write(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


class TestCompare:
    def test_largest_numeric_difference(self):
        line = tree_diff.compare("sigma,gap\n0.001,12.5\n5e-3,-1.25e-1\n",
                                 "sigma,gap\n0.001,12.5000000001\n5e-3,-1.2500000003e-1\n")
        assert line == "max |difference| 1e-10 over 2 of 4 numbers"

    def test_stdout_numbers(self):
        line = tree_diff.compare("sigma=0 S_L=8.26993e-17 S_P=0\n",
                                 "sigma=0 S_L=1.07817e-16 S_P=0\n")
        assert line.startswith("max |difference| 2.51e-17 over 1 of 3")

    def test_non_numeric_difference(self):
        line = tree_diff.compare("phi=-1.5708, M=1\nsame\n",
                                 "phi=-1.5708, M=1\nother\n")
        assert line == "non-numeric difference at line 2: 'same' vs 'other'"

    @pytest.mark.parametrize("old,new", [("flat-grid4\n", "flat-grid5\n"),
                                         ('"sha256": "a3f5"', '"sha256": "a4f5"')])
    def test_digits_inside_words_are_text(self, old, new):
        assert tree_diff.compare(old, new).startswith("non-numeric difference")

    def test_missing_line(self):
        assert tree_diff.compare("a\n1\n", "a\n1\nb\n") == (
            "non-numeric difference: 2 lines vs 3")

    def test_nan_is_text(self):
        assert tree_diff.compare("nan,1.0", "nan,1.5") == (
            "max |difference| 0.5 over 1 of 1 numbers")
        assert tree_diff.compare("nan,1.0", "0.5,1.0").startswith("non-numeric")


class TestTrees:
    def test_report(self, tmp_path):
        old = write(tmp_path / "old", {"run/stdout": "W/G=0.5\n",
                                       "run/same.csv": "1,2\n",
                                       "run/gone": "x"})
        new = write(tmp_path / "new", {"run/stdout": "W/G=0.75\n",
                                       "run/same.csv": "1,2\n",
                                       "run/added": "y"})
        assert tree_diff.tree_diff(old, new) == [
            f"run/added: only in {new}",
            f"run/gone: only in {old}",
            "run/stdout: max |difference| 0.25 over 1 of 1 numbers",
        ]

    def test_identical_trees(self, tmp_path, capsys):
        files = {"a/b.csv": "0.1,0.2\n"}
        old, new = write(tmp_path / "old", files), write(tmp_path / "new", files)
        assert tree_diff.main([str(old), str(new)]) == 0
        assert capsys.readouterr().out == "trees are identical\n"

    def test_usage(self, tmp_path, capsys):
        assert tree_diff.main([str(tmp_path)]) == 2
        assert "usage" in capsys.readouterr().err


class TestTolerance:
    def trees(self, tmp_path, old_files, new_files):
        return (str(write(tmp_path / "old", old_files)),
                str(write(tmp_path / "new", new_files)))

    @pytest.mark.parametrize("new,status", [
        ("0.1,12.5000000000001\n", 0),   # 1e-13 apart
        ("0.1,12.5\n", 0),               # identical
        ("0.1,12.50000000001\n", 1),     # 1e-11 apart
        ("0.1,nan\n", 1),                # text where a number was
    ])
    def test_exit_status(self, tmp_path, capsys, new, status):
        old, new = self.trees(tmp_path, {"run/gap.csv": "0.1,12.5\n"},
                              {"run/gap.csv": new})
        assert tree_diff.main(["--tol", "1e-12", old, new]) == status
        out, err = capsys.readouterr()
        assert ("differ beyond --tol 1e-12" in err) == bool(status)

    def test_without_tol_always_zero(self, tmp_path, capsys):
        old, new = self.trees(tmp_path, {"a.csv": "1.0\n"}, {"a.csv": "2.0\n"})
        assert tree_diff.main([old, new]) == 0

    def test_file_in_one_tree_only(self, tmp_path, capsys):
        old, new = self.trees(tmp_path, {"a.csv": "1.0\n"},
                              {"a.csv": "1.0\n", "b.csv": "1.0\n"})
        assert tree_diff.main(["--tol", "1", old, new]) == 1
        assert "1 of 1 differing files" in capsys.readouterr().err

    def test_largest_difference_per_file(self, tmp_path):
        old, new = self.trees(tmp_path, {"a": "x=1 y=2\n", "b": "z\n"},
                              {"a": "x=1.5 y=2.25\n", "b": "w\n"})
        assert tree_diff.differences(Path(old), Path(new)) == [
            ("a: max |difference| 0.5 over 2 of 2 numbers", 0.5),
            ("b: non-numeric difference at line 1: 'z' vs 'w'", math.inf)]

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf", "x"])
    def test_bad_tol_is_a_usage_error(self, tmp_path, capsys, tol):
        old, new = self.trees(tmp_path, {"a": "1\n"}, {"a": "1\n"})
        assert tree_diff.main(["--tol", tol, old, new]) == 2
        assert "usage" in capsys.readouterr().err
