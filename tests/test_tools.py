import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Every line marked "code" counts, and no other line does.
_FIXTURE = '''"""Module docstring,
over two lines."""
import os  # code


# a comment-only line
class Thing:  # code
    """Class docstring."""

    def method(self):  # code
        """Function
        docstring."""
        text = """a string that is not
a docstring, over three
lines"""
        return (len(text) +  # code
                1)

    async def waits(self):  # code
        """Async function docstring."""
        "a second string statement is not a docstring"
        return os.sep  # code
'''


def test_code_lines_skips_docstrings_comments_and_blank_lines(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(_FIXTURE)
    # import, class, def, three string lines, two expression lines, async
    # def, the second string statement, return
    assert code_lines.code_lines(path) == 11


def test_code_lines_prints_each_file_and_the_directory_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(_FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# note\ny = [\n    2,\n]\n")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["11", "4", "15"]
    assert lines[-1].endswith("/ (total)")


_COMPARE = Path(__file__).resolve().parents[1] / "tools" / "compare_runs.py"
_spec = importlib.util.spec_from_file_location("compare_runs", _COMPARE)
compare_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_runs)

_SWEEP = """scheme,x,mean_err,upper_bound
random_diagonal,0,1.0e-13,
random_diagonal,5,0.5,2.0
baseline,5,nan,3.0
"""


def _runs(tmp_path, old, new, name="sweep.csv"):
    for side, text in (("old", old), ("new", new)):
        (tmp_path / side).mkdir()
        (tmp_path / side / name).write_text(text)
    return str(tmp_path / "old"), str(tmp_path / "new")


def test_compare_runs_prints_each_columns_largest_moves(tmp_path, capsys):
    new = _SWEEP.replace("1.0e-13", "0.0").replace("0.5,2.0", "0.5000000001,2.0")
    assert compare_runs.main(_runs(tmp_path, _SWEEP, new)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "sweep.csv: largest move per numeric column, relative then absolute"
    rows = {line.split()[0]: line.split() for line in lines[1:]}
    assert list(rows) == ["x", "mean_err", "upper_bound"]
    assert rows["x"][1:] == ["0", "0"] and rows["upper_bound"][1:] == ["0", "0"]
    # the exact recovery moves by all of itself, the 0.5 cell by 2e-10
    # relative and 1e-10 absolute; the NaN cells are equal
    mean = rows["mean_err"]
    assert mean[1:5] == ["1", "(row", "1:", "1.0e-13"]
    assert mean[7:10] == ["1e-10", "(row", "2:"] and float(mean[10]) == 0.5


def test_compare_runs_says_identical_and_refuses_a_changed_shape(tmp_path, capsys):
    cases = {
        "same": (_SWEEP, 0),
        "renamed": (_SWEEP.replace("baseline", "other"), 1),
        "longer": (_SWEEP + "baseline,10,1.0,\n", 1),
        "header": (_SWEEP.replace("mean_err", "mean"), 1),
        "nan": (_SWEEP.replace("nan,3.0", "1.0,3.0"), 0),
    }
    out = {}
    for case, (new, code) in cases.items():
        (tmp_path / case).mkdir()
        assert compare_runs.main(_runs(tmp_path / case, _SWEEP, new)) == code
        out[case] = capsys.readouterr().out
    assert out["same"] == "sweep.csv: identical\n"
    assert out["renamed"] == "sweep.csv: row 3, scheme: 'baseline' against 'other'\n"
    assert out["longer"] == "sweep.csv: 3 rows against 4\n"
    # a NaN that became a number moved without bound
    assert "inf (row 3: nan -> 1.0)" in out["nan"]
    # two CSV files compare as two runs of one file; a file against a
    # directory, a pair with no output in common, or one argument do not
    old = tmp_path / "nan" / "old" / "sweep.csv"
    assert compare_runs.main([str(old), str(tmp_path / "nan" / "new" / "sweep.csv")]) == 0
    assert "inf (row 3: nan -> 1.0)" in capsys.readouterr().out
    assert compare_runs.main([str(old), str(tmp_path / "nan" / "new")]) == 1
    (tmp_path / "a").mkdir()
    assert compare_runs.main([str(tmp_path / "a"), str(tmp_path / "nan" / "new")]) == 1
    assert compare_runs.main(["one"]) == 2
