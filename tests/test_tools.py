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
