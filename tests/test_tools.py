import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
two lines."""

import os  # a trailing comment keeps the line

# a comment line


class A:
    """Class docstring."""

    x = 1

    def f(self):
        """Function
        docstring."""
        s = """not a docstring
# inside a string

end"""
        return s
'''


class TestCodeLines:
    def test_counts_a_fixture_module(self):
        """21 lines; code on lines 4, 9, 12, 14, 17, 18, 20 and 21: a line
        with a trailing comment counts, and so do the non-blank lines of a
        string that is no docstring, the one starting with # included."""
        assert code_lines.count(FIXTURE) == (21, 8)

    def test_prints_each_module_and_the_sum(self, tmp_path, capsys):
        (tmp_path / "a.py").write_text(FIXTURE, encoding="utf-8")
        (tmp_path / "b.py").write_text("# one comment\nx = 1\n", encoding="utf-8")
        assert code_lines.main([str(tmp_path)]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert rows == [["module", "lines", "code"], ["a.py", "21", "8"], ["b.py", "2", "1"],
                        ["total", "23", "9"]]
