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


class TestBenchmarkHooks:
    def test_the_trace_hooks_still_resolve(self):
        """perfbench/bench_trace.py wraps package functions by module and
        name, and methods from their class's own __dict__, so a refactor
        that moves one (Stepper.forward_step_hat, a problem's cost or
        gradient) breaks ``--trace 1``.  Both hook sets install on the
        imported package and put every original back."""
        import numpy as np

        import chnsopt
        import chnsopt.cli  # noqa: F401  (RunContext and write_csv are traced)

        path = Path(__file__).resolve().parent.parent / "perfbench" / "bench_trace.py"
        spec = importlib.util.spec_from_file_location("bench_trace", path)
        bench_trace = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench_trace)
        step = chnsopt.forward.Stepper.__dict__["forward_step_hat"]
        originals = (chnsopt.simulate, np.fft.fft2, step)
        counter = bench_trace.SolveCounter()
        try:
            tracer = bench_trace.Tracer(0)
            try:
                assert chnsopt.forward.Stepper.__dict__["forward_step_hat"] is not step
            finally:
                tracer.restore()
        finally:
            counter.restore()
        restored = (chnsopt.simulate, np.fft.fft2, chnsopt.forward.Stepper.forward_step_hat)
        assert restored == originals
