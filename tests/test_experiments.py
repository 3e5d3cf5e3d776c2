"""The experiment report table (the drivers' claims are asserted in
``tests/test_paper_claims.py``)."""

from repro.experiments import Row, format_table


class TestReport:
    def test_format_table_alignment(self):
        rows = [
            Row("E0", "a", {"x": 1}, {"m": 2.0}),
            Row("E0", "bbbb", {"x": 10}, {"m": 0.123456}),
        ]
        out = format_table(rows, "t")
        lines = out.splitlines()
        assert lines[0] == "== t =="
        assert "exp" in lines[1] and "algorithm" in lines[1]
        assert len(lines) == 5

    def test_empty_rows(self):
        assert "(no rows)" in format_table([], "t")

    def test_nan_rendered(self):
        out = format_table([Row("E", "a", {}, {"q": float("nan")})])
        assert "nan" in out
