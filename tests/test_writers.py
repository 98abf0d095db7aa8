import csv
import io
import json
import math

import pytest

from lgsim.writers import write_csv, write_json

# the separator the writer re-indents between records, at the depths it is used
RECORD_SEPARATORS = ["},\n    {", "},\n      {", "],\n      [", "},\n{"]


class TestWriteJson:
    """The bytes of json.dump(obj, fh, indent=2, sort_keys=True), for any JSON value."""

    @pytest.mark.parametrize("obj", [
        {}, [], (), "", 0, None,
        {"a": {}, "b": [], "c": [{}], "d": [[]], "e": {"f": {"g": [], "h": {}}}},
        [{}, []], [[], [1]], [{}, {"a": 1}], [{"a": 1}, {}], [[1], []],
        [[[[{}]]], {"x": [[]]}],
        {"t": (1, 2.5, "x"), "tt": ((1, 2), [3, 4]), "m": [[1.0, 0.0], [0.5, -0.0]]},
        [[[1, 2], [3]], [[4]]], ([1], (2, 3)),
        [{"a": 1}, {"b": {"c": 2}}, {"d": [1, 2]}, {"e": None}, {"f": 1.5}],
        {"rows": [{"a": 1}, {"b": 2}], "nested": [{"a": {"b": 1}}, {"c": 2}]},
        {"quote": 'say "hi"', "backslash": "back\\slash", "newline": "line\nbreak",
         "unicode": "naïve – ψ ✓ \U0001f600", "control": "\x00\t\x1f"},
        {sep: [sep, {sep: sep}] for sep in RECORD_SEPARATORS},
        {"rows": [{"s": sep} for sep in RECORD_SEPARATORS]},
        {"rows": [[sep, sep] for sep in RECORD_SEPARATORS], "deep": [[RECORD_SEPARATORS]]},
        {"nan": math.nan, "inf": [math.inf, -math.inf], "flat": {"n": math.nan, "i": -math.inf}},
        {"bools": [True, 1, False, 0], "mixed": {"t": True, "one": 1, "f": False, "zero": 0},
         "nested": [True, [1, False], {"z": 0, "b": True}]},
        {"floats": [1e-300, 1e300, 0.1, -2.5, 1e16, 123456789.0]},
        {1.5: [1], 2: {"x": 0}, 3: 4}, {"outer": {1: [2], 0: {"k": None}}},
        {"records": [{"i": i, "v": i / 7, "s": str(i)} for i in range(600)]},
        [{"i": i} for i in range(128)],
        {"pairs": [[i, -i / 3] for i in range(600)], "mix": [(i, i) for i in range(300)]},
    ])
    def test_matches_stdlib(self, obj):
        buf = io.StringIO()
        write_json(buf, obj)
        assert buf.getvalue() == json.dumps(obj, indent=2, sort_keys=True)


class TestWriteCsv:
    def test_float_cells_as_csv_writer_gives_them(self):
        # 0.0 and -0.0 compare and hash equal, so a table keyed by value
        # would write whichever came first for both
        values = [0.0, -0.0, 0.1, -0.0, 0.0, 0.1, math.nan, math.inf, -math.inf, 1e-300, 2.5]
        header = ["delta_p", "n", "tau", "metric", "value"]
        rows = [[v, 200, None, "corr_value", -v] for v in values]
        expected = io.StringIO(newline="")
        csv.writer(expected).writerows([header, *rows])
        written = io.StringIO(newline="")
        write_csv(written, header, iter(rows))
        assert written.getvalue() == expected.getvalue()
        assert [line.split(",")[0] for line in written.getvalue().splitlines()[1:6]] == [
            "0.0", "-0.0", "0.1", "-0.0", "0.0"]
