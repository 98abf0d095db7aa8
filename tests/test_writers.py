import csv
import io
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgsim import writers
from lgsim.writers import FloatText, write_csv, write_json

# the text between two records, at the depths records are written, and
# template syntax: inside a string or a key it must stay as it is
RECORD_SEPARATORS = ["},\n    {", "},\n      {", "],\n      [", "},\n{", "%s", "%(x)s %%"]


def stdlib_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def written_json(obj, floats=None) -> str:
    buf = io.StringIO()
    write_json(buf, obj, floats)
    return buf.getvalue()


def stdlib_csv(header, rows) -> str:
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows([header, *rows])
    return buf.getvalue()


def written_csv(header, rows, floats=None) -> str:
    buf = io.StringIO(newline="")
    write_csv(buf, header, iter(rows), floats)
    return buf.getvalue()


@pytest.fixture
def record_batches(monkeypatch):
    """What ``writers._record_batch`` returned at each call: a text when a
    batch took the column path, None when it was written item by item."""
    results, batch = [], writers._record_batch

    def spy(*args):
        results.append(batch(*args))
        return results[-1]

    monkeypatch.setattr(writers, "_record_batch", spy)
    return results


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


# values a float column must write as the stdlib does, zeros and non-finite included
AWKWARD_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 0.1, -0.0, 1e-300, 1e300, 0.0, 2.5]
AWKWARD_STRINGS = ['say "hi"', "back\\slash", "line\nbreak", "naïve – ψ ✓ \U0001f600",
                   "\x00\t\x1f", "", "%s", "%%", "a,b", " lead", "cr\r", "crlf\r\n"]


def uniform_records(n: int) -> list[dict]:
    """n records of one key set, whose columns hold floats, ints, strs, bools,
    None, np.float64 and a mix of kinds."""
    return [{"f": AWKWARD_FLOATS[i % len(AWKWARD_FLOATS)], "i": i - n // 2,
             "s": AWKWARD_STRINGS[i % len(AWKWARD_STRINGS)], "b": i % 3 == 0, "z": None,
             "np": np.float64(i / 3), "mixed": [None, 1.5, 2, "x", True][i % 5]}
            for i in range(n)]


class TestRecordColumns:
    """Lists of records of one shape are written column by column, with the
    stdlib's bytes."""

    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 255, 256, 257, 600])
    def test_uniform_dicts(self, n, record_batches):
        obj = {"rows": uniform_records(n)}
        assert written_json(obj) == stdlib_json(obj)
        assert record_batches and all(text is not None for text in record_batches)
        assert len(record_batches) == -(-n // writers._BATCH)

    @pytest.mark.parametrize("n", [1, 255, 256, 257])
    def test_uniform_arrays(self, n, record_batches):
        obj = [[r["f"], r["i"], r["s"], r["np"], r["mixed"]] for r in uniform_records(n)]
        obj[-1] = tuple(obj[-1])
        assert written_json(obj) == stdlib_json(obj)
        assert all(text is not None for text in record_batches)

    @pytest.mark.parametrize("column", [
        [0.0, -0.0, 0.0, -0.0], [math.nan, math.nan, 1.0], [math.inf, -math.inf, -math.inf],
        [1.5, None, 2.5], [None, None], [True, False, True], [1, True, 0, False],
        [np.float64(0.5), np.float64(-0.0), np.float64(math.nan)], [1, 2.0, "3"],
    ])
    def test_awkward_columns(self, column, record_batches):
        obj = [{"k": v, "x": 1} for v in column]
        assert written_json(obj) == stdlib_json(obj)
        assert record_batches == [stdlib_json(obj)[4:-2]]

    def test_escaped_keys_and_strings(self, record_batches):
        obj = [{"a%sb": s, "%": s[::-1], 'é\n"': i}
               for i, s in enumerate(AWKWARD_STRINGS * 30)]
        assert written_json(obj) == stdlib_json(obj)
        assert all(text is not None for text in record_batches)

    @pytest.mark.parametrize("obj", [
        [{1: 2.5, 2: "x"}, {1: 3.5, 2: "y"}],
        [{False: 1.0, 2: "x"}, {False: 0.5, 2: "y"}],
        [{"a": 1.0, "b": 2}, {"a": 1.0, "c": 2}],
        [{"a": 1.0}, {"a": 1.0, "b": 2}],
        [[1.0, 2.0], [1.0]], [[1.0], [2.0], []], [{}, {}], [[], []],
        [{"a": [1.0, 2.0]}, {"a": [3.0]}], [{"a": {"b": 1.0}}, {"a": {"c": math.nan}}],
        [{"a": 1.0}, [1.0]], [(1.0, 2.0), [3.0, {"x": 1}]],
    ])
    def test_other_lists_are_written_item_by_item(self, obj, record_batches):
        assert written_json(obj) == stdlib_json(obj)
        assert record_batches and all(text is None for text in record_batches)

    def test_batches_take_their_own_path(self, record_batches, monkeypatch):
        monkeypatch.setattr(writers, "_BATCH", 4)
        obj = [{"v": i / 3} for i in range(4)] + [{"v": [i]} for i in range(4)] + [{"v": 0.5}]
        assert written_json(obj) == stdlib_json(obj)
        assert [text is not None for text in record_batches] == [True, False, True]

    def test_float_memo(self):
        floats = FloatText()
        assert [floats[v] for v in (0.1, 0.0, -0.0, math.nan, math.inf, -math.inf, 0.1)] == [
            "0.1", "0.0", "-0.0", "nan", "inf", "-inf", "0.1"]
        assert dict(floats) == {0.1: "0.1"}

    def test_one_memo_for_json_and_csv(self):
        values = [0.1, math.nan, math.inf, -math.inf, 0.0, -0.0, 1 / 3, 0.1, -0.0, 0.0]
        records = [{"value": v, "n": i} for i, v in enumerate(values)]
        rows = [[r["n"], r["value"]] for r in records]
        floats = FloatText()
        for _ in range(2):  # the memo cold, then holding every value
            assert written_json({"rows": records}, floats) == stdlib_json({"rows": records})
            assert written_csv(["n", "value"], rows, floats) == stdlib_csv(["n", "value"], rows)
        assert set(floats) == {0.1, 1 / 3}

    def test_streams_in_batches(self):
        # the whole text is about 2.8 MB; a list written in one piece holds it
        records = [{"delta_p": (i % 40) * 0.5 + 0.25, "metric": "corr_value", "n": i,
                    "tau": 1.0 + (i % 13) / 3, "value": (i % 97) / 7} for i in range(20_000)]

        class Sink:
            size = 0

            def write(self, text):
                self.size += len(text)

            def writelines(self, texts):
                for text in texts:
                    self.write(text)

        def peak(write):
            sink = Sink()
            tracemalloc.start()
            try:
                write(sink)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak, sink.size

        json_peak, json_size = peak(lambda fh: write_json(fh, {"rows": records}))
        csv_peak, csv_size = peak(lambda fh: write_csv(
            fh, ["delta_p", "n", "tau", "metric", "value"],
            ([r["delta_p"], r["n"], r["tau"], r["metric"], r["value"]] for r in records)))
        assert json_size > 2_500_000 and csv_size > 1_000_000
        assert json_peak < 1_000_000 and csv_peak < 1_000_000


class TestCsvColumns:
    """Rows are written column by column, with ``csv.writer``'s bytes."""

    @pytest.mark.parametrize("header, rows", [
        (["a", "b", "c"], [[1, 2.5, "x"], [2], [], [3, 4.5, "y", "extra"], [None, None, None]]),
        (["a", "b"], [[], [], [1.5, 2.5]]),
        (["only"], [[""], [None], ["x"], [1.5], [""], []]),
        (["only"], [[None]] * 300),
        ([], [[], [1.0]]),
        (["q"], [[s] for s in AWKWARD_STRINGS]),
        (["q", "r"], [[s, s[::-1]] for s in AWKWARD_STRINGS] * 40),
        (["f", "mixed"], [[v, [None, v, 2, "3", True, np.float64(v)][i % 6]]
                          for i, v in enumerate(AWKWARD_FLOATS * 50)]),
        ([""], []),
        (("h1", "h2"), [(1, 2), (3.5, 4.5)]),
    ])
    def test_matches_csv_writer(self, header, rows):
        assert written_csv(header, rows) == stdlib_csv(header, rows)


SCALARS = st.one_of(
    st.floats(), st.integers(-10**20, 10**20), st.text(max_size=6), st.booleans(), st.none(),
    st.floats(allow_nan=False).map(np.float64),
    st.sampled_from(["", ",", '"', "\r", "\n", " ", "%s", "é", "\x00", 0.0, -0.0]),
)


@st.composite
def record_lists(draw):
    """Lists of records that mostly share one shape, column kinds mostly uniform."""
    n = draw(st.integers(0, 12))
    width = draw(st.integers(0, 4))
    kinds = [draw(st.sampled_from([st.floats(), st.integers(), st.text(max_size=4), SCALARS]))
             for _ in range(width)]
    as_dicts = draw(st.booleans())
    keys = draw(st.lists(st.text(max_size=3), min_size=width, max_size=width, unique=True))
    records = []
    for _ in range(n):
        cells = [draw(kind) for kind in kinds]
        if draw(st.integers(0, 9)) == 0:  # now and then a record of another shape
            cells = cells[:-1] if cells and draw(st.booleans()) else cells + [draw(SCALARS)]
        if as_dicts:
            records.append(dict(zip(keys + ["extra"], cells)))
        else:
            records.append(draw(st.sampled_from([list, tuple]))(cells))
    return records


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(record_lists(), st.sampled_from([1, 3, writers._BATCH]))
    def test_json_matches_stdlib(self, records, batch):
        with mock.patch.object(writers, "_BATCH", batch):
            obj = {"rows": records, "nested": [records]}
            assert written_json(obj) == stdlib_json(obj)

    @settings(max_examples=50, deadline=None)
    @given(record_lists(), st.sampled_from([1, 3, writers._BATCH]))
    def test_csv_matches_csv_writer(self, records, batch):
        rows = [list(r.values()) if isinstance(r, dict) else r for r in records]
        header = rows[0] if rows else ["h"]
        with mock.patch.object(writers, "_BATCH", batch):
            assert written_csv(header, rows[1:]) == stdlib_csv(header, rows[1:])
