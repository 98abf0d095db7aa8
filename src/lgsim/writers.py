"""Report files with the stdlib's bytes, at about the cost of formatting their numbers.

``write_json`` writes exactly what ``json.dump(obj, fh, indent=2,
sort_keys=True)`` writes. That call runs on the stdlib's pure-Python
encoder, one generator step and one ``fh.write`` per token, because the C
encoder does not indent. Here each container that holds only scalars is
one C-encoder call with the newline and indentation in its item separator.
A list is written a batch of records at a time: records of one shape, dicts
with the same keys or arrays of the same length, fill one ``%s`` template
column by column. The pieces are streamed to the file, so the whole text is
never held at once.

``write_csv`` writes what one ``csv.writer`` writes for a header and rows,
column by column in the same batches. Both writers take a ``FloatText``, so
a report can format each of its distinct floats once for all its files.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
from json.encoder import encode_basestring_ascii
from operator import itemgetter

# list items per template fill (JSON) or rows per write (CSV): a batch's texts
# are held until it is written, so filling a sweep's whole list at once raised
# its peak RSS by 1.6-1.9 MB, and 256 held 47 KB more than 128 for no speed-up
_BATCH = 128
# the float texts that csv writes and JSON spells otherwise
_JSON_CONSTANTS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


class FloatText(dict):
    """Float -> its ``repr``, each finite nonzero value formatted once.

    Zeros and non-finite values are formatted at every lookup and never
    stored: 0.0 and -0.0 are equal and hash alike, so one entry would write
    one for the other, and JSON spells NaN and the infinities otherwise than
    csv does.
    """

    def __missing__(self, value: float) -> str:
        text = float.__repr__(value)
        if value and value - value == 0:
            self[value] = text
        return text


def _scalar(kind: type) -> bool:
    """Whether the encoders write a value of this type as one token."""
    return kind is type(None) or issubclass(kind, (str, int, float))


@functools.cache
def _flat_encoder(depth: int):
    """The C encoder's ``encode`` (no indent), with items separated by a
    newline and ``depth`` levels of indentation."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * depth, ": ")).encode


def _values(obj):
    return obj.values() if isinstance(obj, dict) else obj


def _json_column(column, floats: FloatText):
    """The JSON tokens of a column of values, or None if one is not a scalar."""
    kinds = set(map(type, column))
    if kinds == {float}:
        texts = list(map(floats.__getitem__, column))
        if _JSON_CONSTANTS.keys().isdisjoint(texts):
            return texts
        return [_JSON_CONSTANTS.get(text, text) for text in texts]
    if kinds == {str}:
        return list(map(encode_basestring_ascii, column))
    if kinds == {int}:
        return list(map(int.__repr__, column))
    if all(map(_scalar, kinds)):
        return list(map(_flat_encoder(0), column))
    return None


def _record_batch(batch, depth: int, floats: FloatText):
    """The text of ``batch``, list items nested ``depth`` levels deep, joined
    as the list joins them, if they are flat records of one shape; else None.

    One ``%s`` template holds the batch's brackets, keys and indentation,
    and its slots are filled from the columns' tokens.
    """
    kinds, first = set(map(type, batch)), batch[0]
    if not (kinds == {dict} or kinds <= {list, tuple}) or not first or set(
            map(len, batch)) != {len(first)}:
        return None
    if kinds == {dict}:
        if not all(isinstance(key, str) for key in first):
            return None
        keys = sorted(first)
        try:  # records of one size hold the same keys when each holds the first's
            columns = [list(map(itemgetter(key), batch)) for key in keys]
        except KeyError:
            return None
        slots = [encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in keys]
        opener, closer = "{}"
    else:
        columns = list(zip(*batch))
        slots = ["%s"] * len(first)
        opener, closer = "[]"
    texts = [_json_column(column, floats) for column in columns]
    if None in texts:
        return None
    pad, inner = "  " * depth, "  " * (depth + 1)
    record = f"{opener}\n{inner}" + f",\n{inner}".join(slots) + f"\n{pad}{closer}"
    return f",\n{pad}".join([record] * len(batch)) % tuple(
        itertools.chain.from_iterable(zip(*texts)))


def _json_chunks(obj, depth: int, floats: FloatText):
    """Yield, in order, the text ``json.dump(obj, fh, indent=2, sort_keys=True)``
    writes for ``obj`` nested ``depth`` levels deep."""
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        yield _flat_encoder(depth)(obj)  # a scalar or an empty container
        return
    pad, inner = "  " * depth, "  " * (depth + 1)
    if all(map(_scalar, set(map(type, _values(obj))))):
        text = _flat_encoder(depth + 1)(obj)
        yield f"{text[0]}\n{inner}{text[1:-1]}\n{pad}{text[-1]}"
        return
    if isinstance(obj, dict):
        if not all(isinstance(key, str) for key in obj):
            # the stdlib's conversion of int, float, bool and None keys
            yield json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + pad)
            return
        opener = "{"
        for key in sorted(obj):
            yield f"{opener}\n{inner}{encode_basestring_ascii(key)}: "
            yield from _json_chunks(obj[key], depth + 1, floats)
            opener = ","
        yield f"\n{pad}}}"
        return
    yield "["
    for start in range(0, len(obj), _BATCH):
        batch = obj[start:start + _BATCH]
        text = _record_batch(batch, depth + 1, floats)
        if text is not None:
            yield f"{',' if start else ''}\n{inner}{text}"
            continue
        for i, item in enumerate(batch):
            yield f"{',' if start or i else ''}\n{inner}"
            yield from _json_chunks(item, depth + 1, floats)
    yield f"\n{pad}]"


def write_json(fh, obj, floats: FloatText | None = None) -> None:
    """Write the bytes of ``json.dump(obj, fh, indent=2, sort_keys=True)``.

    Float record fields take their text from ``floats``, a new memo if None.
    """
    fh.writelines(_json_chunks(obj, 0, FloatText() if floats is None else floats))


class _Lines(list):
    """A file for ``csv.writer`` that keeps each line it is given."""

    write = list.append


class _CsvFields(dict):
    """Cell -> the text ``csv.writer`` writes for it in a row of two or more
    cells, quoted as it quotes. Only ``str`` cells are stored: True, 1 and
    1.0 hash alike but are written differently."""

    def __init__(self):
        super().__init__()
        self._lines = _Lines()
        self._writer = csv.writer(self._lines)

    def text(self, cell) -> str:
        self._writer.writerow((cell, None))
        return self._lines.pop()[:-3]  # less the empty last cell's "," and "\r\n"

    def __missing__(self, cell: str) -> str:
        text = self[cell] = self.text(cell)
        return text


def _csv_column(column, floats: FloatText, fields: _CsvFields) -> list[str]:
    """The CSV fields of a column of cells."""
    kinds = set(map(type, column))
    if kinds == {float}:
        return list(map(floats.__getitem__, column))
    if kinds == {str}:
        return list(map(fields.__getitem__, column))
    if kinds == {int}:
        return list(map(int.__repr__, column))
    return list(map(fields.text, column))


def write_csv(fh, header, rows, floats: FloatText | None = None) -> None:
    """Write ``header`` and ``rows``, sequences of cells, as one ``csv.writer`` would.

    Each batch of rows is split into runs of rows of one length, and a run
    fills one ``%s`` template a column at a time. Float cells take their
    text from ``floats`` (a new memo if None) and ``str`` cells from a memo
    of what ``csv.writer`` writes for them, so the quoting is its own. A
    lone empty field is the one place it quotes an empty cell, as ``""``.
    """
    floats = FloatText() if floats is None else floats
    fields = _CsvFields()
    rows = iter(rows)
    batch = [header]  # a batch of its own, so its str cells leave the columns' kinds alone
    while batch:
        for width, run in itertools.groupby(batch, len):
            run = list(run)
            columns = [_csv_column(column, floats, fields) for column in zip(*run)]
            if width == 1:
                columns = [[text or '""' for text in columns[0]]]
            fh.write((",".join(["%s"] * width) + "\r\n") * len(run) % tuple(
                itertools.chain.from_iterable(zip(*columns))))
        batch = list(itertools.islice(rows, _BATCH))
