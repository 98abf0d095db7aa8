"""Report files with the stdlib's bytes, at about the cost of formatting their numbers.

``write_json`` writes exactly what ``json.dump(obj, fh, indent=2,
sort_keys=True)`` writes. That call runs on the stdlib's pure-Python
encoder, one generator step and one ``fh.write`` per token, because the C
encoder does not indent. Here each container that holds only scalars is
one C-encoder call with the newline and indentation in its item separator,
and a list of such records is one call per batch. The pieces are streamed
to the file, so the whole text is never held at once.

``write_csv`` writes what one ``csv.writer`` writes for a header and rows,
formatting each distinct float cell once instead of once per cell.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
from json.encoder import encode_basestring_ascii

# the types the C encoder writes as one token; a container holding only these
# (exactly these, so a float subclass takes the general path) is "flat"
_SCALARS = frozenset({str, int, float, bool, type(None)})
# flat records per C-encoder call: the encoder holds every token of a call
# before joining them, so larger batches only raise peak memory
_RECORD_BATCH = 64


@functools.cache
def _flat_encoder(depth: int):
    """The C encoder's ``encode`` (no indent), with items separated by a
    newline and ``depth`` levels of indentation."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * depth, ": ")).encode


def _values(obj):
    return obj.values() if isinstance(obj, dict) else obj


def _json_chunks(obj, depth: int):
    """Yield, in order, the text ``json.dump(obj, fh, indent=2, sort_keys=True)``
    writes for ``obj`` nested ``depth`` levels deep.

    A list of flat records is encoded a batch at a time, and the record
    separators are then re-indented by one ``str.replace``. That pattern,
    a record's closing bracket, a comma, a newline and the next record's
    opening bracket, can occur nowhere else, because an encoded string
    never holds a raw newline.
    """
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        yield _flat_encoder(depth)(obj)  # a scalar or an empty container
        return
    pad, inner = "  " * depth, "  " * (depth + 1)
    if _SCALARS.issuperset(map(type, _values(obj))):
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
            yield from _json_chunks(obj[key], depth + 1)
            opener = ","
        yield f"\n{pad}}}"
        return
    kinds = set(map(type, obj))
    if (
        (kinds == {dict} or kinds <= {list, tuple})
        and all(obj)
        and _SCALARS.issuperset(map(type, itertools.chain.from_iterable(map(_values, obj))))
    ):
        o, c = "{}" if kinds == {dict} else "[]"
        deep = "  " * (depth + 2)
        between, indented = f"{c},\n{deep}{o}", f"\n{inner}{c},\n{inner}{o}\n{deep}"
        encode = _flat_encoder(depth + 2)
        yield f"[\n{inner}{o}\n{deep}"
        for start in range(0, len(obj), _RECORD_BATCH):
            text = encode(obj[start:start + _RECORD_BATCH])[2:-2]  # "[" + o ... c + "]"
            yield (indented if start else "") + text.replace(between, indented)
        yield f"\n{inner}{c}\n{pad}]"
        return
    opener = "["
    for item in obj:
        yield f"{opener}\n{inner}"
        yield from _json_chunks(item, depth + 1)
        opener = ","
    yield f"\n{pad}]"


def write_json(fh, obj) -> None:
    """Write the bytes of ``json.dump(obj, fh, indent=2, sort_keys=True)``."""
    fh.writelines(_json_chunks(obj, 0))


class _FloatText(dict):
    """Float -> the text ``csv.writer`` gives it, each value formatted once."""

    def __missing__(self, value: float) -> str:
        text = self[value] = repr(value)
        return text


def write_csv(fh, header, rows) -> None:
    """Write ``header`` and ``rows`` as one ``csv.writer`` would.

    Every nonzero float cell is replaced by its text first. Zeros keep their
    float: 0.0 and -0.0 are equal and hash alike, so one memo entry would
    write one for the other.
    """
    memo = _FloatText()
    writer = csv.writer(fh)
    writer.writerow(header)
    writer.writerows([memo[v] if type(v) is float and v else v for v in row] for row in rows)
