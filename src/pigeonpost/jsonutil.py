"""Canonical JSON serialization shared by all emitters (golden-file safe).

Contract: for a value built from ``dict`` with ``str`` keys, ``list``,
``tuple``, ``str``, ``int``, ``float``, ``bool`` and ``None``,
``canonical_dumps(v)`` returns the same text as ``json.dumps(v,
sort_keys=True, indent=2, separators=(",", ": ")) + "\\n"``, byte for
byte.  Dispatch is on the exact type, so any other type, a subclass of
one of those eight included, raises ``TypeError``; so does a key of any
type but ``str``, although ``json.dumps`` would convert an int, float,
bool or None key.  A value that contains itself is not supported:
``json.dumps`` raises ``ValueError`` for it, while this encoder recurses
to the recursion limit, its memory growing level by level when the value
contains itself more than once.

``json.dumps`` uses its C encoder only when ``indent`` is None; with
``indent=2`` it runs Python generators per container.  This encoder is
columnar instead.  It encodes a list of values of one depth at a time,
since those share their indent.  The list is grouped by exact type, and
the containers of a group by *shape*: a dict's key tuple, an array's
length.

* A group of scalars is one ``map`` of its encoder, a C function for
  strings, ints and bools.
* A shape's containers are written from its columns: the values of its
  first sorted key (or first item) in every container, then those of
  the second, and so on.  Each column is encoded as a level of its own,
  and each container is one ``str.join`` of the shape's fixed pieces
  (brackets, separators, ``"key": ``) interleaved with its row of
  column texts.
* An array longer than the number of arrays of its length (the top-level
  list of a big document, say) is one ``str.join`` of its items instead,
  which are encoded together, so a long array does not become one column
  per item.

So the Python-level work grows with the number of shapes times the depth,
not with the number of containers, and a field of many same-shaped
records is one column, usually of one type.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii as _encode_str
from operator import itemgetter

_INDENT = "  "


def _encode_float(value: float) -> str:
    # json's rules: repr, with NaN and the infinities spelled as in JavaScript.
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "Infinity"
    if value == float("-inf"):
        return "-Infinity"
    return float.__repr__(value)


# Exact scalar type -> its JSON text.
_SCALARS = {
    str: _encode_str,
    int: int.__repr__,
    float: _encode_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda value: "null",
}

def _fill(pieces: list[str], containers: list, fields, inner: str) -> list[str]:
    """Per container: ``pieces[0]``, the text of its first field,
    ``pieces[1]``, ... ``pieces[-1]``, joined."""
    parts = [repeat(pieces[0])]
    for field, piece in zip(fields, pieces[1:]):
        parts += (_level(list(map(field, containers)), inner), repeat(piece))
    return list(map("".join, zip(*parts)))


def _same_length(length: int, arrays: list, newline: str) -> list[str]:
    inner = newline + _INDENT
    if length == 0:
        return ["[]"] * len(arrays)
    if length <= len(arrays):
        pieces = ["[" + inner, *["," + inner] * (length - 1), newline + "]"]
        return _fill(pieces, arrays, map(itemgetter, range(length)), inner)
    items = iter(_level(list(chain.from_iterable(arrays)), inner))
    join = ("," + inner).join
    return ["[" + inner + join(islice(items, length)) + newline + "]" for _ in arrays]


def _key_text(key) -> str:
    if type(key) is not str:
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return _encode_str(key)


def _shape(label, dicts: list, newline: str) -> list[str]:
    """Texts of ``dicts``, which all have the keys of ``dicts[0]``, in its order."""
    if not dicts[0]:
        return ["{}"] * len(dicts)
    keys = sorted(dicts[0])
    inner = newline + _INDENT
    names = [inner + _key_text(key) + ": " for key in keys]
    pieces = ["{" + names[0], *["," + name for name in names[1:]], newline + "}"]
    return _fill(pieces, dicts, map(itemgetter, keys), inner)


def _grouped(values: list, labels: list, encode, newline: str) -> Iterable[str]:
    """Texts of ``values``, one ``encode(label, group, newline)`` call per
    distinct label; ``labels[i]`` is the label of ``values[i]``."""
    distinct = dict.fromkeys(labels)
    if len(distinct) == 1:
        return encode(labels[0], values, newline)
    groups = {label: [] for label in distinct}
    deque(map(list.append, map(groups.__getitem__, labels), values), maxlen=0)
    texts = {label: iter(encode(label, group, newline)) for label, group in groups.items()}
    return list(map(next, map(texts.__getitem__, labels)))


def _typed(kind: type, values: list, newline: str) -> Iterable[str]:
    """Texts of ``values``, all of the exact type ``kind``."""
    scalar = _SCALARS.get(kind)
    if scalar is not None:
        return map(scalar, values)  # read once, by the container's join
    if kind is dict:
        # Records mostly share one key set; a key tuple per dict is built
        # only when they do not.
        keys = values[0].keys()
        if all(map(keys.__eq__, map(dict.keys, values))):
            return _shape(None, values, newline)
        return _grouped(values, list(map(tuple, values)), _shape, newline)
    if kind is list or kind is tuple:
        return _grouped(values, list(map(len, values)), _same_length, newline)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _level(values: list, newline: str) -> Iterable[str]:
    """Texts of ``values``, all at the indent ``newline`` ends with."""
    kinds = set(map(type, values))
    if len(kinds) == 1:
        return _typed(kinds.pop(), values, newline)
    return _grouped(values, list(map(type, values)), _typed, newline)


def canonical_dumps(obj) -> str:
    """Serialize with sorted keys and fixed separators; trailing newline."""
    (text,) = _level([obj], "\n")
    return text + "\n"
