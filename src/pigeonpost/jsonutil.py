"""Canonical JSON serialization shared by all emitters (golden-file safe).

Contract: for a value built from ``dict``, ``list``, ``tuple``, ``str``,
``int``, ``float``, ``bool`` and ``None``, ``canonical_dumps(v)`` returns
the same text as ``json.dumps(v, sort_keys=True, indent=2,
separators=(",", ": ")) + "\\n"``, byte for byte.  Dispatch is on the exact
type, so any other type, a subclass of one of those eight included,
raises ``TypeError``.

``json.dumps`` uses its C encoder only when ``indent`` is None; with
``indent=2`` every value runs through the pure-Python generator chain of
``json.encoder``.  Here each container is one ``str.join`` over its
encoded items, and each ``"key": `` prefix is encoded once per indent
level and call.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _encode_str

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

# Exact key type -> the text json quotes for it: a key is sorted as it is,
# then converted.
_KEY_TEXT = {**_SCALARS, str: str}


def canonical_dumps(obj) -> str:
    """Serialize with sorted keys and fixed separators; trailing newline."""
    # Newline-and-indent -> {key text: newline-and-indent + '"key": '}.
    prefixes: dict[str, dict[str, str]] = {}

    def encode(value, newline: str) -> str:
        kind = type(value)
        scalar = _SCALARS.get(kind)
        if scalar is not None:
            return scalar(value)
        if kind is dict:
            return encode_dict(value, newline)
        if kind is list or kind is tuple:
            return encode_list(value, newline)
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")

    def encode_list(seq, newline: str) -> str:
        if not seq:
            return "[]"
        inner = newline + _INDENT
        parts = []
        # Scalars are encoded inline, saving a Python call per item.
        for item in seq:
            scalar = _SCALARS.get(type(item))
            parts.append(scalar(item) if scalar is not None else encode(item, inner))
        return "[" + inner + ("," + inner).join(parts) + newline + "]"

    def encode_dict(doc, newline: str) -> str:
        if not doc:
            return "{}"
        inner = newline + _INDENT
        cache = prefixes.setdefault(inner, {})
        parts = []
        for key, value in sorted(doc.items()):
            convert = _KEY_TEXT.get(type(key))
            if convert is None:
                raise TypeError(
                    f"keys must be str, int, float, bool or None, not {type(key).__name__}"
                )
            text = convert(key)
            prefix = cache.get(text)
            if prefix is None:
                prefix = cache[text] = inner + _encode_str(text) + ": "
            scalar = _SCALARS.get(type(value))
            parts.append(prefix + (scalar(value) if scalar is not None else encode(value, inner)))
        return "{" + ",".join(parts) + newline + "}"

    return encode(obj, "\n") + "\n"
