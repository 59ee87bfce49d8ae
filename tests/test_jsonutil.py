"""``canonical_dumps`` writes the bytes ``json.dumps`` would, or refuses."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pigeonpost.jsonutil import canonical_dumps


def reference(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


# Quotes, backslashes, controls, non-ASCII and astral characters, and a
# lone surrogate, mixed into arbitrary text.
texts = st.text(
    st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f\xe9€\U0001f426\ud800') | st.characters()
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**200), max_value=10**200),
    st.floats(),  # includes -0.0, the infinities and nan
    texts,
)
# Keys with the characters that printf-style formatting or a JSON string
# treats specially, and arbitrary text.
keys = st.text(st.sampled_from('%"\\sd\x00\xe9'), max_size=3) | texts


def record_lists(inner):
    """Up to 40 records of one shape: the encoder's columnar path."""
    return st.lists(keys, max_size=5, unique=True).flatmap(
        lambda names: st.lists(st.fixed_dictionaries({name: inner for name in names}), max_size=40)
    )


def mixed_lists(inner):
    """Records of 2 or 3 shapes among scalars and tuples."""
    return st.lists(st.lists(keys, max_size=4, unique=True), min_size=2, max_size=3).flatmap(
        lambda shapes: st.lists(
            st.one_of(
                *(st.fixed_dictionaries({name: inner for name in names}) for names in shapes),
                scalars,
                st.lists(inner, max_size=3).map(tuple),
            ),
            max_size=30,
        )
    )


values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(keys, inner, max_size=4),
        record_lists(inner),
        mixed_lists(inner),
        # Same-length arrays, which share a shape.
        st.integers(0, 3).flatmap(
            lambda size: st.lists(st.lists(inner, min_size=size, max_size=size), max_size=12)
        ),
    ),
    max_leaves=60,
)


@given(values)
@example(-0.0)
@example([float("inf"), float("-inf"), float("nan")])
@example({"": {}, "a": [], "b": [[], {}, ()], "c": [{"d": [1, [2, {"e": None}]]}]})
@example(2**1000)
@example([{"%s": 1, '"%d"': [2, 3]}, {"%s": "%", '"%d"': (4, 5)}, {"%%": None}])
@example([[1, 2], (3, 4), [5, 6, 7], [], [True, None], ["a", 1.5]])
def test_canonical_dumps_matches_json_dumps(value):
    assert canonical_dumps(value) == reference(value)


class _Int(int):
    pass


@pytest.mark.parametrize(
    "value",
    [
        set(), b"bytes", Fraction(1, 2), object(), _Int(3), [1, {2}], {"a": {"b": b""}}, {(1, 2): 0},
        # Keys json.dumps would convert, the last ones equal but of different text.
        {7: 0}, {1.5: 0}, {True: 0}, {None: 0},
        [{1: 0}, {True: 0}, {1.0: 0}, {0.0: [1]}, {-0.0: [1]}, {False: 2}],
    ],
    ids=[
        "set", "bytes", "fraction", "object", "int-subclass", "in-list", "in-dict", "tuple-key",
        "int-key", "float-key", "bool-key", "none-key", "equal-keys-of-different-types",
    ],
)
def test_unsupported_type_raises_type_error(value):
    with pytest.raises(TypeError):
        canonical_dumps(value)


@pytest.mark.parametrize("deep", [Fraction(1, 2), _Int(7), {1, 2}, {(0, 1): 2}])
def test_unsupported_value_deep_in_a_column_of_records_raises_type_error(deep):
    rows = [{"id": i, "path": {"nodes": [i, i + 1], "tags": {"k": [i]}}} for i in range(40)]
    rows[27]["path"]["tags"]["k"][0] = deep
    with pytest.raises(TypeError):
        canonical_dumps(rows)


@pytest.mark.parametrize("key", [7, 1.5, True, None], ids=["int", "float", "bool", "none"])
@pytest.mark.parametrize("rows_with_key", [[27], range(40)], ids=["one-record", "every-record"])
def test_non_str_key_deep_in_a_column_of_records_raises_type_error(key, rows_with_key):
    rows = [{"id": i, "path": {"nodes": [i, i + 1], "tags": {"k": [i]}}} for i in range(40)]
    for i in rows_with_key:
        rows[i]["path"]["tags"] = {key: [i]}
    with pytest.raises(TypeError):
        canonical_dumps(rows)
