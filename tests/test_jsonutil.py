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
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        # The keys of one dict share a type, since json sorts them.
        *(
            st.dictionaries(key, inner, max_size=4)
            for key in (texts, st.integers(), st.floats(), st.booleans(), st.none())
        ),
    ),
    max_leaves=20,
)


@given(values)
@example(-0.0)
@example([float("inf"), float("-inf"), float("nan")])
@example({"": {}, "a": [], "b": [[], {}, ()], "c": [{"d": [1, [2, {"e": None}]]}]})
@example({10: "ten", 9: "nine", -1: True})
@example(2**1000)
def test_canonical_dumps_matches_json_dumps(value):
    assert canonical_dumps(value) == reference(value)


class _Int(int):
    pass


@pytest.mark.parametrize(
    "value",
    [set(), b"bytes", Fraction(1, 2), object(), _Int(3), [1, {2}], {"a": {"b": b""}}, {(1, 2): 0}],
    ids=["set", "bytes", "fraction", "object", "int-subclass", "in-list", "in-dict", "tuple-key"],
)
def test_unsupported_type_raises_type_error(value):
    with pytest.raises(TypeError):
        canonical_dumps(value)
