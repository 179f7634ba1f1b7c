"""Property test of the loader: any input yields a Hypergraph or a FormatError."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from factorlab.hypergraph import FormatError, Hypergraph, load_hypergraph

FUZZ = settings(derandomize=True, max_examples=100, deadline=None)

ints = st.integers(min_value=-3, max_value=12) | st.integers()
json_values = st.recursive(
    st.none() | st.booleans() | ints | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=20,
)


def loads_or_rejects(source) -> None:
    try:
        assert isinstance(load_hypergraph(source), Hypergraph)
    except FormatError:
        pass


@FUZZ
@given(st.binary(max_size=200))
def test_random_bytes(data):
    loads_or_rejects(data)


@FUZZ
@given(st.lists(st.text(alphabet="0123456789 -#x\t", max_size=12), min_size=1, max_size=6),
       st.tuples(ints, ints, ints))
def test_random_text_headers(body, header):
    loads_or_rejects(" ".join(map(str, header)) + "\n" + "\n".join(body))


@FUZZ
@given(st.fixed_dictionaries({}, optional={"k": json_values | ints, "n": json_values | ints,
                                           "edges": json_values | st.lists(st.lists(ints, max_size=4),
                                                                           max_size=4)}),
       st.dictionaries(st.text(max_size=3), json_values, max_size=2))
def test_random_json_objects(obj, extra):
    loads_or_rejects(json.dumps({**extra, **obj}))


@FUZZ
@given(json_values)
def test_random_json_values(value):
    loads_or_rejects("{" + json.dumps(value))
    loads_or_rejects(json.dumps(value))
