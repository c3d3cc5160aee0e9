"""Deterministic JSON encoding and the on-disk document formats."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggmsep import EdgeSet, PrecisionMatrix, random_sparse_precision
from ggmsep.serialization import (
    _scalar,
    dumps,
    edge_set_doc,
    edge_set_from_doc,
    load_candidates,
    load_precision,
    matrix_doc,
    number_from_doc,
    precision_from_doc,
    write_json,
)


def _no_constant(token):
    raise AssertionError(f"non-strict JSON constant {token}")


class TestFormatFloat:
    """dumps of one float: the shortest repr that re-parses to the same double."""

    @pytest.mark.parametrize(
        "value",
        [0.0, -0.0, 1.0, 2.0, 0.5, 1 / 3, math.pi, 1e-300, 6.02e23, -1.7976931348623157e308, 5e-324, 1e16],
    )
    def test_roundtrip_exact(self, value):
        text = dumps(value)
        assert text == repr(value)
        # bit-exact, including signed zero
        assert json.loads(text).hex() == value.hex()

    def test_integral_values_stay_floats(self):
        assert dumps(2.0) == "2.0"
        assert dumps(1e16) == "1e+16"
        assert type(json.loads(dumps(1e16))) is float

    def test_non_finite_floats_are_strings_that_read_back(self):
        # they were the tokens Infinity, -Infinity and NaN, which strict
        # JSON parsers reject
        assert dumps({"a": math.inf, "b": -math.inf, "c": np.float32("nan")}) == (
            '{\n  "a": "Infinity",\n  "b": "-Infinity",\n  "c": "NaN"\n}'
        )
        assert number_from_doc(json.loads(dumps(math.inf), parse_constant=_no_constant)) == math.inf
        assert number_from_doc(json.loads(dumps(-math.inf), parse_constant=_no_constant)) == -math.inf
        assert math.isnan(number_from_doc(json.loads(dumps(math.nan), parse_constant=_no_constant)))
        assert [number_from_doc(v) for v in ("inf", "Inf", 1.5, None, [1])] == ["inf", "Inf", 1.5, None, [1]]
        # keys keep the order of a document whose floats are all finite
        assert dumps({10: math.inf, 2: 1.0}) == dumps({10: 0.5, 2: 1.0}).replace("0.5", '"Infinity"')


def _plain(value):
    # the Python value a document parses back to
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value.item() if isinstance(value, np.generic) else value


def _decoded(value):
    # the document with each non-finite float read back from its string
    if isinstance(value, dict):
        return {key: _decoded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_decoded(item) for item in value]
    return number_from_doc(value)


def _all_finite(value):
    if isinstance(value, dict):
        return all(map(_all_finite, value.values()))
    if isinstance(value, list):
        return all(map(_all_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


def _same_bits(a, b):
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_bits(a[key], b[key]) for key in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same_bits, a, b))
    if isinstance(a, float):
        return math.isnan(a) and math.isnan(b) or a.hex() == b.hex()
    return a == b


_doubles = st.floats(allow_subnormal=True)
_leaves = st.one_of(
    _doubles,
    _doubles.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.integers(),
    st.booleans(),
    st.none(),
)
_documents = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_documents)
def test_documents_parse_back_bit_for_bit_and_re_encode_identically(doc):
    text = dumps(doc)
    parsed = json.loads(text, parse_constant=_no_constant)
    assert _same_bits(_decoded(parsed), _plain(doc))
    assert dumps(parsed) == text
    if _all_finite(_plain(doc)):
        # the single encoder call, and bytes, of a document with finite floats
        assert text == json.dumps(doc, sort_keys=True, indent=2, default=_scalar)


class TestDumps:
    def test_sorted_keys_and_stable_bytes(self):
        doc = {"b": [1, 2.5, None, True], "a": {"y": 0.1, "x": "text"}}
        first = dumps(doc)
        second = dumps({"a": {"x": "text", "y": 0.1}, "b": [1, 2.5, None, True]})
        assert first == second
        assert first.index('"a"') < first.index('"b"')

    def test_layout(self):
        doc = {"b": [1, True, None, "x"], "a": {}, "c": ()}
        assert dumps(doc) == '{\n  "a": {},\n  "b": [\n    1,\n    true,\n    null,\n    "x"\n  ],\n  "c": []\n}'

    def test_numpy_scalars(self):
        doc = {"i": np.int64(3), "f": np.float64(0.25), "b": np.bool_(True)}
        assert json.loads(dumps(doc)) == {"i": 3, "f": 0.25, "b": True}

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError, match="cannot serialize object"):
            dumps({"x": object()})

    def test_parses_back(self):
        doc = {"values": [1.0, -2.5, 1e-12], "empty": [], "none": None}
        assert json.loads(dumps(doc)) == doc


class TestMatrixDocuments:
    def test_roundtrip_bit_identical(self):
        theta = random_sparse_precision(6, np.random.default_rng(0))
        doc = json.loads(dumps(matrix_doc(theta)))
        again = precision_from_doc(doc)
        assert np.array_equal(again.matrix, theta.matrix)

    def test_row_major_layout(self):
        theta = PrecisionMatrix([[2.0, 0.5], [0.5, 3.0]])
        assert matrix_doc(theta)["entries"] == [2.0, 0.5, 0.5, 3.0]

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {"p": 2},
            {"p": 2, "entries": [1.0, 0.0, 0.0]},
            {"p": 1, "entries": [1.0]},
            {"p": True, "entries": [1.0, 0.0, 0.0, 1.0]},
            {"p": 2, "entries": [1.0, 0.0, 0.0, "x"]},
            {"p": 2, "entries": [1.0, 0.0, 0.0, 1.0], "extra": 1},
        ],
    )
    def test_malformed_documents_rejected(self, doc):
        with pytest.raises(ValueError):
            precision_from_doc(doc)

    def test_load_from_file(self, tmp_path):
        theta = random_sparse_precision(4, np.random.default_rng(1))
        path = write_json(tmp_path / "theta.json", matrix_doc(theta))
        assert np.array_equal(load_precision(path).matrix, theta.matrix)


class TestEdgeSetDocuments:
    def test_roundtrip(self):
        edges = EdgeSet(5, [(3, 1), (0, 4)])
        doc = edge_set_doc(edges)
        assert doc == {"p": 5, "edges": [[0, 4], [1, 3]]}
        assert edge_set_from_doc(json.loads(dumps(doc))) == edges

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            edge_set_from_doc({"p": 3, "edges": [[0, 1, 2]]})
        with pytest.raises(ValueError):
            edge_set_from_doc({"p": 3, "edges": [[0, 0]]})
        with pytest.raises(ValueError):
            edge_set_from_doc({"p": 3, "edges": "nope"})

    @pytest.mark.parametrize("doc, message", [
        ([3, [[0, 1]]], "JSON object"), ("edges", "JSON object"), (None, "JSON object"),
        ({"p": 3, "edges": [], "weights": []}, "weights"),
    ])
    def test_rejects_a_non_object_and_unknown_keys(self, doc, message):
        with pytest.raises(ValueError, match=message):
            edge_set_from_doc(doc)

    def test_candidates_file(self, tmp_path):
        docs = [edge_set_doc(EdgeSet(3, [(0, 1)])), edge_set_doc(EdgeSet(3))]
        path = tmp_path / "candidates.json"
        path.write_text(dumps(docs))
        loaded = load_candidates(path)
        assert loaded == [EdgeSet(3, [(0, 1)]), EdgeSet(3)]
        with pytest.raises(ValueError):
            load_candidates(write_json(tmp_path / "empty.json", []))
