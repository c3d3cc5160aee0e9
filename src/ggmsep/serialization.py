"""Deterministic JSON/CSV encoding and the on-disk document formats.

Matrix documents: ``{"p": <int>, "entries": [<p*p reals, row-major>]}``.
Edge-set documents: ``{"p": <int>, "edges": [[i, j], ...]}`` with i < j.
Candidate collections are a JSON array of edge-set documents.

Every document is written by ``dumps``, the standard library's encoder:
each float is the shortest repr that re-parses to the identical IEEE-754
double, and object keys are sorted, so equal values always serialize to
identical bytes. Every document is strict JSON: a non-finite float is the
string "Infinity", "-Infinity" or "NaN", which number_from_doc reads back.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from .core import CovarianceMatrix, EdgeSet, PrecisionMatrix

__all__ = [
    "dumps",
    "number_from_doc",
    "write_json",
    "matrix_doc",
    "precision_from_doc",
    "covariance_from_doc",
    "load_precision",
    "load_covariance",
    "edge_set_doc",
    "edge_set_from_doc",
    "load_edge_set",
    "load_candidates",
]


def _scalar(value: object) -> object:
    # json.dumps' fallback: a numpy scalar as its Python value
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps(value: object) -> str:
    """Deterministic strict JSON text: sorted keys, indent 2, each float
    the shortest repr that re-parses to the same double, numpy scalars as
    their Python values, a non-finite float as its string in the module
    docstring. A value whose floats are all finite takes one json.dumps."""
    try:
        return json.dumps(value, sort_keys=True, indent=2, default=_scalar, allow_nan=False)
    except ValueError:
        # non-finite floats, written as bare constants, parse back as their names
        return json.dumps(json.loads(json.dumps(value, sort_keys=True, default=_scalar), parse_constant=str), indent=2)


def number_from_doc(value: object) -> object:
    """The float whose string dumps wrote, or any other value as it is."""
    return float(value) if isinstance(value, str) and value in ("Infinity", "-Infinity", "NaN") else value


def write_json(path: Union[str, Path], value: object) -> Path:
    path = Path(path)
    path.write_text(dumps(value) + "\n")
    return path


def _read_json(path: Union[str, Path]) -> object:
    return json.loads(Path(path).read_text())


def _check_number(value: object, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def matrix_doc(m: Union[PrecisionMatrix, CovarianceMatrix]) -> dict:
    return {"p": m.p, "entries": [float(v) for v in m.matrix.ravel()]}


def _matrix_array(doc: object) -> np.ndarray:
    if not isinstance(doc, dict):
        raise ValueError("matrix document must be a JSON object")
    extra = set(doc) - {"p", "entries"}
    if extra:
        raise ValueError(f"unexpected matrix document keys: {sorted(extra)}")
    p = doc.get("p")
    entries = doc.get("entries")
    if isinstance(p, bool) or not isinstance(p, int) or p < 2:
        raise ValueError(f"p must be an integer >= 2, got {p!r}")
    if not isinstance(entries, list) or len(entries) != p * p:
        raise ValueError(f"entries must be a list of {p}*{p} numbers")
    values = [_check_number(v, "matrix entry") for v in entries]
    return np.array(values, dtype=float).reshape(p, p)


def precision_from_doc(doc: object) -> PrecisionMatrix:
    return PrecisionMatrix(_matrix_array(doc))


def covariance_from_doc(doc: object) -> CovarianceMatrix:
    return CovarianceMatrix(_matrix_array(doc))


def load_precision(path: Union[str, Path]) -> PrecisionMatrix:
    return precision_from_doc(_read_json(path))


def load_covariance(path: Union[str, Path]) -> CovarianceMatrix:
    return covariance_from_doc(_read_json(path))


def edge_set_doc(edge_set: EdgeSet) -> dict:
    return {"p": edge_set.p, "edges": [[i, j] for i, j in sorted(edge_set.edges)]}


def edge_set_from_doc(doc: object) -> EdgeSet:
    if not isinstance(doc, dict):
        raise ValueError("edge-set document must be a JSON object")
    extra = set(doc) - {"p", "edges"}
    if extra:
        raise ValueError(f"unexpected edge-set document keys: {sorted(extra)}")
    edges = doc.get("edges")
    if not isinstance(edges, list):
        raise ValueError("edges must be a list of [i, j] pairs")
    for item in edges:
        if not isinstance(item, list) or len(item) != 2:
            raise ValueError(f"each edge must be an [i, j] pair, got {item!r}")
    # EdgeSet rejects a p or an endpoint that is not an integer
    return EdgeSet(doc.get("p"), edges)


def load_edge_set(path: Union[str, Path]) -> EdgeSet:
    return edge_set_from_doc(_read_json(path))


def load_candidates(path: Union[str, Path]) -> list[EdgeSet]:
    doc = _read_json(path)
    if not isinstance(doc, list) or not doc:
        raise ValueError("candidates file must be a nonempty JSON array of edge-set documents")
    return [edge_set_from_doc(item) for item in doc]
