"""Deterministic JSON/CSV encoding and the on-disk document formats.

Matrix documents: ``{"p": <int>, "entries": [<p*p reals, row-major>]}``.
Edge-set documents: ``{"p": <int>, "edges": [[i, j], ...]}`` with i < j.
Candidate collections are a JSON array of edge-set documents.

Floats are written with 17 significant digits, enough to reproduce the
exact IEEE-754 double on re-parse, and object keys are sorted, so equal
values always serialize to identical bytes.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Mapping
from pathlib import Path
from typing import Union

import numpy as np

from .core import CovarianceMatrix, EdgeSet, PrecisionMatrix

__all__ = [
    "format_float",
    "dumps",
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


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def format_float(value: float) -> str:
    """17-significant-digit decimal that re-parses to the identical double."""
    text = format(value, ".17g")
    if "." in text or "e" in text:
        return text
    return _NON_FINITE.get(text, text + ".0")


@functools.lru_cache(maxsize=1024)
def _key_text(key: str) -> str:
    # an object key as JSON text; reports repeat a few keys many times
    return json.dumps(key)


def _encode(value: object, depth: int) -> str:
    # float first: most of a report's values are floats (np.float64 too)
    if isinstance(value, float):
        return format_float(float(value))
    if isinstance(value, (np.bool_, bool)):
        return "true" if value else "false"
    if isinstance(value, np.floating):
        return format_float(float(value))
    if isinstance(value, (np.integer, int)):
        return str(int(value))
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    pad = "  " * (depth + 1)
    close_pad = "  " * depth
    if isinstance(value, Mapping):
        if not value:
            return "{}"
        items = [
            f"{pad}{_key_text(str(key))}: {_encode(value[key], depth + 1)}"
            for key in sorted(value)
        ]
        return "{\n" + ",\n".join(items) + "\n" + close_pad + "}"
    if isinstance(value, (list, tuple)):
        if not len(value):
            return "[]"
        items = [f"{pad}{_encode(item, depth + 1)}" for item in value]
        return "[\n" + ",\n".join(items) + "\n" + close_pad + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps(value: object) -> str:
    """Deterministic JSON text: sorted keys, 17-significant-digit floats, indent 2."""
    return _encode(value, 0)


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
