"""Germ-spec documents: the JSON exchange format of the command line.

Kinds:
    {"kind": "swallowtail-data", "xi": [e,e,e], "b": [e,e,e], "a": 0.0}
    {"kind": "asymptotic-data",  "xi": [e,e,e], "q": e, "r": [e,e,e], "a": 0.0}
    {"kind": "raw-germ",         "f":  [e,e,e], "a": 0.0}
    {"kind": "curve",            "gamma": [e,e,e]}

where each e is an expression string over u, v in the package grammar.
Serialization is deterministic: insertion-ordered keys and %.12g floats,
so identical inputs give byte-identical reports.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .builder import AsymptoticData, SwallowtailData, build
from .curves import CurveGerm
from .frontal import MapGerm
from .jets import ParseError
from .metric import SpaceForm


class SpecError(ValueError):
    pass


def _expr_list(doc, key):
    if key not in doc or not isinstance(doc[key], (list, tuple)) or len(doc[key]) != 3:
        raise SpecError(f"field {key!r} must be a list of 3 expression strings")
    return tuple(str(e) for e in doc[key])


def _kind(doc):
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SpecError("germ spec must be an object with a 'kind' field")
    return doc["kind"]


def _curvature(doc):
    """The model parameter a of a document: a finite number, 0 by default."""
    try:
        a = float(doc.get("a", 0.0))
    except (TypeError, ValueError):
        a = math.nan
    if not math.isfinite(a):
        raise SpecError(f"field 'a' must be a finite number, got {doc.get('a')!r}")
    return a


def load_data(doc):
    """Data object (not a built germ) of a swallowtail-data or asymptotic-data
    document."""
    kind = _kind(doc)
    try:
        if kind == "swallowtail-data":
            data = SwallowtailData(xi=_expr_list(doc, "xi"), b=_expr_list(doc, "b"))
        elif kind == "asymptotic-data":
            if "q" not in doc:
                raise SpecError("asymptotic-data needs a 'q' expression")
            data = AsymptoticData(xi=_expr_list(doc, "xi"), q=str(doc["q"]),
                                  r=_expr_list(doc, "r"))
        else:
            raise SpecError(f"deformations need data documents, got kind {kind!r}")
    except ParseError as exc:
        raise SpecError(f"bad expression: {exc}") from exc
    return data


def load(doc):
    """Returns ('germ', MapGerm) or ('curve', CurveGerm)."""
    kind = _kind(doc)
    try:
        if kind in ("swallowtail-data", "asymptotic-data"):
            return "germ", build(load_data(doc), a=_curvature(doc))
        if kind == "raw-germ":
            return "germ", MapGerm.from_exprs(_expr_list(doc, "f"),
                                              sf=SpaceForm(_curvature(doc)))
        if kind == "curve":
            return "curve", CurveGerm(gamma=_expr_list(doc, "gamma"))
    except ParseError as exc:
        raise SpecError(f"bad expression: {exc}") from exc
    raise SpecError(f"unknown kind {kind!r}")


def _read(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise SpecError(f"cannot read germ spec {path}: {exc}") from exc


def load_file(path):
    return load(_read(path))


def load_data_file(path):
    doc = _read(path)
    return load_data(doc), _curvature(doc)


# ---------------------------------------------------------------------------
# Deterministic JSON output
# ---------------------------------------------------------------------------

def _fmt(x):
    if isinstance(x, float):
        if math.isnan(x):
            return "null"
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        return f"{x:.12g}"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int,)):
        return str(x)
    if x is None:
        return "null"
    if isinstance(x, str):
        return json.dumps(x)
    if isinstance(x, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {_fmt(v)}" for k, v in x.items())
        return "{" + items + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in x) + "]"
    if isinstance(x, np.floating):
        return _fmt(float(x))
    if isinstance(x, np.integer):
        return str(int(x))
    if isinstance(x, np.ndarray):
        return _fmt(x.tolist())
    if isinstance(x, np.bool_):
        return "true" if x else "false"
    raise TypeError(f"cannot serialize {type(x).__name__}")


def dumps(obj) -> str:
    """Deterministic JSON: stable key order, floats at 12 significant digits."""
    return _fmt(obj)
