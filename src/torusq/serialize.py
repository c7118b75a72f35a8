"""Deterministic JSON and CSV interchange for the package's value types.

Numbers are emitted with 17 significant digits, which round-trips every
double exactly, and field order is fixed, so identical inputs always
produce byte-identical output.  Loaders validate the schema and raise
FormatError for malformed documents, DimensionError for internally
inconsistent sizes.
"""
from __future__ import annotations

import csv
import io
import json
import math
import sys

import numpy as np

from .errors import DimensionError, DomainError, FormatError
from .rep import Representation
from .symbols import SampledSymbol, TrigPolynomial
from .wigner import KIND_OPERATOR, KIND_STATE_PAIR, WignerTable

__all__ = [
    "dumps",
    "loads",
    "trig_to_json",
    "trig_from_json",
    "sampled_to_json",
    "sampled_from_json",
    "operator_to_json",
    "operator_from_json",
    "wigner_to_json",
    "wigner_from_json",
    "state_to_json",
    "state_from_json",
    "lattice_csv",
]


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise DomainError("cannot serialize a non-finite number")
    return format(float(x), ".17g")


def _emit(obj, parts: list):
    if isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(_format_float(float(obj)))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                parts.append(",")
            parts.append(json.dumps(str(key)))
            parts.append(":")
            _emit(value, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, value in enumerate(obj):
            if i:
                parts.append(",")
            _emit(value, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Serialize to JSON text with fixed field order and 17-digit floats."""
    parts: list = []
    _emit(obj, parts)
    return "".join(parts)


def _reject_constant(name):
    raise FormatError(f"non-finite JSON constant {name!r} is not allowed")


def loads(text: str):
    """Parse JSON text, rejecting NaN and Infinity."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except FormatError:
        raise
    except ValueError as exc:  # malformed text, or an integer past Python's digit limit
        raise FormatError(f"invalid JSON: {exc}") from exc


def _as_obj(source):
    return loads(source) if isinstance(source, str) else source


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"{where} must be a number, got {value!r}")
    # An integer past the float range is as unusable as an infinity.
    if (isinstance(value, int) and abs(value) > sys.float_info.max) or not math.isfinite(value):
        raise FormatError(f"{where} must be finite, got {value!r}")
    return float(value)


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{where} must be an integer, got {value!r}")
    return value


def _pair(value, where: str) -> complex:
    if not isinstance(value, list) or len(value) != 2:
        raise FormatError(f"{where} must be an [re, im] pair, got {value!r}")
    return complex(_number(value[0], where), _number(value[1], where))


def _field(obj, key: str, where: str):
    if not isinstance(obj, dict):
        raise FormatError(f"{where} must be a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise FormatError(f"{where} is missing the {key!r} field")
    return obj[key]


def _complex_list(values, where: str) -> np.ndarray:
    if not isinstance(values, list):
        raise FormatError(f"{where} must be an array of [re, im] pairs")
    return np.array([_pair(v, where) for v in values], dtype=complex)


def _pairs(array: np.ndarray) -> list:
    flat = np.asarray(array, dtype=complex).ravel()
    return [[float(z.real), float(z.imag)] for z in flat]


def trig_to_json(tp: TrigPolynomial) -> str:
    """Array of {n1, n2, re, im} rows sorted by frequency."""
    rows = [
        {"n1": n1, "n2": n2, "re": float(c.real), "im": float(c.imag)}
        for (n1, n2), c in sorted(tp.items())
    ]
    return dumps(rows)


def trig_from_json(source) -> TrigPolynomial:
    obj = _as_obj(source)
    if not isinstance(obj, list):
        raise FormatError("trig polynomial document must be a JSON array")
    coeffs: dict = {}
    for row in obj:
        n1 = _integer(_field(row, "n1", "trig polynomial row"), "n1")
        n2 = _integer(_field(row, "n2", "trig polynomial row"), "n2")
        re = _number(_field(row, "re", "trig polynomial row"), "re")
        im = _number(_field(row, "im", "trig polynomial row"), "im")
        # Past 2**53 a frequency is no longer an exact float, so its phases are noise.
        if max(abs(n1), abs(n2)) >= 2**53:
            raise DomainError(f"frequency ({n1}, {n2}) is not below 2**53 in magnitude")
        key = (n1, n2)
        coeffs[key] = coeffs.get(key, 0j) + complex(re, im)
    return TrigPolynomial(coeffs)


def sampled_to_json(sym: SampledSymbol, extra: dict | None = None) -> str:
    doc = {
        "theta1": sym.rep.theta1,
        "theta2": sym.rep.theta2,
        "N": sym.rep.dim,
        "grid": _pairs(sym.grid),
    }
    if extra:
        doc.update(extra)
    return dumps(doc)


def sampled_from_json(source) -> SampledSymbol:
    obj = _as_obj(source)
    theta1 = _number(_field(obj, "theta1", "sampled symbol"), "theta1")
    theta2 = _number(_field(obj, "theta2", "sampled symbol"), "theta2")
    dim = _integer(_field(obj, "N", "sampled symbol"), "N")
    if dim < 1:
        raise FormatError(f"N must be positive, got {dim}")
    values = _complex_list(_field(obj, "grid", "sampled symbol"), "grid entry")
    side = 2 * dim
    if values.size != side * side:
        raise DimensionError(
            f"sampled symbol grid has {values.size} entries, expected {side * side}"
        )
    return SampledSymbol(values.reshape(side, side), Representation(theta1, theta2, dim))


def operator_to_json(operator) -> str:
    a = np.asarray(operator, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"operator must be square, got shape {a.shape}")
    return dumps({"N": a.shape[0], "entries": _pairs(a)})


def operator_from_json(source) -> np.ndarray:
    obj = _as_obj(source)
    dim = _integer(_field(obj, "N", "operator"), "N")
    if dim < 1:
        raise FormatError(f"N must be positive, got {dim}")
    values = _complex_list(_field(obj, "entries", "operator"), "operator entry")
    if values.size != dim * dim:
        raise DimensionError(f"operator has {values.size} entries, expected {dim * dim}")
    return values.reshape(dim, dim)


def wigner_to_json(table: WignerTable, extra: dict | None = None) -> str:
    doc = {
        "theta1": table.rep.theta1,
        "theta2": table.rep.theta2,
        "N": table.rep.dim,
        "kind": table.kind,
        "grid": _pairs(table.grid),
    }
    if extra:
        doc.update(extra)
    return dumps(doc)


def wigner_from_json(source) -> WignerTable:
    obj = _as_obj(source)
    theta1 = _number(_field(obj, "theta1", "Wigner table"), "theta1")
    theta2 = _number(_field(obj, "theta2", "Wigner table"), "theta2")
    dim = _integer(_field(obj, "N", "Wigner table"), "N")
    if dim < 1:
        raise FormatError(f"N must be positive, got {dim}")
    kind = _field(obj, "kind", "Wigner table")
    if kind not in (KIND_STATE_PAIR, KIND_OPERATOR):
        raise FormatError(f"unknown Wigner table kind {kind!r}")
    values = _complex_list(_field(obj, "grid", "Wigner table"), "grid entry")
    side = 2 * dim
    if values.size != side * side:
        raise DimensionError(
            f"Wigner table grid has {values.size} entries, expected {side * side}"
        )
    return WignerTable(values.reshape(side, side), Representation(theta1, theta2, dim), kind)


def state_to_json(psi) -> str:
    vec = np.asarray(psi, dtype=complex)
    if vec.ndim != 1:
        raise DimensionError(f"state must be a vector, got shape {vec.shape}")
    return dumps(_pairs(vec))


def state_from_json(source) -> np.ndarray:
    obj = _as_obj(source)
    if not isinstance(obj, list) or not obj:
        raise FormatError("state document must be a non-empty JSON array")
    return _complex_list(obj, "state entry")


def lattice_csv(grid, rep: Representation) -> str:
    """CSV rendering of a 2N x 2N grid with lattice coordinates up front.

    Columns are x, p, re, im; rows run in row-major grid order with the
    coordinates reduced mod 1.  Presentation only, not a round-trip format.
    """
    g = np.asarray(grid, dtype=complex)
    side = 2 * rep.dim
    if g.shape != (side, side):
        raise DimensionError(f"grid must be {side} x {side}, got shape {g.shape}")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["x", "p", "re", "im"])
    for r in range(side):
        x = (r / side + rep.theta1 / rep.dim) % 1.0
        for s in range(side):
            p = (s / side + rep.theta2 / rep.dim) % 1.0
            writer.writerow(
                [
                    _format_float(x),
                    _format_float(p),
                    _format_float(g[r, s].real),
                    _format_float(g[r, s].imag),
                ]
            )
    return buffer.getvalue()
