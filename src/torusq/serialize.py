"""Deterministic JSON and CSV interchange for the package's value types.

Numbers are emitted with 17 significant digits, which round-trips every
double exactly but the sign of a zero (-0.0 is written -0, which JSON reads
as the integer 0, so it comes back as +0.0), and field order is fixed, so
identical inputs always produce byte-identical output.  A numpy array is
written from its own float view as the flat list of [re, im] pairs of its
entries in row-major order; a loader fills a fresh complex array from that
flat list in one pass, and SampledSymbol and WignerTable adopt a loaded grid
without a copy.  Loaders validate the schema and raise FormatError for
malformed documents, DimensionError for internally inconsistent sizes;
trig_from_json raises DomainError for a frequency of magnitude 2**53 or
more, and dumps for a non-finite number.  operator_to_json, state_to_json
and lattice_csv refuse an empty or misshapen array and a non-finite entry.
"""
from __future__ import annotations

import itertools
import json
import math
import sys

import numpy as np

from .errors import DimensionError, DomainError, FormatError
from .rep import Representation, _checked
from .symbols import SampledSymbol, TrigPolynomial, _handed_over
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


_NON_FINITE = "cannot serialize a non-finite number"


def _format_rows(row: str, table: np.ndarray, sep: str = "") -> str:
    """Each row of a real table through the %-template row, joined by sep."""
    if not np.all(np.isfinite(table)):
        raise DomainError(_NON_FINITE)
    return sep.join([row] * len(table)) % tuple(table.ravel().tolist())


def dumps(obj) -> str:
    """Serialize to JSON text with fixed field order and 17-digit floats.

    A numpy array becomes the flat list of [re, im] pairs of its entries.
    """
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise DomainError(_NON_FINITE)
        return "%.17g" % obj
    if isinstance(obj, np.ndarray):
        pairs = np.asarray(obj, dtype=complex).reshape(-1, 1).view(float)
        return "[" + _format_rows("[%.17g,%.17g]", pairs, ",") + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(json.dumps(str(key)) + ":" + dumps(value) for key, value in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(dumps, obj)) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


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


def _dimension(obj, what: str) -> int:
    dim = _integer(_field(obj, "N", what), "N")
    if dim < 1:
        raise FormatError(f"N must be positive, got {dim}")
    return dim


def _complex_list(values, where: str, shape: tuple, owner: str) -> np.ndarray:
    """A list of [re, im] pairs as a fresh complex array of the given shape, which owns its data."""
    if not isinstance(values, list):
        raise FormatError(f"{where} must be an array of [re, im] pairs")
    # The length is checked before any entry is converted or the array allocated.
    if len(values) != math.prod(shape):
        raise DimensionError(f"{owner} has {len(values)} entries, expected {math.prod(shape)}")
    out = np.empty(shape, dtype=complex)
    # One pass fills it when every entry is a list of two JSON numbers; anything else,
    # numeric strings and bools included (numpy would take them), goes to the loop,
    # which names the first bad entry.  So do values at the float maximum: an
    # integer just past it rounds down to it.
    if set(map(type, values)) <= {list} and set(map(len, values)) <= {2}:
        flat = list(itertools.chain.from_iterable(values))
        if set(map(type, flat)) <= {int, float}:
            parts = out.reshape(-1).view(float)
            try:
                parts[:] = flat
            except OverflowError:  # an integer past the float range
                pass
            else:
                if -sys.float_info.max < parts.min() and parts.max() < sys.float_info.max:
                    return out
    out.reshape(-1)[:] = [_pair(v, where) for v in values]
    return out


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
        n1, n2 = (_integer(_field(row, key, "trig polynomial row"), key) for key in ("n1", "n2"))
        re, im = (_number(_field(row, key, "trig polynomial row"), key) for key in ("re", "im"))
        # Past 2**53 a frequency is no longer an exact float, so its phases are noise.
        if max(abs(n1), abs(n2)) >= 2**53:
            raise DomainError(f"frequency ({n1}, {n2}) is not below 2**53 in magnitude")
        key = (n1, n2)
        coeffs[key] = coeffs.get(key, 0j) + complex(re, im)
    return TrigPolynomial(coeffs)


def _lattice_to_json(grid, rep: Representation, extra: dict | None, **fields) -> str:
    """Lattice document {theta1, theta2, N, *fields, grid, *extra}."""
    doc = {"theta1": rep.theta1, "theta2": rep.theta2, "N": rep.dim, **fields, "grid": grid}
    if extra:
        doc.update(extra)
    return dumps(doc)


def _lattice_from_json(source, what: str, with_kind: bool = False) -> tuple:
    """Arguments (grid, rep[, kind]) of the object a lattice document describes."""
    obj = _as_obj(source)
    theta1 = _number(_field(obj, "theta1", what), "theta1")
    theta2 = _number(_field(obj, "theta2", what), "theta2")
    dim = _dimension(obj, what)
    tail = ()
    if with_kind:
        kind = _field(obj, "kind", what)
        if kind not in (KIND_STATE_PAIR, KIND_OPERATOR):
            raise FormatError(f"unknown {what} kind {kind!r}")
        tail = (kind,)
    grid = _complex_list(_field(obj, "grid", what), "grid entry", (2 * dim, 2 * dim), f"{what} grid")
    return (_handed_over(grid), Representation(theta1, theta2, dim), *tail)


def sampled_to_json(sym: SampledSymbol, extra: dict | None = None) -> str:
    return _lattice_to_json(sym.grid, sym.rep, extra)


def sampled_from_json(source) -> SampledSymbol:
    return SampledSymbol(*_lattice_from_json(source, "sampled symbol"))


def operator_to_json(operator) -> str:
    a = _checked(operator, "operator", (None, None))
    return dumps({"N": a.shape[0], "entries": a})


def operator_from_json(source) -> np.ndarray:
    obj = _as_obj(source)
    dim = _dimension(obj, "operator")
    return _complex_list(_field(obj, "entries", "operator"), "operator entry", (dim, dim), "operator")


def wigner_to_json(table: WignerTable, extra: dict | None = None) -> str:
    return _lattice_to_json(table.grid, table.rep, extra, kind=table.kind)


def wigner_from_json(source) -> WignerTable:
    return WignerTable(*_lattice_from_json(source, "Wigner table", with_kind=True))


def state_to_json(psi) -> str:
    return dumps(_checked(psi, "state", (None,)))


def state_from_json(source) -> np.ndarray:
    obj = _as_obj(source)
    if not isinstance(obj, list) or not obj:
        raise FormatError("state document must be a non-empty JSON array")
    return _complex_list(obj, "state entry", (len(obj),), "state")


def lattice_csv(grid, rep: Representation) -> str:
    """CSV rendering of a 2N x 2N grid with lattice coordinates up front.

    Columns are x, p, re, im; rows run in row-major grid order with the
    coordinates reduced mod 1.  Presentation only, not a round-trip format.
    """
    side = 2 * rep.dim
    g = _checked(grid, "grid", (side, side))
    x = (np.arange(side) / side + rep.theta1 / rep.dim) % 1.0
    p = (np.arange(side) / side + rep.theta2 / rep.dim) % 1.0
    table = np.column_stack((np.repeat(x, side), np.tile(p, side), g.real.ravel(), g.imag.ravel()))
    return "x,p,re,im\n" + _format_rows("%.17g,%.17g,%.17g,%.17g\n", table)
