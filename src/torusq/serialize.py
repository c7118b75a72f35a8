"""Deterministic JSON and CSV interchange for the package's value types.

Numbers are emitted with 17 significant digits, which round-trips every
double exactly but the sign of a zero (-0.0 is written -0, which JSON reads
as the integer 0, so it comes back as +0.0), and field order is fixed, so
identical inputs always produce byte-identical output.  A numpy array is
written from its own float view as the flat list of [re, im] pairs of its
entries in row-major order, formatted _CHUNK entries at a time.  A 2N x 2N
grid whose ghost blocks carry its principal block's magnitudes part by part,
as every dequantized symbol and Wigner table does (S1 to S3 only flip signs),
is written from the N x N magnitudes: %.17g writes a finite double as its
sign, then its magnitude, so formatting each magnitude once gives the same
bytes.  A loader fills a fresh complex array from the flat list in one
pass, and SampledSymbol and WignerTable adopt a loaded grid without a
copy.  loads parses text, or bytes as strict UTF-8, and raises
FormatError for whatever it cannot parse, nesting past Python's recursion
limit included.  Loaders validate the schema and raise FormatError for
malformed documents, DimensionError for internally inconsistent sizes, and
quote a document value cut short by errors._shown; trig_from_json raises
DomainError for a frequency of magnitude 2**53 or more, and dumps for a
non-finite number.  operator_to_json, state_to_json and lattice_csv refuse
an empty or misshapen array and a non-finite entry.
"""
from __future__ import annotations

import itertools
import json
import math
import sys

import numpy as np

from .errors import DimensionError, DomainError, FormatError, _shown
from .rep import Representation, _checked, _past_float_range
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

# Rows of a table, or entries of an array, formatted through one template at a time.
_CHUNK = 512

_SIGNS = np.array(["", "-"], dtype=object)  # the text of a clear and of a set sign bit


def _format_rows(row: str, table: np.ndarray, sep: str = "") -> str:
    """Each row of a finite real table through the %-template row, joined by sep, _CHUNK rows at a time."""
    return sep.join(
        sep.join([row] * len(rows)) % tuple(rows.ravel().tolist())
        for rows in (table[start : start + _CHUNK] for start in range(0, len(table), _CHUNK))
    )


def _mirrored(pairs: np.ndarray, n: int) -> bool:
    """Whether each part of the three ghost blocks of a finite 2N x 2N grid, given as its pairs of
    floats, has the magnitude of the same part of the principal block, as S1 to S3 give them.  For
    finite magnitudes, which are never -0.0, equal is the same as equal bit for bit."""
    side = 2 * n
    parts = pairs.reshape(side, 2 * side)
    block = np.abs(parts[:n, :side])
    ghosts = parts[n:, :side], parts[:n, side:], parts[n:, side:]
    return all(np.array_equal(np.abs(ghost), block) for ghost in ghosts)


def _format_mirrored(pairs: np.ndarray, n: int) -> str:
    """The pair text of a grid for which _mirrored holds, byte for byte what _format_rows writes.

    %.17g writes a finite double as "-" when its sign bit is set, then the text of its magnitude,
    so only the principal block's magnitudes are formatted.  Each chunk of its rows serves the rows
    it mirrors in both halves of the grid, each part written with its own sign.
    """
    side = 2 * n
    parts = pairs.reshape(side, 2 * side)
    rows = max(1, _CHUNK // side)
    starts = range(0, n, rows)
    chunks = [""] * (2 * len(starts))
    for i, start in enumerate(starts):
        count = min(rows, n - start)
        # (row, half of the row, part, then its sign and its magnitude's text)
        pieces = np.empty((count, 2, side, 2), dtype=object)
        texts = _format_rows("%.17g", np.abs(parts[start : start + count, :side]).reshape(-1, 1), " ")
        pieces[..., 1] = np.array(texts.split(" "), dtype=object).reshape(count, 1, side)
        template = ",".join(["[%s%s,%s%s]"] * (count * side))
        for slot, first in ((i, start), (i + len(starts), start + n)):
            bits = np.signbit(parts[first : first + count]).view(np.uint8)
            pieces[..., 0] = _SIGNS[bits].reshape(count, 2, side)
            chunks[slot] = template % tuple(pieces.ravel().tolist())
    return ",".join(chunks)


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
        if not np.all(np.isfinite(pairs)):
            raise DomainError(_NON_FINITE)
        n = obj.shape[0] // 2 if obj.ndim == 2 else 0
        if n and obj.shape == (2 * n, 2 * n) and _mirrored(pairs, n):
            return "[" + _format_mirrored(pairs, n) + "]"
        return "[" + _format_rows("[%.17g,%.17g]", pairs, ",") + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(json.dumps(str(key)) + ":" + dumps(value) for key, value in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(dumps, obj)) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _reject_constant(name):
    raise FormatError(f"non-finite JSON constant {name!r} is not allowed")


def loads(data: str | bytes):
    """Parse JSON text, or bytes as strict UTF-8, rejecting NaN and Infinity; any failure is a FormatError."""
    try:
        # Rebinding data frees bytes whose only reference the caller handed over (Python >= 3.11).
        data = data.decode() if isinstance(data, bytes) else data
        return json.loads(data, parse_constant=_reject_constant)
    except FormatError:
        raise
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise FormatError(f"invalid JSON: {exc}") from exc


def _as_obj(source):
    return loads(source) if isinstance(source, (str, bytes)) else source


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"{where} must be a number, got {_shown(value)}")
    if _past_float_range(value) or not math.isfinite(value):
        raise FormatError(f"{where} must be finite, got {_shown(value)}")
    return float(value)


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{where} must be an integer, got {_shown(value)}")
    return value


def _pair(value, where: str) -> complex:
    if not isinstance(value, list) or len(value) != 2:
        raise FormatError(f"{where} must be an [re, im] pair, got {_shown(value)}")
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
        raise FormatError(f"N must be positive, got {_shown(dim)}")
    return dim


def _complex_list(values, where: str, shape: tuple, owner: str) -> np.ndarray:
    """A list of [re, im] pairs as a fresh complex array of the given shape, which owns its data."""
    if not isinstance(values, list):
        raise FormatError(f"{where} must be an array of [re, im] pairs")
    # The length is checked before any entry is converted or the array allocated.
    if len(values) != math.prod(shape):
        raise DimensionError(f"{owner} has {len(values)} entries, expected {_shown(math.prod(shape))}")
    out = np.empty(shape, dtype=complex)
    # One pass fills it, the only conversion, when every entry is a list of two numbers of the
    # types _pair takes; numeric strings and bools, which numpy would take, go to the walk below.
    if all(issubclass(t, list) for t in set(map(type, values))) and set(map(len, values)) <= {2}:
        flat = list(itertools.chain.from_iterable(values))
        if all(issubclass(t, (int, float)) and t is not bool for t in set(map(type, flat))):
            parts = out.reshape(-1).view(float)
            try:
                parts[:] = flat
            except OverflowError:  # an integer past the float range
                pass
            else:
                if -sys.float_info.max < parts.min() and parts.max() < sys.float_info.max:
                    return out
    # The walk names the first bad entry; finding none (a value at the float maximum), out holds all.
    for value in values:
        _pair(value, where)
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
            raise DomainError(f"frequency {_shown((n1, n2))} is not below 2**53 in magnitude")
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
            raise FormatError(f"unknown {what} kind {_shown(kind)}")
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
