import sys

import numpy as np
import pytest

from torusq import (
    DimensionError,
    DomainError,
    FormatError,
    KIND_OPERATOR,
    KIND_STATE_PAIR,
    Representation,
    SampledSymbol,
    TrigPolynomial,
    WignerTable,
)
from torusq.serialize import (
    dumps,
    lattice_csv,
    loads,
    operator_from_json,
    operator_to_json,
    sampled_from_json,
    sampled_to_json,
    state_from_json,
    state_to_json,
    trig_from_json,
    trig_to_json,
    wigner_from_json,
    wigner_to_json,
)


def test_dumps_is_deterministic():
    doc = {"N": 2, "grid": [[0.5, -1.0]], "name": "x"}
    assert dumps(doc) == dumps(doc)
    assert dumps(doc) == '{"N":2,"grid":[[0.5,-1]],"name":"x"}'
    # Branches no document kind reaches: bools before ints, tuples as lists,
    # numpy scalars, empty containers and non-string keys.
    doc = {"flags": (True, False), 7: np.int64(-3), "f": np.float32(0.1), "empty": [{}, []]}
    assert dumps(doc) == '{"flags":[true,false],"7":-3,"f":0.10000000149011612,"empty":[{},[]]}'
    with pytest.raises(TypeError, match="^cannot serialize object$"):
        dumps(object())


def test_dumps_round_trips_doubles():
    assert dumps(0.1) == "0.10000000000000001"
    assert dumps([1.0 / 3.0]) == "[0.33333333333333331]"
    for x in (0.1, 1e-300, 1234.5678e21, -7.25):
        assert float(dumps(x)) == x
    # A float alone and a float inside an array go through the same template.
    for x in (0.1, -0.0, 5e-324, 1.7976931348623157e308):
        assert dumps(np.array([x])) == f"[[{dumps(x)},0]]"


def test_dumps_rejects_non_finite():
    with pytest.raises(DomainError, match="^cannot serialize a non-finite number$"):
        dumps(float("nan"))
    with pytest.raises(ValueError):
        dumps([float("inf")])


@pytest.mark.parametrize(
    "value, text",
    [
        (-0.0, "-0"),
        (np.float64(-0.0), "-0"),
        (5e-324, "4.9406564584124654e-324"),
        (np.float64(2.5e-310), "2.5000000000000171e-310"),
        (sys.float_info.max, "1.7976931348623157e+308"),
        (np.float64(-sys.float_info.max), "-1.7976931348623157e+308"),
        (np.float32(0.1), "0.10000000149011612"),
    ],
)
def test_dumps_writes_a_scalar_float_as_the_array_path_does(value, text):
    assert dumps(value) == text
    assert dumps(np.array([value])) == f"[[{text},0]]"


@pytest.mark.parametrize("bad", [np.float64("nan"), np.float32("inf"), -float("inf")])
def test_dumps_refuses_a_non_finite_scalar(bad):
    with pytest.raises(DomainError, match="^cannot serialize a non-finite number$"):
        dumps({"t": bad})


def test_loads_rejects_non_finite_and_garbage():
    with pytest.raises(FormatError):
        loads("NaN")
    with pytest.raises(FormatError):
        loads("[1, Infinity]")
    with pytest.raises(FormatError):
        loads("{not json")


def test_trig_round_trip():
    tp = TrigPolynomial({(1, 0): 0.5 - 0.25j, (-2, 3): 1.75, (0, 0): -1.0})
    back = trig_from_json(trig_to_json(tp))
    assert back.coefficients() == tp.coefficients()


def test_trig_duplicate_rows_accumulate():
    text = (
        '[{"n1":1,"n2":0,"re":0.5,"im":0.0},'
        '{"n1":1,"n2":0,"re":0.25,"im":-1.0}]'
    )
    tp = trig_from_json(text)
    assert tp.coefficients() == {(1, 0): 0.75 - 1.0j}


def test_trig_schema_errors():
    with pytest.raises(FormatError):
        trig_from_json('{"n1":1}')
    with pytest.raises(FormatError):
        trig_from_json('[{"n1":1,"n2":0,"re":0.5}]')
    with pytest.raises(FormatError):
        trig_from_json('[{"n1":1.5,"n2":0,"re":0.5,"im":0.0}]')
    with pytest.raises(FormatError):
        trig_from_json('[{"n1":true,"n2":0,"re":0.5,"im":0.0}]')


def test_sampled_round_trip_is_bit_exact():
    rng = np.random.default_rng(51)
    rep = Representation(0.1234567890123456, 0.9876543210987654, 3)
    sym = SampledSymbol(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)), rep)
    back = sampled_from_json(sampled_to_json(sym))
    assert back.rep == sym.rep
    assert np.array_equal(back.grid, sym.grid)


def test_sampled_schema_errors():
    good = sampled_to_json(SampledSymbol(np.zeros((2, 2), dtype=complex), Representation(0, 0, 1)))
    obj = loads(good)
    for key in ("theta1", "theta2", "N", "grid"):
        broken = {k: v for k, v in obj.items() if k != key}
        with pytest.raises(FormatError):
            sampled_from_json(broken)
    with pytest.raises(DimensionError):
        sampled_from_json({**obj, "grid": obj["grid"][:3]})
    with pytest.raises(FormatError):
        sampled_from_json({**obj, "N": 0})
    with pytest.raises(FormatError):
        sampled_from_json({**obj, "theta1": True})


def test_sampled_ignores_unknown_keys():
    rep = Representation(0.25, 0.75, 1)
    sym = SampledSymbol(np.arange(4, dtype=complex).reshape(2, 2), rep)
    obj = loads(sampled_to_json(sym, extra={"comment": "anything"}))
    back = sampled_from_json(obj)
    assert np.array_equal(back.grid, sym.grid)


def test_lattice_readers_name_their_document():
    obj = loads(wigner_to_json(WignerTable(np.zeros((2, 2)), Representation(0, 0, 1), KIND_OPERATOR)))
    with pytest.raises(FormatError, match="Wigner table is missing the 'kind' field"):
        wigner_from_json({k: v for k, v in obj.items() if k != "kind"})
    with pytest.raises(FormatError, match="unknown Wigner table kind 'mystery'"):
        wigner_from_json({**obj, "kind": "mystery", "grid": "not a list"})
    with pytest.raises(DimensionError, match="Wigner table grid has 3 entries, expected 4"):
        wigner_from_json({**obj, "grid": obj["grid"][:3]})
    with pytest.raises(DimensionError, match="sampled symbol grid has 3 entries, expected 4"):
        sampled_from_json({**obj, "grid": obj["grid"][:3]})
    # The representation fields are read before the kind and the grid.
    with pytest.raises(FormatError, match="Wigner table is missing the 'theta1' field"):
        wigner_from_json({"N": 1})


def test_entry_count_is_checked_before_any_entry():
    # N = 1 asks for 4 grid entries or 1 operator entry; the string entry
    # would be a FormatError, but the count is refused before it is read.
    entries = [[0, 0], [0, 0], "x", [0, 0], [0, 0]]
    with pytest.raises(DimensionError, match="sampled symbol grid has 5 entries, expected 4"):
        sampled_from_json({"theta1": 0, "theta2": 0, "N": 1, "grid": entries})
    with pytest.raises(DimensionError, match="operator has 5 entries, expected 1"):
        operator_from_json({"N": 1, "entries": entries})


def test_operator_round_trip():
    rng = np.random.default_rng(52)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.array_equal(operator_from_json(operator_to_json(a)), a)


def test_operator_errors():
    with pytest.raises(DimensionError):
        operator_to_json(np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        operator_from_json('{"N":2,"entries":[[0,0],[0,0]]}')
    with pytest.raises(FormatError):
        operator_from_json('{"entries":[]}')
    with pytest.raises(FormatError):
        operator_from_json('{"N":2,"entries":[[0,0],[0,0],[0,0],"x"]}')


def test_grid_parse_matches_the_per_entry_conversion():
    # Integers (as dumps writes 2.0), -0.0, a subnormal, values near the float
    # maximum and an integer past int64, given directly and parsed from text
    # (where "-0" reads back as the integer 0).
    fmax = sys.float_info.max
    entries = [[2, -0.0], [-0.0, 5e-324], [2**70, -7], [-fmax, 0.1], [int(fmax), 1 / 3]]
    for values in (entries, loads(dumps(entries))):
        expected = np.array([complex(float(re), float(im)) for re, im in values]).view(float)
        for got in (
            state_from_json(values),
            operator_from_json({"N": 1, "entries": values[:1]}),
            sampled_from_json({"theta1": 0, "theta2": 0, "N": 1, "grid": values[:4]}).grid,
        ):
            assert got.dtype == complex
            got = got.ravel().view(float)
            want = expected[: got.size]
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize(
    "bad, message",
    [
        ([True, 0.0], "state entry must be a number, got True"),
        ([0.5, False], "state entry must be a number, got False"),
        (["0.5", 1.0], "state entry must be a number, got '0.5'"),
        ([1.0, None], "state entry must be a number, got None"),
        ([float("inf"), 0.0], "state entry must be finite, got inf"),
        ([0.0, float("nan")], "state entry must be finite, got nan"),
        ([0, int(sys.float_info.max) + 1], "state entry must be finite, got 1797"),
        ([10**400, 0], "state entry must be finite, got 1000"),
        ([1.0, 2.0, 3.0], r"state entry must be an \[re, im\] pair, got \[1.0, 2.0, 3.0\]"),
        ((1.0, 2.0), r"state entry must be an \[re, im\] pair, got \(1.0, 2.0\)"),
        (0.5, r"state entry must be an \[re, im\] pair, got 0.5"),
    ],
)
def test_grid_parse_names_the_first_bad_entry(bad, message):
    good = [[0.25, -1], [3, 0.0]]
    with pytest.raises(FormatError, match=message):
        state_from_json(good + [bad] + good)
    # A later bad entry is not reached.
    with pytest.raises(FormatError, match=message):
        state_from_json(good + [bad, "later"])
    with pytest.raises(FormatError, match="state entry must be a number, got '1'"):
        state_from_json(good + [["1", True], bad])


def test_grid_parse_refuses_text_that_numpy_would_convert():
    obj = loads(sampled_to_json(SampledSymbol(np.zeros((2, 2)), Representation(0, 0, 1))))
    obj["grid"][2] = ["1e3", "2"]
    with pytest.raises(FormatError, match="grid entry must be a number, got '1e3'"):
        sampled_from_json(obj)
    with pytest.raises(FormatError, match="grid entry must be finite, got inf"):
        sampled_from_json(dumps(obj).replace('"1e3"', "1e400"))
    with pytest.raises(FormatError, match="operator entry must be a number, got True"):
        operator_from_json('{"N":1,"entries":[[true,0]]}')


def test_wigner_round_trip_and_kind_check():
    rng = np.random.default_rng(53)
    rep = Representation(0.4, 0.6, 2)
    grid = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    for kind in (KIND_STATE_PAIR, KIND_OPERATOR):
        table = WignerTable(grid, rep, kind)
        back = wigner_from_json(wigner_to_json(table))
        assert back.kind == kind
        assert np.array_equal(back.grid, table.grid)
    obj = loads(wigner_to_json(WignerTable(grid, rep, KIND_OPERATOR)))
    with pytest.raises(FormatError):
        wigner_from_json({**obj, "kind": "mystery"})


def test_state_round_trip():
    psi = np.array([0.5 + 0.25j, -1.0, 0.0, 3.5j])
    assert np.array_equal(state_from_json(state_to_json(psi)), psi)
    with pytest.raises(FormatError):
        state_from_json("[]")
    with pytest.raises(FormatError):
        state_from_json('{"a":1}')
    with pytest.raises(DimensionError):
        state_to_json(np.zeros((2, 2)))


@pytest.mark.parametrize(
    "write, read, empty, document",
    [
        (operator_to_json, operator_from_json, np.zeros((0, 0)), '{"N":0,"entries":[]}'),
        (state_to_json, state_from_json, np.zeros(0), "[]"),
    ],
    ids=["operator", "state"],
)
def test_writers_refuse_the_empty_documents_their_readers_refuse(write, read, empty, document):
    with pytest.raises(FormatError):
        read(document)
    with pytest.raises(DimensionError, match=r"with n >= 1, got shape \(0"):
        write(empty)
    # The smallest array either writer takes round-trips through its reader.
    one = np.full(empty.ndim * (1,), -0.5 + 2j)
    assert np.array_equal(read(write(one)), one)


def test_lattice_csv_layout():
    rep = Representation(0.5, 0.25, 1)
    grid = np.array([[1.0, 2.0], [3.0 - 1.0j, 4.0]], dtype=complex)
    text = lattice_csv(grid, rep)
    lines = text.strip().split("\n")
    assert lines[0] == "x,p,re,im"
    assert len(lines) == 1 + 4
    # row 0: x = 0/2 + 0.5/1 = 0.5, p = 0/2 + 0.25/1 = 0.25
    first = lines[1].split(",")
    assert float(first[0]) == 0.5
    assert float(first[1]) == 0.25
    assert float(first[2]) == 1.0
    # coordinates stay inside [0, 1)
    for line in lines[1:]:
        x, p = map(float, line.split(",")[:2])
        assert 0.0 <= x < 1.0
        assert 0.0 <= p < 1.0
    third = lines[3].split(",")
    assert float(third[2]) == 3.0
    assert float(third[3]) == -1.0


def test_lattice_csv_shape_checked():
    with pytest.raises(DimensionError):
        lattice_csv(np.zeros((3, 3)), Representation(0, 0, 1))


# Fixed entries that stress the 17-digit format: -0.0, the smallest
# subnormal, a value near the top of the float range, 0.1, 1/3 and
# integral floats.  The expected texts below are pinned byte for byte.
PINNED_REP = Representation(0.1, 0.7, 1)
PINNED_PAIRS = (
    "[[-0,4.9406564584124654e-324],[1e+308,0.10000000000000001],"
    "[0.33333333333333331,-7],[2,-0]]"
)
PINNED_HEAD = '{"theta1":0.10000000000000001,"theta2":0.69999999999999996,"N":1,'


def pinned_grid():
    grid = np.empty((2, 2), dtype=complex)
    grid.real = [[-0.0, 1e308], [1 / 3, 2.0]]
    grid.imag = [[5e-324, 0.1], [-7.0, -0.0]]
    return grid


def test_sampled_to_json_bytes_are_pinned():
    text = sampled_to_json(
        SampledSymbol(pinned_grid(), PINNED_REP), extra={"diagnostics": {"t": 0.1, "steps": 3}}
    )
    assert text == (
        PINNED_HEAD + '"grid":' + PINNED_PAIRS
        + ',"diagnostics":{"t":0.10000000000000001,"steps":3}}'
    )


def test_wigner_to_json_bytes_are_pinned():
    summary = {
        "mass": [1.5, -0.0],
        "marginal_x": [[0.1, 2.0], [5e-324, -0.0]],
        "marginal_p": [[1 / 3, 1e308], [-7.0, 0.0]],
        "symmetry_residual": 0.0,
    }
    text = wigner_to_json(
        WignerTable(pinned_grid(), PINNED_REP, KIND_OPERATOR), extra={"summary": summary}
    )
    assert text == (
        PINNED_HEAD + '"kind":"operator","grid":' + PINNED_PAIRS
        + ',"summary":{"mass":[1.5,-0],'
        '"marginal_x":[[0.10000000000000001,2],[4.9406564584124654e-324,-0]],'
        '"marginal_p":[[0.33333333333333331,1e+308],[-7,0]],"symmetry_residual":0}}'
    )


def test_operator_state_and_trig_bytes_are_pinned():
    grid = pinned_grid()
    assert operator_to_json(grid) == '{"N":2,"entries":' + PINNED_PAIRS + "}"
    assert state_to_json(grid.ravel()) == PINNED_PAIRS
    tp = TrigPolynomial(
        {
            (1, -2): complex(0.1, 1 / 3),
            (0, 0): complex(2.0, -0.0),
            (-3, 5): complex(1e308, 5e-324),
        }
    )
    assert trig_to_json(tp) == (
        '[{"n1":-3,"n2":5,"re":1e+308,"im":4.9406564584124654e-324},'
        '{"n1":0,"n2":0,"re":2,"im":-0},'
        '{"n1":1,"n2":-2,"re":0.10000000000000001,"im":0.33333333333333331}]'
    )


def test_lattice_csv_bytes_are_pinned():
    assert lattice_csv(pinned_grid(), PINNED_REP) == (
        "x,p,re,im\n"
        "0.10000000000000001,0.69999999999999996,-0,4.9406564584124654e-324\n"
        "0.10000000000000001,0.19999999999999996,1e+308,0.10000000000000001\n"
        "0.59999999999999998,0.69999999999999996,0.33333333333333331,-7\n"
        "0.59999999999999998,0.19999999999999996,2,-0\n"
    )


def test_dumps_writes_arrays_as_pair_lists():
    grid = pinned_grid()
    assert dumps(grid) == PINNED_PAIRS
    assert dumps({"a": grid[0], "b": [grid.real[1, 0]]}) == (
        '{"a":[[-0,4.9406564584124654e-324],[1e+308,0.10000000000000001]],'
        '"b":[0.33333333333333331]}'
    )
    assert dumps(np.zeros(0)) == "[]"


NON_FINITE = [np.nan, np.inf, -np.inf, complex(0.0, np.nan)]


@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_grid_entries_are_refused(bad):
    grid = pinned_grid()
    grid[1, 0] = bad
    with pytest.raises(DomainError, match="grid entries must be finite"):
        lattice_csv(grid, PINNED_REP)
    with pytest.raises(DomainError, match="operator entries must be finite"):
        operator_to_json(grid)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_dumps_refuses_non_finite_array_entries(bad):
    grid = pinned_grid()
    grid[1, 0] = bad
    with pytest.raises(DomainError, match="cannot serialize a non-finite number"):
        dumps(grid)
