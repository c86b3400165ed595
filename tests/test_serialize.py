import collections
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tbdkit.serialize import canonical_json, write_csv, write_json


def test_sorted_keys_and_compact_layout():
    text = canonical_json({"b": 1, "a": 2})
    assert text == '{"a":2,"b":1}'


def test_float_format_is_roundtrip_exact():
    x = 0.1
    text = canonical_json({"x": x})
    assert json.loads(text)["x"] == x
    assert "0.1000000000000000" in text  # 17 significant digits


def test_integer_valued_floats_stay_short():
    assert canonical_json(1.0) == "1"
    assert canonical_json(-3.0) == "-3"
    assert canonical_json(True) == "true"
    assert canonical_json(None) == "null"


def test_complex_becomes_re_im_record():
    text = canonical_json(1.5 - 2.0j)
    assert text == '{"im":-2,"re":1.5}'
    assert json.loads(text) == {"im": -2.0, "re": 1.5}


def test_numpy_scalars_and_arrays():
    obj = {
        "i": np.int64(4),
        "f": np.float64(0.25),
        "c": np.complex128(1j),
        "arr": np.array([1.0, 2.0]),
        "flag": np.bool_(True),
    }
    parsed = json.loads(canonical_json(obj))
    assert parsed == {"i": 4, "f": 0.25, "c": {"im": 1.0, "re": 0.0}, "arr": [1.0, 2.0], "flag": True}


def test_dataclasses_serialize_as_field_maps():
    @dataclasses.dataclass(frozen=True)
    class Row:
        name: str
        value: float

    parsed = json.loads(canonical_json(Row(name="x", value=0.5)))
    assert parsed == {"name": "x", "value": 0.5}


def test_rejects_non_finite_and_odd_types():
    with pytest.raises(ValueError):
        canonical_json(float("nan"))
    with pytest.raises(ValueError):
        canonical_json({"x": float("inf")})
    with pytest.raises(TypeError):
        canonical_json({1: "non-string key"})
    with pytest.raises(TypeError):
        canonical_json(object())


def test_canonical_json_is_deterministic():
    obj = {"z": [1.0, 2.5e-7, -0.0], "a": {"nested": 3j}}
    assert canonical_json(obj) == canonical_json(obj)


def test_write_json_appends_newline(tmp_path):
    p = tmp_path / "report.json"
    write_json(p, {"a": 1})
    data = p.read_bytes()
    assert data == b'{"a":1}\n'
    write_json(p, {"a": 1})
    assert p.read_bytes() == data


def test_write_json_leaves_no_file_for_a_report_it_cannot_encode(tmp_path):
    p = tmp_path / "report.json"
    with pytest.raises(ValueError, match="non-finite"):
        write_json(p, {"a": float("nan")})
    assert not p.exists()


def test_fields_marked_not_serialized_are_left_out():
    @dataclasses.dataclass
    class Report:
        value: float
        bulk: np.ndarray = dataclasses.field(metadata={"serialize": False})

    assert canonical_json(Report(1.5, np.full(3, np.nan))) == '{"value":1.5}'


def _rows(columns):
    """The rows of plain columns, cell by cell, for reference_csv."""
    return list(zip(*columns))


def test_write_csv_layout(tmp_path):
    p = tmp_path / "table.csv"
    write_csv(p, ("i", "value"), [np.array([0, 1]), np.array([0.5, 1.0])])
    assert p.read_text() == "i,value\n0,0.5\n1,1\n"


def test_write_csv_rejects_ragged_rows(tmp_path):
    with pytest.raises(ValueError, match="differ in length"):
        write_csv(tmp_path / "bad.csv", ("a", "b"), [np.array([1, 2]), np.array([0.5])])


def test_write_csv_rejects_header_column_count_mismatch(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ("a", "b"), [np.array([1])])


def test_write_csv_rejects_complex_cells(tmp_path):
    with pytest.raises(TypeError):
        write_csv(tmp_path / "bad.csv", ("a",), [np.array([1j])])


def test_write_csv_rejects_string_columns(tmp_path):
    with pytest.raises(TypeError):
        write_csv(tmp_path / "bad.csv", ("a",), [np.array(["x"])])
    # nor bool: a CSV column is integer or float
    with pytest.raises(TypeError, match="integer or float"):
        write_csv(tmp_path / "bad.csv", ("a", "b"), [np.array([1, 2]), np.array([True, False])])


@pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")])
def test_write_csv_rejects_non_finite_floats(tmp_path, x):
    with pytest.raises(ValueError, match=str(x)):
        write_csv(tmp_path / "bad.csv", ("a",), [np.array([1.0, x, 1.0])])


@pytest.mark.parametrize("columns, error", [
    ([np.array([[0.5, 1.5]])], ValueError),  # 2-D
    ([np.array(0.5)], ValueError),  # 0-D
    ([np.array([0.5, 1.5]), np.array([1])], ValueError),  # ragged
    ([np.array([0.5, 1.5]), np.array([True, False])], TypeError),
    ([np.array([0.5, 1.5]), np.array([1 + 0j, 2])], TypeError),
    ([np.array([0.5, 1.5]), np.array(["a", "b"])], TypeError),
], ids=["2d", "0d", "ragged", "bool", "complex", "str"])
def test_write_csv_rejects_a_malformed_column_and_leaves_no_file(tmp_path, columns, error):
    p = tmp_path / "bad.csv"
    with pytest.raises(error):
        write_csv(p, tuple("ab"[: len(columns)]), columns)
    assert not p.exists()


def test_write_csv_keeps_signed_zero_apart(tmp_path):
    p = tmp_path / "zeros.csv"
    write_csv(p, ("x",), [np.array([-0.0, 0.0, -0.0, 0.0])])
    assert p.read_text() == "x\n-0\n0\n-0\n0\n"


def test_write_csv_reads_values_that_repeat_or_are_signed_zeros(tmp_path, reference_csv):
    # cells need not be distinct: each is formatted on its own
    columns = [np.array([2.5, -0.0, 0.0, 0.0, 2.5, -0.0]), np.array([7, 7, -7, -7, 7, 7])]
    p = tmp_path / "table.csv"
    write_csv(p, ("f", "i"), columns)
    assert p.read_bytes() == reference_csv(("f", "i"), _rows(columns)).encode("ascii")
    assert p.read_text().splitlines()[1:4] == ["2.5,7", "-0,7", "0,-7"]


@pytest.mark.parametrize("values", [np.array([], dtype=np.float64), np.array([], dtype=np.int64)])
def test_write_csv_with_empty_columns_writes_the_header_only(tmp_path, values):
    p = tmp_path / "table.csv"
    write_csv(p, ("a", "b"), [values, np.array([], dtype=np.int64)])
    assert p.read_text() == "a,b\n"


_FLOAT_EDGES = [
    5e-324, -5e-324, 2.2250738585072014e-308 / 3,
    1.7976931348623157e308, -1.7976931348623157e308, 1.0, -3.0, 2.0**53, 0.1,
]
_CELLS = {
    "int64": st.integers(-(2**63), 2**63 - 1),
    "float64": st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.sampled_from(_FLOAT_EDGES),
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(-(2**60), 2**60).map(float),
    ),
}


@st.composite
def _tables(draw):
    n_rows = draw(st.integers(0, 40))
    dtypes = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1, max_size=4))
    return [np.array(draw(st.lists(_CELLS[d], min_size=n_rows, max_size=n_rows)), dtype=d) for d in dtypes]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(columns=_tables())
def test_write_csv_matches_cell_by_cell_reference(tmp_path, reference_csv, columns):
    header = tuple(f"c{i}" for i in range(len(columns)))
    p = tmp_path / "table.csv"
    write_csv(p, header, columns)
    assert p.read_bytes() == reference_csv(header, _rows(columns)).encode("ascii")


@pytest.mark.parametrize("column", [
    np.array([2**63 - 1, 2**63 - 3, 2**63 - 1, 2**63 - 2], dtype=np.int64),
    np.array([-(2**63), -(2**63) + 1, -(2**63)], dtype=np.int64),
    np.arange(-128, 128).astype(np.int8),
    np.array([2**64 - 1, 2**64 - 2, 2**64 - 1], dtype=np.uint64),
    np.array([7, 7, 7], dtype=np.uint8),
])
def test_write_csv_integer_columns_at_the_dtype_limits(tmp_path, reference_csv, column):
    # an integer column holds its extreme values exactly, with no wrap at
    # the ends of the dtype
    p = tmp_path / "table.csv"
    write_csv(p, ("x",), [column])
    assert p.read_bytes() == reference_csv(("x",), _rows([column])).encode("ascii")


@pytest.mark.parametrize("x", [float("nan"), float("inf")])
def test_write_csv_non_finite_in_the_last_row_leaves_no_file(tmp_path, x):
    # every cell is checked before the file opens, the last one included
    ramp = np.linspace(-1.0, 1.0, 1000)
    ramp[-1] = x
    p = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match=str(x)):
        write_csv(p, ("i", "ramp"), [np.arange(ramp.size), ramp])
    assert not p.exists()


@dataclasses.dataclass(frozen=True)
class _Record:
    label: str
    value: object
    bulk: np.ndarray = dataclasses.field(default=None, metadata={"serialize": False})


class _Text(str):
    pass


_FINITE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.797e308, -1.797e308, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    _FINITE_FLOATS,
    _FINITE_FLOATS.map(np.float64),
    st.builds(complex, _FINITE_FLOATS, _FINITE_FLOATS),
    st.builds(complex, _FINITE_FLOATS, _FINITE_FLOATS).map(np.complex128),
    st.text(max_size=8),
    st.text(max_size=8).map(_Text),
    st.lists(_FINITE_FLOATS, max_size=6).map(np.array),
    st.lists(st.integers(-(2**63), 2**63 - 1), max_size=6).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(_FINITE_FLOATS, min_size=6, max_size=6).map(lambda v: np.array(v).reshape(2, 3)),
    st.builds(_Record, st.text(max_size=4), _FINITE_FLOATS, st.just(np.full(2, np.nan))),
)
_KEYS = st.text(max_size=6)


def _reports(leaves):
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(_KEYS, children, max_size=4),
            st.dictionaries(_KEYS, children, max_size=4).map(collections.OrderedDict),
            st.builds(_Record, st.text(max_size=4), children),
        ),
        max_leaves=20,
    )


_NON_FINITE = st.sampled_from([
    float("nan"), float("inf"), -float("inf"), np.float64("nan"), np.float64("-inf"),
    complex(1.0, float("inf")), np.complex128(complex(float("nan"), 0.0)),
    np.array([1.0, float("nan")]), _Record("x", float("inf")),
])


@st.composite
def _reports_with_one_non_finite(draw):
    """A finite report with one node, at any depth, replaced by a
    non-finite value."""
    bad = draw(_NON_FINITE)

    def plant(node):
        if isinstance(node, dict) and node and draw(st.booleans()):
            key = draw(st.sampled_from(sorted(node)))
            return {**node, key: plant(node[key])}
        if isinstance(node, (list, tuple)) and node and draw(st.booleans()):
            items = list(node)
            at = draw(st.integers(0, len(items) - 1))
            items[at] = plant(items[at])
            return type(node)(items)
        return bad

    return plant(draw(_reports(_LEAVES)))


@settings(max_examples=200, deadline=None)
@given(obj=_reports(_LEAVES))
def test_canonical_json_matches_isinstance_reference(reference_json, obj):
    assert canonical_json(obj) == reference_json(obj)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(obj=_reports_with_one_non_finite())
def test_non_finite_anywhere_raises_and_leaves_no_file(tmp_path, reference_json, obj):
    with pytest.raises(ValueError, match="non-finite"):
        reference_json(obj)
    with pytest.raises(ValueError, match="non-finite"):
        canonical_json(obj)
    p = tmp_path / "report.json"
    with pytest.raises(ValueError, match="non-finite"):
        write_json(p, obj)
    assert not p.exists()
