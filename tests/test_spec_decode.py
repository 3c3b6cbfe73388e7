"""RingSpec.load against json.loads plus np.asarray.

RingSpec.load decodes the tables of a file in the layout RingSpec.save
writes straight into int64 arrays, once the file has rings._DECODE_MIN
characters; every other file, and every other array, goes through json.
Either way a load must give what json.loads and np.asarray give: the same
values, dtype and shape, or the same error class and text.
"""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringcent import gallery, rings
from ringcent.errors import ValidationError
from ringcent.rings import RingSpec, load_ring


def _reference(path) -> RingSpec:
    """RingSpec.load as it reads with json.loads alone."""
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from None
    return RingSpec.from_json(doc)


def _table(value):
    """A table as validate sees it: np.asarray's dtype, shape and values,
    or the error np.asarray raises."""
    try:
        array = np.asarray(value)
    except ValueError as exc:
        return "ValueError", str(exc)
    return array.dtype.str, array.shape, array.tolist()


def _outcome(load, path):
    try:
        spec = load(path)
    except Exception as exc:  # the class and text are what is compared
        return type(exc).__name__, str(exc)
    fields = {key: repr(getattr(spec, key))
              for key in ("label", "order", "group", "mul_constants")}
    if spec.is_explicit:
        fields.update(add=_table(spec.add), mul=_table(spec.mul))
    return fields


def _same_as_json(path, text):
    path.write_text(text)
    assert _outcome(RingSpec.load, path) == _outcome(_reference, path)


def _doc(n):
    """The spec document of Z_n."""
    return {"add": [[(i + j) % n for j in range(n)] for i in range(n)],
            "label": f"Z_{n}", "mul": [[i * j % n for j in range(n)]
                                        for i in range(n)], "order": n}


def _set(doc, key, i, j, value):
    doc[key][i][j] = value
    return doc


# each case turns Z_n's document into the text of a file
CASES = {
    "canonical": lambda d: d,
    "indented": lambda d: json.dumps(d, indent=1, sort_keys=True),
    "ragged": lambda d: {**d, "add": d["add"][:-1] + [d["add"][-1][:-1]]},
    "float": lambda d: _set(d, "add", 1, 1, 1.5),
    "negative": lambda d: _set(d, "mul", 2, 0, -1),
    "true": lambda d: _set(d, "mul", 1, 1, True),
    "18 digits": lambda d: _set(d, "add", 0, 1, 10 ** 18 - 1),
    "19 digits": lambda d: _set(d, "add", 0, 1, 10 ** 18),
    "2**63": lambda d: _set(d, "mul", 1, 0, 2 ** 63),
    "2**64 - 1": lambda d: _set(d, "mul", 1, 0, 2 ** 64 - 1),
    "21 digits": lambda d: _set(d, "add", 2, 2, 10 ** 20),
    "], 5": lambda d: {**d, "add": d["add"] + [5]},
    "rows of rows": lambda d: {**d, "mul": [d["mul"]]},
    "empty rows": lambda d: {**d, "add": [[] for _ in d["add"]]},
    "table label": lambda d: {**d, "label": d["add"]},
    "leading zero": lambda d: json.dumps(d, sort_keys=True).replace(
        "[0, 1, ", "[0, 01, ", 1),
    "no spaces": lambda d: json.dumps(d, sort_keys=True, separators=(",", ":")),
    "BOM": lambda d: "\ufeff" + json.dumps(d, sort_keys=True),
    "truncated": lambda d: json.dumps(d, sort_keys=True)[:-40],
    "trailing comma": lambda d: json.dumps(d, sort_keys=True).replace(
        "]], ", "]],, ", 1),
    "extra data": lambda d: json.dumps(d, sort_keys=True) + " []",
    # json's Python scanner would read the Arabic-Indic one as a digit
    "non-ASCII digit": lambda d: json.dumps(d, sort_keys=True).replace(
        '"order": ', '"order": 1\u0661', 1),
}


@pytest.mark.parametrize("n", [3, 64], ids=["json route", "table route"])
@pytest.mark.parametrize("case", CASES)
def test_load_matches_json(tmp_path, case, n):
    text = CASES[case](_doc(n))
    if not isinstance(text, str):
        text = json.dumps(text, sort_keys=True)
    assert (len(text) >= rings._DECODE_MIN) == (n > 3)
    _same_as_json(tmp_path / "spec.json", text)


# tables one step from the save layout, each breaking one of its rules
NEAR_LAYOUT = ["[[0, 1], [1, 0]]", "[[0, 1], [1 0, 1]]", "[[0,, 1], [1, 0]]",
               "[[0, 1],[1, 0]]", "[[1], [2, [3], [4]]", "[[0, 1], [1, 0x]]",
               "[[0, 1], [1, 0, 1]11[1, 0]]", "[[0, 01], [1, 0]]",
               "[[0, 1], [1]]", "[[0, 999999999999999999]]",
               "[[0, 1000000000000000000]]"]


@pytest.mark.parametrize("table", NEAR_LAYOUT)
def test_tables_near_the_layout_match_json(tmp_path, table):
    with mock.patch.object(rings, "_DECODE_MIN", 0):
        _same_as_json(tmp_path / "spec.json",
                      '{"add": %s, "mul": [[0]]}' % table)


def test_the_saved_layout_takes_the_table_route(tmp_path):
    path = tmp_path / "z64.json"
    gallery.modular_ring(64).spec().save(path)
    spec = RingSpec.load(path)
    assert isinstance(spec.add, np.ndarray) and spec.add.dtype == np.int64
    assert spec.add.shape == spec.mul.shape == (64, 64)
    assert type(spec.label) is str and type(spec.order) is int


_values = st.one_of(st.integers(0, 300), st.integers(0, 2 ** 65))


@settings(max_examples=60, deadline=None)
@given(table=st.integers(1, 6).flatmap(lambda w: st.lists(
           st.lists(_values, min_size=w, max_size=w), min_size=1, max_size=6)),
       edit=st.one_of(st.none(), st.tuples(
           st.integers(0, 10 ** 6), st.sampled_from("0123456789, []-.e\"x"),
           st.sampled_from(["replace", "insert", "delete"]))),
       block=st.sampled_from([8, 24, 1 << 16]))
def test_small_tables_match_json_on_both_routes(tmp_path_factory, table, edit,
                                                block):
    # every table, edited in one character or not, in blocks of a few rows
    text = json.dumps({"add": table, "label": "t", "mul": table[::-1]},
                      sort_keys=True)
    if edit is not None:
        i, char, how = edit
        i %= len(text) + 1
        text = text[:i] + {"replace": char, "insert": char + text[i:i + 1],
                           "delete": ""}[how] + text[i + 1:]
    path = tmp_path_factory.mktemp("spec") / "spec.json"
    _same_as_json(path, text)
    with mock.patch.object(rings, "_DECODE_MIN", 0), \
            mock.patch.object(rings, "_TABLE_BLOCK", block):
        _same_as_json(path, text)


def _inspect_rings():
    """The six seeded relabelings of rings of order 81-256 that
    perfbench's load-inspect workload writes."""
    product = gallery.direct_product
    sources = [gallery.modular_ring(256),
               product(gallery.row_ring(2), gallery.modular_ring(64)),
               gallery.upper_triangular_ring(5), gallery.row_ring(11),
               gallery.quaternion_ring(3),
               product(gallery.row_ring(3), gallery.modular_ring(27))]
    rng = np.random.default_rng(1)
    return [R.relabel(np.concatenate([[0], 1 + rng.permutation(R.order - 1)]),
                      f"{R.label} relabeled") for R in sources]


def test_saved_rings_load_back(tmp_path, gallery_rings):
    for i, R in enumerate(gallery_rings + _inspect_rings()):
        path = tmp_path / f"ring{i}.json"
        R.spec().save(path)
        loaded = load_ring(path)
        assert np.array_equal(loaded.add, R.add)
        assert np.array_equal(loaded.mul, R.mul)
        assert loaded.label == R.label
        again = tmp_path / f"again{i}.json"
        loaded.spec().save(again)
        assert again.read_bytes() == path.read_bytes()
