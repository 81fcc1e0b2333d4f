"""The checker fails an operation whose output is wrong."""

import contextlib
import copy
import io
import json

import pytest

import checks
import reference
from flagchern import cli
from conftest import ROOT

REGISTRY = json.loads(
    (ROOT / "src/flagchern/data/expected_tables.json").read_text())


def op(kind, argv, meta):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return {"kind": kind, "argv": argv, "meta": meta, "rc": rc,
            "stdout": buf.getvalue(), "stderr": ""}


def edit(record, change):
    """A copy of the operation record with its JSON output changed."""
    data = json.loads(record["stdout"])
    change(data)
    return dict(record, stdout=json.dumps(data))


def failed(ops):
    return [bool(f) for f in checks.check_round(ops, REGISTRY)]


@pytest.fixture(scope="module")
def table_op():
    return op("table", ["table", "reproduce", "tabg21", "--oracle", "weyl",
                        "--format", "json"], {"table_id": "tabg21"})


@pytest.fixture(scope="module")
def census_ops():
    """decompose, classify and two chern commands on G2/T: the first class
    (integrable) is checked through its representative and one member."""
    name = "G2/T"
    dec = op("decompose", ["decompose", name, "--format", "json"],
             {"manifold": name})
    dims = [m["dim_complex"] for m in json.loads(dec["stdout"])["summands"]]
    cls = op("classify", ["acs", "classify", name, "--format", "json"],
             {"manifold": name, "n_summands": len(dims)})
    first = json.loads(cls["stdout"])["classes"][0]
    monomials = reference.cmonomials(6)
    chern = []
    for role, label in (("rep", first["members"][0]),
                        ("other", first["members"][-1])):
        signs = [1 if c == "+" else -1 for c in label.strip("()").split(",")]
        chern.append(op("chern", ["chern", "--manifold", name,
                                  f"--acs={label.strip('()')}", "--numbers",
                                  ",".join(monomials), "--todd", "--oracle",
                                  "weyl", "--format", "json"],
                        {"manifold": name, "signs": signs, "dims": dims,
                         "class": 0, "role": role,
                         "integrable": first["integrable"],
                         "monomials": monomials}))
    assert first["integrable"]
    return [dec, cls, *chern]


def test_real_outputs_pass(table_op, census_ops):
    assert failed([table_op, *census_ops]) == [False] * 5


def test_corrupted_table_cell_fails(table_op):
    def corrupt(data):
        col = data["tables"][0]["sections"][0]["columns"][0]
        col["recomputed"][0] = str(int(col["recomputed"][0]) + 1)
    assert failed([edit(table_op, corrupt)]) == [True]


def test_annotated_cell_must_keep_its_record(table_op):
    spec = REGISTRY["tables"]["tabg21"]
    ci, col = next((i, c) for i, c in enumerate(spec["columns"])
                   if c.get("annotations"))
    ri = spec["rows"].index(col["annotations"][0]["row"])

    def to_printed(data):
        data["tables"][0]["sections"][0]["columns"][ci]["recomputed"][ri] = \
            col["printed"][ri]
    assert failed([edit(table_op, to_printed)]) == [True]


def test_wrong_class_count_fails(census_ops):
    dec, cls, *_ = census_ops

    def miscount(data):
        data["n_classes"] += 1
    assert failed([dec, edit(cls, miscount)]) == [False, True]

    def drop_class(data):
        data["classes"].pop()
        data["n_classes"] -= 1
    assert failed([dec, edit(cls, drop_class)]) == [False, True]


def test_non_integer_todd_genus_fails(census_ops):
    dec, cls, rep, other = census_ops

    def half(data):
        data["todd_genus"] = "1/2"
    assert failed([dec, cls, edit(rep, half), other]) == \
        [False, False, True, False]


def test_todd_genus_not_one_on_integrable_fails(census_ops):
    dec, cls, rep, other = census_ops

    def two(data):
        data["todd_genus"] = "2"
    assert failed([dec, cls, rep, edit(other, two)])[3]


def test_euler_number_fails(census_ops):
    dec, cls, rep, other = census_ops

    def wrong_top(data):
        data["numbers"]["c6"] = str(int(data["numbers"]["c6"]) + 1)
    assert failed([dec, cls, edit(rep, wrong_top), other]) == \
        [False, False, True, False]


def test_class_member_differing_from_representative_fails(census_ops):
    dec, cls, rep, other = census_ops

    def shift(data):
        data["numbers"]["c1^6"] = str(int(data["numbers"]["c1^6"]) + 2)
    assert failed([dec, cls, rep, edit(other, shift)]) == \
        [False, False, False, True]


def test_non_zero_exit_fails(table_op):
    bad = copy.deepcopy(table_op)
    bad["rc"] = 2
    assert failed([bad]) == [True]
    usage = op("table", ["table", "reproduce", "no-such-table", "--oracle",
                         "weyl", "--format", "json"],
               {"table_id": "no-such-table"})
    assert usage["rc"] == 1
    assert failed([usage]) == [True]


def test_wrong_decompose_and_cohomology_fail():
    dec = op("decompose", ["decompose", "F(4)", "--format", "json"],
             {"manifold": "F(4)"})
    coh = op("cohomology", ["cohomology", "verify", "--case", "a-full:2",
                            "--format", "json"], {"case": "a-full:2"})
    assert failed([dec, coh]) == [False, False]

    def chi(data):
        data["euler_characteristic"] = 23
    assert failed([edit(dec, chi)]) == [True]

    def dim(data):
        data["quotient_dim"] = 5
    assert failed([edit(coh, dim)]) == [True]
