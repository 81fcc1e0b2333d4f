import json

import pytest

from flagchern.tables import (load_registry, reproduce, resolve, table_ids,
                              to_csv, to_json_obj, to_markdown)

# every concrete table and the number of annotated (known-discrepant) cells
# its clean reproduction carries
ANNOTATED = {
    "g2t": 0, "so5t": 0, "so7u3": 1, "so8u4": 0, "sp2t": 0,
    "tab-dif": 0, "tab2": 0, "tab3": 1, "tab5": 1,
    "tabf51": 77, "tabf54": 62,
    "tabg21": 2, "tabg22": 6, "tabso1": 0, "tabso21": 117, "tabsp31": 0,
}

FAST = sorted(set(ANNOTATED) - {"tab-dif"})


def diffs(res):
    """(column label, diff) of every diff of a table result."""
    return [(c["label"], d) for s in res["sections"] for c in s["columns"]
            for d in c["diffs"]]


def test_registry_ids_and_aliases():
    reg = load_registry()
    assert set(reg["tables"]) == set(ANNOTATED)
    assert resolve("sp3t") == ["tabsp31"]
    assert resolve("f5-all") == ["tabf51", "tabf54"]
    assert "f5-all" in table_ids() and "sp3t" in table_ids()
    with pytest.raises(ValueError, match="unknown table id 'no-such-table'"):
        resolve("no-such-table")


def test_printed_values_are_decimal_strings():
    reg = load_registry()
    for spec in reg["tables"].values():
        sections = spec.get("sections") or [spec]
        for sec in sections:
            for col in sec["columns"]:
                assert all(isinstance(v, str) and int(v) is not None
                           for v in col["printed"])
                assert len(col["printed"]) == len(sec["rows"])
                assert len(col["signs"]) >= 1
                assert col["global_sign"] in (1, -1)


@pytest.mark.parametrize("tid", FAST)
def test_fast_tables_reproduce_cleanly(tid, reproduce_cached):
    # both oracles, so every cell is also cross-checked by normal forms
    res = reproduce_cached(tid, oracle="both")[0]
    assert res["ok"], [(label, d["row"], d["printed"], d["recomputed"])
                       for label, d in diffs(res) if not d["annotated"]]
    assert sum(d["annotated"] for _, d in diffs(res)) == ANNOTATED[tid]


def test_every_annotated_cell_carries_a_note(reproduce_cached):
    for tid in FAST:
        for res in reproduce_cached(tid):
            for _, d in diffs(res):
                assert d["annotated"] and d["note"]


def test_slow_columns_sit_in_slow_sections():
    # reproduce skips whole sections; a column cannot be slow on its own
    for spec in load_registry()["tables"].values():
        for sec in spec.get("sections") or [spec]:
            for col in sec["columns"]:
                assert not col.get("slow") or sec.get("slow"), col["label"]


def test_slow_sections_skipped_by_default(reproduce_cached):
    res = reproduce_cached("tab2")[0]
    skipped = [s for s in res["sections"] if s["skipped"]]
    computed = [s for s in res["sections"] if not s["skipped"]]
    assert {s["manifold"] for s in skipped} == {"F(8;1,2,5)", "F(8;1,3,4)"}
    assert [s["manifold"] for s in computed] == ["F(6;1,2,3)"]
    assert res["ok"]


def test_column_mappings_are_emitted(reproduce_cached):
    res = reproduce_cached("so5t")[0]
    lines = to_markdown([res]).splitlines()
    for sec in res["sections"]:
        for col in sec["columns"]:
            assert any(line.startswith(f"- column `{col['label']}`: signs=(")
                       and "global_sign=" in line for line in lines)


def test_renderers(reproduce_cached):
    results = reproduce_cached("tab5")
    md = to_markdown(results)
    assert "## tab5" in md and "| monomial |" in md
    assert "annotated" in md
    csv_text = to_csv(results)
    header = csv_text.splitlines()[0]
    assert header.startswith("table,manifold,column")
    obj = to_json_obj(results)
    # all numbers rendered as decimal strings for lossless JSON
    blob = json.dumps(obj)
    parsed = json.loads(blob)
    col = parsed["tables"][0]["sections"][0]["columns"][0]
    assert all(isinstance(v, str) for v in col["printed"])
    assert all(isinstance(v, str) for v in col["recomputed"])
    # the JSON has the results' keys, and their ints as decimal strings
    res = results[0]
    assert parsed["tables"][0].keys() == res.keys()
    assert col["recomputed"] == [
        str(v) for v in res["sections"][0]["columns"][0]["recomputed"]]


def test_dual_oracle_on_a_table():
    res = reproduce("so5t", oracle="both", slow=False)[0]
    assert res["ok"]


def test_f8_sections_reproduce_with_slow_enabled(reproduce_cached):
    res = reproduce_cached("tab2", slow=True)[0]
    assert res["ok"]
    # one annotated cell: the dropped trailing zero in the fourth column of
    # the F(8;1,2,5) section
    cells = [(s["manifold"], c["label"], d["row"], d["printed"],
              d["recomputed"])
             for s in res["sections"] for c in s["columns"]
             for d in c["diffs"]]
    assert cells == [("F(8;1,2,5)", cells[0][1], "c1^17",
                      1250749500000000, 12507495000000000)]

