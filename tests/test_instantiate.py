import pytest

from mdsforge import catalogs
from mdsforge.gf2 import FormatError, ring
from mdsforge.blockmat import is_mds
from mdsforge.slp import Slp, Step, extract_matrix
from mdsforge.treesearch import ImplTree
from mdsforge.instantiate import (
    CatalogEntry,
    InfeasibleError,
    assign_parameters,
    catalog_from_text,
    catalog_to_text,
    conjugate_slp,
    default_value_set,
    involutory_search,
    search_lowest_cost,
    simplify_tree,
)


def test_default_value_set_order(r8):
    vals = default_value_set(r8)
    a = 2
    expect = [1, a, r8.inv(a), r8.pow(a, 2), r8.pow(a, -2), r8.pow(a, 3), r8.pow(a, -3)]
    assert vals == expect


def test_assign_parameters_first_tree(trees8, r8):
    entries = assign_parameters(trees8[0], r8, cost_bound=67)
    assert len(entries) == 8
    assert all(e.cost == 67 and e.mds for e in entries)
    bundled = catalogs.load_catalog("cost67_4x4")[0]
    assert any(e.matrix == bundled.matrix for e in entries)


def test_assign_parameters_respects_bound(trees8, r8):
    assert assign_parameters(trees8[0], r8, cost_bound=66) == []


def test_conjugation_preserves_cost_changes_class():
    for e in catalogs.load_catalog("cost67_4x4")[:6]:
        c = CatalogEntry.from_slp(conjugate_slp(e.slp))
        assert c.cost == e.cost == 67
        assert c.mds
        assert c.canonical != e.canonical


def test_search_lowest_cost_k2():
    r = ring("x^4+x+1")
    cat = search_lowest_cost(2, r)
    assert cat and cat[0].cost == 9  # 2 steps * 4 + one 1-xor product
    assert all(e.mds for e in cat)


def test_simplify_tree_k2():
    r = ring("x^4+x+1")
    tree = ImplTree(2, ((-1, 0), (0, 1)), (1, 2))
    vals = default_value_set(r)
    s, wits = simplify_tree(tree, r, vals)
    assert s == 1
    assert all(len(w) == 1 for w in wits)


def test_simplify_tree_infeasible():
    r = ring("x^4+x+1")
    tree = ImplTree(2, ((-1, 0), (0, 1)), (1, 2))
    with pytest.raises(InfeasibleError):
        simplify_tree(tree, r, [1, 1], max_s=2)  # no non-identity values offered


def test_involutory_search_small_budget(trees8, r8):
    hits = involutory_search([trees8[2]], r8, max_s=6, max_t=5)
    assert len(hits) == 6
    assert all(h.heuristic_t == 5 for h in hits)
    assert all(h.row_order == (2, 3, 0, 1) for h in hits)
    assert sorted(h.entry.cost for h in hits) == [68, 68, 69, 69, 69, 69]
    assert all(h.entry.involutory and h.entry.mds for h in hits)


def test_involutory_search_threads(trees8, r8):
    # t <= 5 is the least budget with hits (18, from trees 3 and 4)
    trees = trees8[2:4]
    serial = involutory_search(trees, r8, max_s=6, max_t=5)
    pooled = involutory_search(trees, r8, max_s=6, max_t=5, threads=2)
    assert len(serial) == 18 and pooled == serial
    # rings come back from the workers as the shared instance
    assert all(h.entry.matrix.ring is r8 and h.entry.slp.ring is r8 for h in pooled)


def test_catalog_round_trip():
    entries = catalogs.load_catalog("depth3_4x4")
    text = catalog_to_text(entries)
    again = catalog_from_text(text)
    assert list(again) == list(entries)
    assert catalog_to_text(again) == text


def test_catalog_rejects_tampered_header():
    text = catalog_to_text(catalogs.load_catalog("depth3_4x4")[:1])
    bad = text.replace("cost 77", "cost 76", 1)
    with pytest.raises(FormatError):
        catalog_from_text(bad)


def test_catalog_rejects_tampered_matrix():
    text = catalog_to_text(catalogs.load_catalog("depth3_4x4")[:1])
    lines = text.splitlines()
    # corrupt one matrix entry with the ring's zero divisor
    for i, ln in enumerate(lines):
        if "," in ln:
            cells = ln.split(",")
            cells[0] = "a^4+a+1"
            lines[i] = ",".join(cells)
            break
    with pytest.raises(FormatError):
        catalog_from_text("\n".join(lines) + "\n")


def test_entry_invariants():
    for e in catalogs.load_catalog("cost67_4x4")[:5]:
        assert e.matrix == extract_matrix(e.slp)
        assert e.mds == is_mds(e.matrix)
