import random
from dataclasses import replace
from itertools import combinations

import pytest

from mdsforge import catalogs
from mdsforge.gf2 import FormatError, ring
from mdsforge.blockmat import is_mds
from mdsforge.slp import Slp, Step, extract_matrix
from mdsforge.sympoly import _det, term_vectors
from mdsforge.treesearch import ImplTree
from mdsforge.instantiate import (
    CatalogEntry,
    InfeasibleError,
    _fixable_squares,
    _symbolic_subset_ok,
    assign_parameters,
    catalog_from_text,
    catalog_to_text,
    conjugate_slp,
    default_value_set,
    involutory_search,
    pmq_classes,
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


def test_pmq_classes_keep_first_of_least_sort_key():
    cat = list(catalogs.load_catalog("cost67_4x4")[:5])
    dearer = [replace(e, cost=e.cost + 1) for e in cat]
    # equal sort key, told apart by a field the key ignores
    twins = [replace(e, involutory=not e.involutory) for e in cat]
    got = pmq_classes(dearer + twins[::-1] + cat)
    assert got == sorted(twins, key=CatalogEntry.sort_key)
    assert len({e.canonical for e in got}) == len(got) == 5
    assert pmq_classes([]) == []


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


def _every_minor_nonzero(tree, subset) -> bool:
    """Reference for _symbolic_subset_ok: every minor of the output rows,
    parameters at the positions in subset and 1 elsewhere, is a nonzero
    polynomial."""
    vec = term_vectors(tree.k, tree.nodes, set(subset))
    rows = {i: vec(o) for i, o in enumerate(tree.outs)}
    memo: dict = {}
    return all(_det(rows, ridx, cidx, memo)
               for r in range(1, tree.k + 1)
               for ridx in combinations(range(tree.k), r)
               for cidx in combinations(range(tree.k), r))


def test_symbolic_subset_screen_matches_determinants(trees8):
    rng = random.Random(2024)
    verdicts = []
    for t in trees8 + [catalogs.tree_5x5()]:
        positions = range(t.scalar_positions())
        for _ in range(12):
            subset = tuple(sorted(rng.sample(positions, rng.randint(0, len(positions)))))
            got = _symbolic_subset_ok(t, subset)
            assert got == _every_minor_nonzero(t, subset), (t, subset)
            verdicts.append(got)
    assert True in verdicts and False in verdicts


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


def test_square_screen_matches_residue_enumeration():
    # x is repairable by a budget b iff x = u * a^g with u^2 = 1, |g| <= b;
    # the search tests x^2 against fixable[b] instead of listing every u
    r = ring("x^8+x^2+1")
    sqrt_one = [u for u in range(1 << r.n) if r.mul(u, u) == 1]
    fixable = _fixable_squares(r, 8)
    for b in range(9):
        expected = {r.mul(u, r.pow(2, g)) for u in sqrt_one for g in range(-b, b + 1)}
        assert {x for x in range(1 << r.n) if r.mul(x, x) in fixable[b]} == expected


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
