import random
from dataclasses import replace
from itertools import combinations, product

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
    alpha_powers,
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


def test_default_value_set_order(r8, ring_pow):
    vals = default_value_set(r8)
    a = 2
    expect = [1, a, r8.inv(a), ring_pow(r8, a, 2), ring_pow(r8, a, -2), ring_pow(r8, a, 3),
              ring_pow(r8, a, -3)]
    assert vals == expect


@pytest.mark.parametrize("lo, hi, exps", [
    (2, 3, [0, 2, 3]),
    (-3, -2, [0, -2, -3]),
    (20, 40, [0, 5, 6, 7, -7, -6, -5, -4, -3, -2, -1, 1, 2, 3, 4]),
    (10**9, 10**9 + 1, [0, -5, -4]),  # 10^9 = 10 = -5 modulo 15
    (-3, 3, [0, 1, -1, 2, -2, 3, -3]),
])
def test_alpha_powers_keep_their_bounds(lo, hi, exps):
    # alpha has order 15 over x^4+x+1: each value once, in the range's own
    # scan order, and every value within one period
    r = ring("x^4+x+1")
    assert [r.power_of_alpha(v) for v in alpha_powers(r, lo, hi)] == exps


def test_alpha_power_ranges_around_zero_scan_as_before(ring_pow):
    # the former rule for a range around 0, a^e and a^-e for e = 1, 2, .. up
    # to the first a^e = 1, then the scan's dedupe, gives the same values in
    # the same order
    def former(r, lo, hi):
        vals = [1]
        for e in range(1, max(-lo, hi) + 1):
            if ring_pow(r, 2, e) == 1:
                break
            vals += [ring_pow(r, 2, e)] * (e <= hi) + [ring_pow(r, 2, -e)] * (-e >= lo)
        return list(dict.fromkeys(vals))

    for modulus in ("x^2+x+1", "x^2+1", "x^4+x+1", "x^4+x^3+x^2+x+1", "x^8+x^2+1"):
        r = ring(modulus)
        for lo, hi in ((-3, 3), (0, 5), (-9, 1), (-20, 20), (0, 0)):
            assert alpha_powers(r, lo, hi) == former(r, lo, hi), (modulus, lo, hi)


def test_assign_parameters_first_tree(trees8, r8):
    entries = assign_parameters(trees8[0], r8, cost_bound=67)
    assert len(entries) == 8
    assert all(e.cost == 67 and e.mds for e in entries)
    bundled = catalogs.load_catalog("cost67_4x4")[0]
    assert any(e.matrix == bundled.matrix for e in entries)


def test_assign_parameters_respects_bound(trees8, r8):
    assert assign_parameters(trees8[0], r8, cost_bound=66) == []


@pytest.mark.parametrize("modulus", ["x^4+x+1", "x^8+x^2+1"])
@pytest.mark.parametrize("tree, extra, depth", [
    # (tree, scalar XORs over n*s allowed, depth bound): each tree has
    # terms that two nodes scale
    (ImplTree(2, ((-1, 0), (-1, 1)), (1, 2)), 2, 3),
    (ImplTree(2, ((-1, 0), (-1, 1), (0, 2)), (1, 3)), 3, 4),
    (ImplTree(3, ((-2, -1), (0, 1), (-2, 0), (-1, 3), (1, 4)), (2, 4, 5)), 3, 4),
])
def test_assign_parameters_matches_brute_force(modulus, tree, extra, depth):
    # every assignment, in the walk's order: a product (scalar, operand
    # term) is charged once however many nodes form it.  At the skeleton's
    # own depth a scalar may sit only off the longest paths, so the depth
    # lookahead cuts most branches there
    r = ring(modulus)
    a = 2
    values = [1, a, r.inv(a), a] if tree.k == 2 else [1, a, a]
    bound = r.n * tree.capacity + extra
    reused = False
    for depth_bound in (None, depth, tree.skeleton_depth()):
        expected = []
        for assignment in product(dict.fromkeys(values), repeat=tree.scalar_positions()):
            e = CatalogEntry.from_slp(tree.to_slp(r, dict(enumerate(assignment))))
            if e.mds and e.cost <= bound and (depth_bound is None or e.depth <= depth_bound):
                expected.append(e)
                # charged for every non-identity scalar, this one is over the bound
                reused |= r.n * tree.capacity + sum(map(r.scalar_xor_count, assignment)) > bound
        assert expected
        assert assign_parameters(tree, r, bound, values, depth_bound) == expected
    assert reused


def test_degree_one_ring_has_no_alpha(trees8):
    # x+1 has the residues 0 and 1 only: no alpha, so no value set and no
    # exponents
    r = ring("x+1")
    tree = ImplTree(2, ((-1, 0), (0, 1)), (1, 2))
    calls = [lambda: default_value_set(r),
             lambda: assign_parameters(tree, r, 40),
             lambda: search_lowest_cost(4, r, trees=trees8),
             lambda: involutory_search(trees8[2:4], r, 2, 1)]
    for call in calls:
        with pytest.raises(ValueError, match="no alpha in a ring of degree 1"):
            call()


def test_conjugation_preserves_cost_changes_class():
    for e in catalogs.load_catalog("cost67_4x4")[:6]:
        c = CatalogEntry.from_slp(conjugate_slp(e.slp))
        assert c.cost == e.cost == 67
        assert c.mds
        assert c.canonical != e.canonical


def test_conjugation_reaches_every_power_of_alpha():
    # alpha has order 255 here, so a^20 is no power of least |e| <= 16
    r = ring("x^8+x^4+x^3+x^2+1")
    a20 = r.alpha_pow(20)
    p = Slp(r, 2, (Step(-1, 0, a20, 1), Step(-1, 1, 2, r.alpha_pow(-100))), (1, 2))
    c = conjugate_slp(p)
    assert c.steps[0].a == r.alpha_pow(-20) and c.steps[1].b == r.alpha_pow(100)
    assert conjugate_slp(c) == p


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


def test_square_screen_matches_residue_enumeration(ring_pow):
    # x is repairable by a budget b iff x = u * a^g with u^2 = 1, |g| <= b;
    # the search tests x^2 against fixable[b] instead of listing every u
    r = ring("x^8+x^2+1")
    sqrt_one = [u for u in range(1 << r.n) if r.mul(u, u) == 1]
    fixable = _fixable_squares(r, 8)
    for b in range(9):
        expected = {r.mul(u, ring_pow(r, 2, g)) for u in sqrt_one for g in range(-b, b + 1)}
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
