from collections import Counter
from dataclasses import replace
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from mdsforge import blockmat, catalogs, instantiate
from mdsforge.gf2 import FormatError, ring
from mdsforge.blockmat import BlockMatrix, is_involutory, is_mds
from mdsforge.slp import Slp, Step, extract_matrix
from mdsforge.sympoly import EVAL_MODULUS, SP_ONE, _det, term_vectors
from mdsforge.treesearch import ImplTree, symbolic_mds
from mdsforge.instantiate import (
    CatalogEntry,
    InfeasibleError,
    _support_need,
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
    # node 2 is read by no output, so no depth bound limits its scalars
    (ImplTree(2, ((-1, 0), (-1, 0), (-1, 1)), (1, 3)), 4, 3),
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


def _assert_recomputed_alike(entries):
    """Each entry equals the one from_slp recomputes from its program alone,
    the class key (left out of equality) included."""
    for e in entries:
        again = CatalogEntry.from_slp(e.slp)
        assert e == again and e.canonical == again.canonical, e.slp


def test_scan_entries_equal_their_recomputation(trees8, r8):
    # the scan builds each entry from its own rows, charged cost and
    # counted depth; the <= 68 scan of every paper tree, 1,345 entries
    values = alpha_powers(r8, -3, 3)
    entries = [e for t in trees8 for e in assign_parameters(t, r8, 68, values)]
    assert len(entries) == 1345
    _assert_recomputed_alike(entries)


@pytest.mark.parametrize("modulus", ["x^8+x^2+1", "x^4+x+1"])
@pytest.mark.parametrize("depth_bound", [None, 4])
def test_lowest_cost_entries_equal_their_recomputation(trees8, modulus, depth_bound):
    cat = search_lowest_cost(4, ring(modulus), depth_bound, trees=trees8)
    assert cat
    _assert_recomputed_alike(cat)


def test_scan_recomputes_nothing_it_proved(monkeypatch, trees8, r8):
    # counters at the names instantiate calls: a scan's entries take the
    # matrix, MDS, cost and depth from the scan, and a parsed program's
    # entry still recomputes each once
    calls = Counter()

    def count_calls(owner, name):
        fn = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(owner, name, counted)

    count_calls(instantiate, "is_mds")
    for name in ("extract_matrix", "cost", "depth"):
        count_calls(instantiate.slpmod, name)
    entries = assign_parameters(trees8[0], r8, 68, alpha_powers(r8, -3, 3))
    assert entries and not calls
    CatalogEntry.from_slp(entries[0].slp)
    assert calls == {"is_mds": 1, "extract_matrix": 1, "cost": 1, "depth": 1}


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


@pytest.mark.parametrize("step", [Step(-1, 0, 3, 1), Step(-1, 0, 1, 3)])
def test_conjugation_refuses_a_scalar_off_the_powers_of_alpha(step):
    # alpha has order 5 over x^4+x^3+x^2+x+1, and a+1 is none of its powers
    r = ring("x^4+x^3+x^2+x+1")
    p = Slp(r, 2, (step, Step(-1, 1, 1, 1)), (1, 2))
    with pytest.raises(ValueError, match="scalar a\\+1 is not a power of alpha"):
        conjugate_slp(p)


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


def test_simplify_tree_refuses_at_once_a_tree_no_support_makes_mds(monkeypatch, trees8, r4):
    # node 8 reads node 7's operands, so outputs y3 and y4 span one plane:
    # a minor vanishes with a parameter on every edge, hence for every
    # support, and no support table is built.  Without the check the walk
    # ran s up to 2 * capacity on ever wider cubes
    t = trees8[0]
    tree = ImplTree(4, t.nodes[:7] + ((1, 5),), t.outs)
    assert tree.nodes[6] == (1, 5) and not symbolic_mds(tree)
    calls = []
    need = instantiate._support_need
    monkeypatch.setattr(instantiate, "_support_need", lambda *args: calls.append(args) or need(*args))
    with pytest.raises(InfeasibleError, match="vanishes identically"):
        simplify_tree(tree, r4, default_value_set(r4))
    assert calls == []
    # the counter sees the walk on a tree that passes
    simplify_tree(t, r4, default_value_set(r4), max_s=3, first_only=True)
    assert calls


def _every_minor_nonzero(tree, subset) -> bool:
    """Reference for the support tables and the tree-file path rule: every
    minor of the output rows, parameters at the positions in subset and 1
    elsewhere, is a nonzero polynomial."""
    vec = term_vectors(tree.k, tree.nodes, set(subset))
    rows = {i: vec(o) for i, o in enumerate(tree.outs)}
    memo: dict = {}
    return all(_det(rows, ridx, cidx, memo)
               for r in range(1, tree.k + 1)
               for ridx in combinations(range(tree.k), r)
               for cidx in combinations(range(tree.k), r))


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


def _bounded_vectors(n: int, max_s: int, max_t: int):
    """Every integer vector of length n with at most max_s nonzero entries
    whose absolute values sum to at most max_t."""
    if n == 0:
        yield ()
        return
    for e in range(-max_t, max_t + 1):
        if e and not max_s:
            continue
        for rest in _bounded_vectors(n - 1, max_s - (e != 0), max_t - abs(e)):
            yield (e,) + rest


def _involutory_reference(tree, r, max_s, max_t, ring_pow):
    """involutory_search([tree], ...) by brute force, as (assignment, row
    scalars, row order, t, matrix) per hit: every bounded exponent vector over
    the edges and the scalars of the rows no node reads, every row order,
    kept if the matrix is an MDS involution."""
    k, edges = tree.k, tree.scalar_positions()
    read = {t for node in tree.nodes for t in node}
    slots = list(range(edges)) + [edges + j for j, o in enumerate(tree.outs) if o not in read]
    hits = []
    for vector in _bounded_vectors(len(slots), max_s, max_t):
        exps = dict(zip(slots, vector))
        rows = extract_matrix(tree.to_slp(r, {pos: ring_pow(r, 2, exps[pos])
                                              for pos in range(edges)})).rows
        fs = tuple(exps.get(edges + j, 0) for j in range(k))
        scaled = [tuple(r.mul(ring_pow(r, 2, f), x) for x in row) for row, f in zip(rows, fs)]
        if not is_mds(BlockMatrix(r, scaled)):
            continue
        for order in permutations(range(k)):
            m = BlockMatrix(r, [scaled[i] for i in order])
            if is_involutory(m):
                assignment = tuple((pos, exps[pos]) for pos in range(edges) if exps[pos])
                hits.append((assignment, fs, order, sum(map(abs, vector)), m))
    return sorted(hits, key=lambda h: h[:3])


# nodes 1 and 2 both read x1 + x2, and node 3 adds them: with unit weights
# on nodes 1 and 2, node 3 is a multiple of output node 2 for every weight
# of its own
_CANCELLING = ImplTree(2, ((-1, 0), (-1, 0), (1, 2)), (2, 3))

_BRUTE_FORCE_CASES = [
    # every output scalable, then one output that a later node reads
    (ImplTree(2, ((-1, 0), (-1, 1)), (1, 2)), "x^8+x^2+1", 2, 4, 4),
    (ImplTree(2, ((-1, 0), (-1, 1)), (1, 2)), "x^4+x+1", 4, 4, 13),
    (ImplTree(2, ((-1, 0), (-1, 1), (0, 2)), (1, 3)), "x^4+x+1", 2, 4, 6),
    # a k=3 capacity-5 tree: hits over x^4+x+1, none over x^8+x^2+1
    (ImplTree(3, ((-2, -1), (0, 1), (-2, 2), (-1, 2), (0, 2)), (3, 4, 5)), "x^4+x+1", 3, 4, 16),
    (ImplTree(3, ((-2, -1), (0, 1), (-2, 2), (-1, 2), (0, 2)), (3, 4, 5)), "x^8+x^2+1", 3, 4, 0),
    # a support prefix that passes every minor of its rows but that no
    # feasible support completes (see test_support_table_cuts_...)
    (_CANCELLING, "x^4+x+1", 3, 4, 4),
]


@pytest.mark.parametrize("tree, modulus, max_s, max_t, count", _BRUTE_FORCE_CASES)
def test_involutory_search_matches_brute_force(ring_pow, tree, modulus, max_s, max_t, count):
    # the scan prunes by minors, determinant squares and feasible supports,
    # none of which an MDS involution fails: it finds exactly the hits of
    # the full enumeration
    r = ring(modulus)
    hits = involutory_search([tree], r, max_s, max_t)
    assert all(h.tree_index == 1 and h.entry.mds and h.entry.involutory for h in hits)
    got = sorted(((h.assignment, h.row_scalars, h.row_order, h.heuristic_t, h.entry.matrix)
                  for h in hits), key=lambda h: h[:3])
    assert got == _involutory_reference(tree, r, max_s, max_t, ring_pow)
    assert len(got) == count


def _support_need_reference(tree, most):
    """_support_need by brute force: need[p][z] is the least |S| - |z| over
    the supports S of at most most positions whose minors are all nonzero
    polynomials (by determinant, independent of the walk) and that agree
    with z on the positions below 2p-2."""
    need = [{} for _ in range(tree.capacity + 2)]
    for size in range(most + 1):
        for subset in combinations(range(tree.scalar_positions()), size):
            if not _every_minor_nonzero(tree, subset):
                continue
            mask = sum(1 << pos for pos in subset)
            for p in range(1, tree.capacity + 2):
                z = mask & (1 << 2 * p - 2) - 1
                more = size - z.bit_count()
                if more < need[p].get(z, most + 1):
                    need[p][z] = more
    return need


@pytest.mark.parametrize("tree, most", [(None, 3)] + [(case[0], case[2])
                                                      for case in _BRUTE_FORCE_CASES])
def test_support_need_matches_brute_force(trees8, tree, most):
    for t in trees8 if tree is None else [tree]:
        assert _support_need(t, most) == _support_need_reference(t, most)


@st.composite
def _cancelling_trees(draw, extra: int):
    """ImplTrees on k = 2..4 inputs with k to k + extra nodes, where a node
    often repeats an earlier node's operands: with unit weights on both,
    their rows are equal and minors that read them cancel (see _CANCELLING)."""
    k = draw(st.integers(2, 4))
    nodes: list = []
    for p in range(1, draw(st.integers(k, k + extra)) + 1):
        if nodes and draw(st.booleans()):
            nodes.append(draw(st.sampled_from(nodes)))
        else:
            m = draw(st.integers(-(k - 1), p - 2))
            nodes.append((m, draw(st.integers(m + 1, p - 1))))
    outs = sorted(draw(st.sets(st.integers(1, len(nodes)), min_size=k, max_size=k)))
    return ImplTree(k, tuple(nodes), tuple(outs))


@settings(max_examples=60, deadline=None)
@given(_cancelling_trees(3), st.integers(0, 4))
def test_cube_support_need_matches_determinants(tree, most):
    # each minor decided on the truth tables of {0,1}^most, against its
    # symbolic determinant
    assert _support_need(tree, most) == _support_need_reference(tree, most)


@settings(max_examples=150, deadline=None)
@given(_cancelling_trees(5))
def test_tree_file_path_rule_matches_determinants(tree):
    # verify on a tree file: a parameter on every edge, so vertex-disjoint
    # paths decide each minor
    assert symbolic_mds(tree) == _every_minor_nonzero(tree, range(tree.scalar_positions()))


def _simplify_reference(tree, r, values):
    """simplify_tree by brute force: the least s for which some s positions,
    each at a value of values other than 1, and 1 elsewhere give an MDS
    matrix, and every such position tuple in combinations order."""
    values = [v for v in values if v != 1]
    for s in range(1, tree.scalar_positions() + 1):
        witnesses = [subset for subset in combinations(range(tree.scalar_positions()), s)
                     if any(is_mds(extract_matrix(tree.to_slp(r, dict(zip(subset, vals)))))
                            for vals in product(values, repeat=s))]
        if witnesses:
            return s, witnesses


@pytest.mark.parametrize("modulus", ["x^4+x+1", "x^8+x^2+1"])
@pytest.mark.parametrize("tree", list(dict.fromkeys(case[0] for case in _BRUTE_FORCE_CASES)))
def test_simplify_tree_matches_brute_force(tree, modulus):
    r = ring(modulus)
    values = default_value_set(r)
    s, witnesses = _simplify_reference(tree, r, values)
    assert simplify_tree(tree, r, values) == (s, witnesses)
    assert simplify_tree(tree, r, values, first_only=True) == (s, witnesses[:1])


def test_simplify_tree_bundled_witnesses(trees8, r8):
    # every bundled tree needs three non-identity positions
    expect = [
        [(3, 7, 9), (3, 7, 13), (3, 9, 13), (7, 9, 12), (7, 9, 13)],
        [(3, 9, 12), (3, 9, 13), (6, 9, 12), (6, 9, 13)],
        [(3, 7, 9), (3, 7, 13), (3, 9, 13), (7, 9, 12), (7, 9, 13)],
        [(4, 7, 9), (4, 7, 11), (4, 9, 11), (5, 9, 10), (5, 9, 11), (7, 9, 10), (7, 9, 11)],
        [(3, 9, 12), (3, 9, 13), (7, 9, 12), (7, 9, 13)],
        [(5, 6, 11), (7, 9, 10)],
        [(3, 5, 12), (3, 5, 13), (5, 8, 12), (5, 8, 13)],
        [(5, 9, 12)],
    ]
    values = default_value_set(r8)
    assert [simplify_tree(t, r8, values) for t in trees8] == [(3, w) for w in expect]


def test_simplify_tree_bounds_the_walk_work(monkeypatch, r56):
    # a count of the work, where a wall time would not be reproducible.  The
    # support tables' walks, one cube per table, count together: as many
    # calls as on the GF(2^8) tracker with a determinant hook before.  A
    # symbolic screen per subset made 37,869 add_row calls; a concrete scan
    # that stopped at the first passing assignment made 100 on r56, where
    # the walk finishes each candidate support.  The symbolic_mds check
    # ahead of the walk adds one row per output on the evaluation field
    calls = Counter()
    add_row = blockmat.MinorTracker.add_row

    def counting(tracker, row, j):
        calls["cube" if isinstance(tracker.ring, blockmat.Cube) else tracker.ring] += 1
        return add_row(tracker, row, j)

    monkeypatch.setattr(blockmat.MinorTracker, "add_row", counting)
    values = [1] + [r56.alpha_pow(e) for e in (1, -1, 2, -2, 3, -3, 4, -4)]
    got = simplify_tree(catalogs.tree_5x5(), r56, values, max_s=5, first_only=True)
    assert got == (5, [(0, 4, 5, 13, 17)])
    assert calls == {"cube": 23_141, r56: 36_093, ring(EVAL_MODULUS): 5}


def test_a_parameter_is_never_read_as_the_identity():
    # the walk reads a position's support from its value, so were position
    # 54's coordinate 1 it would take the parameter for the identity and
    # judge det [[1, 1], [a55, 1]] = 1 + a55 zero
    tree = ImplTree(2, ((-1, 0),) * 28, (27, 28))
    assert _every_minor_nonzero(tree, (54,))
    assert 1 << 54 in _support_need(tree, 1)[-1]


def test_support_table_cuts_a_prefix_whose_rows_pass():
    # with no parameter on nodes 1 and 2, output node 2 reads (1, 1), whose
    # minors (its entries) are nonzero, yet no weight on node 3 makes the
    # 2x2 determinant nonzero: the table leaves that prefix out, and the
    # scan cuts it before node 2's row reaches the tracker
    tree = _CANCELLING
    assert term_vectors(2, tree.nodes, set())(2) == (SP_ONE, SP_ONE)
    need = _support_need(tree, 3)
    assert 0 not in need[3]
    assert need[1] == {0: 2}
    assert 1 << 4 | 1 << 5 not in need[-1]
    assert 1 << 0 | 1 << 4 in need[-1]


def test_support_prune_bounds_the_scan_work(monkeypatch, trees8, r8):
    # a count of the work, where a wall time would not be reproducible:
    # without the support prune this scan made 143,856 add_row calls
    calls = Counter()
    add_row = blockmat.MinorTracker.add_row

    def counting(tracker, row, j):
        calls[tracker.ring] += 1
        return add_row(tracker, row, j)

    monkeypatch.setattr(blockmat.MinorTracker, "add_row", counting)
    assert len(involutory_search([trees8[2]], r8, 6, 5)) == 6
    assert calls[r8] == 27_740


def test_negative_bounds_scan_nothing(monkeypatch, trees8, r8):
    # a negative max_s admits no assignment, not even the all-identity one,
    # which has 0 > max_s non-identity positions: no tree is scanned
    def scan(*job):
        raise AssertionError("a tree was scanned")

    monkeypatch.setattr(instantiate, "_involutory_one_tree", scan)
    assert involutory_search(trees8[2:4], r8, -1, 5) == []
    assert involutory_search(trees8[2:4], r8, 6, -1) == []


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
