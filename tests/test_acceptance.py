"""Acceptance suite: one criterion per test, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to watch the verdicts.
The k=5 extended search only runs when MDSFORGE_EXTENDED_K5=1 (about 20
minutes at -j 2 on two cores); it reports instead of failing when disabled.
"""

import os
import random
import sys
import time

import pytest

from mdsforge import catalogs
from mdsforge.gf2 import BitMatrix, ring
from mdsforge.blockmat import (
    BlockMatrix,
    branch_number,
    canonical_key,
    is_mds,
)
from mdsforge.slp import Slp, Step, cost, depth, extract_matrix, normalize
from mdsforge.sympoly import SP_ONE, SP_ZERO, minor_tracker, point, sp_mul_param
from mdsforge.treesearch import canonical_tree, search_simplest
from mdsforge.instantiate import (
    CatalogEntry,
    conjugate_slp,
    default_value_set,
    search_lowest_cost,
    simplify_tree,
)


def sp_eval(p, ring, values: dict[int, int]) -> int:
    """Evaluate at concrete ring values (raw ints); missing ids default to 1."""
    acc = 0
    for m in p:
        term = 1
        for pid in m:
            term = ring.mul(term, values.get(pid, 1))
        acc ^= term
    return acc


def report(num, text, started=None):
    took = f"  [{time.time() - started:.1f}s]" if started is not None else ""
    print(f"\nACCEPTANCE {num}: {text}{took}", file=sys.stderr, flush=True)


# -- criterion 1: catalog verification ---------------------------------------


def test_criterion_1_catalog_verification():
    t0 = time.time()
    cat8 = catalogs.load_catalog("cost67_4x4")  # loader re-validates every entry
    assert len(cat8) == 30
    assert all(e.cost == 67 and e.mds for e in cat8)
    conj = catalogs.load_catalog("cost67_4x4_conjugates")
    assert len(conj) == 30
    assert all(e.cost == 67 and e.mds for e in conj)
    for e, c in zip(cat8, conj):
        assert CatalogEntry.from_slp(conjugate_slp(e.slp)).matrix == c.matrix
    keys = {e.canonical for e in cat8} | {e.canonical for e in conj}
    assert len(keys) == 60
    cat4 = catalogs.load_catalog("cost35_4x4")
    assert len(cat4) == 30
    assert all(e.cost == 35 and e.mds for e in cat4)
    report(1, "30 entries verify at 67 XOR (n=8) and 35 XOR (n=4); "
              "conjugates verify; 60 distinct classes: PASS", t0)


# -- criterion 2: simplest-tree search ---------------------------------------


def test_criterion_2_search_small_k():
    t0 = time.time()
    cap2, trees2 = search_simplest(2)
    assert cap2 == 2 and {t.type_vector for t in trees2} == {(1, 1)}
    cap3, trees3 = search_simplest(3)
    assert cap3 == 5 and {t.type_vector for t in trees3} == {(2, 2, 1), (3, 1, 1)}
    report(2, "k=2 minimum capacity 2 (1,1); k=3 minimum 5 (2,2,1),(3,1,1): PASS", t0)


def test_criterion_2_search_k4(cap7_classes, cap8_classes, trees8):
    t0 = time.time()
    assert cap7_classes == []
    types = {t.type_vector for t in cap8_classes}
    assert types == {(3, 3, 1, 1), (4, 2, 1, 1)}
    keys = {canonical_tree(t) for t in cap8_classes}
    for i, t in enumerate(trees8, start=1):
        assert canonical_tree(t) in keys, f"reference tree {i} missing"
    report(2, f"k=4: capacity 7 empty; capacity 8 gives {len(cap8_classes)} classes "
              "of types (3,3,1,1),(4,2,1,1) covering all 8 reference trees: PASS", t0)


def test_criterion_2_search_k5_extended():
    if os.environ.get("MDSFORGE_EXTENDED_K5") != "1":
        report(2, "k=5 extended search SKIPPED (set MDSFORGE_EXTENDED_K5=1, "
                  "about 20 min at -j 2)")
        pytest.skip("k=5 extended search disabled")
    t0 = time.time()
    cap, trees = search_simplest(5, threads=2)
    types = sorted({t.type_vector for t in trees})
    expected = [(4, 4, 1, 2, 1), (4, 4, 2, 1, 1), (4, 5, 1, 1, 1),
                (5, 3, 1, 2, 1), (5, 3, 2, 1, 1), (5, 4, 1, 1, 1),
                (6, 2, 1, 2, 1), (6, 2, 2, 1, 1), (6, 3, 1, 1, 1)]
    assert cap == 12
    assert types == sorted(expected)
    report(2, f"k=5: minimum capacity 12 with the 9 feasible types: PASS", t0)


# -- criterion 3: depth-restricted minima ------------------------------------


def test_criterion_3_depth_minima(cap8_classes, cap9_depth3_classes, r8, r4):
    t0 = time.time()
    d4_n8 = search_lowest_cost(4, r8, trees=cap8_classes, depth_bound=4)
    assert d4_n8 and d4_n8[0].cost == 69
    assert len(d4_n8) == 7
    d4_n4 = search_lowest_cost(4, r4, trees=cap8_classes, depth_bound=4)
    assert d4_n4 and d4_n4[0].cost == 37
    d3_n8 = search_lowest_cost(4, r8, trees=cap9_depth3_classes, depth_bound=3)
    assert d3_n8 and d3_n8[0].cost == 77
    d3_n4 = search_lowest_cost(4, r4, trees=cap9_depth3_classes, depth_bound=3)
    assert d3_n4 and d3_n4[0].cost == 41

    bundled4 = catalogs.load_catalog("depth4_4x4")
    assert len(bundled4) == 7
    assert all(e.cost == 69 and e.depth == 4 and e.mds for e in bundled4)
    assert {e.canonical for e in bundled4} == {e.canonical for e in d4_n8}
    bundled3 = catalogs.load_catalog("depth3_4x4")
    assert len(bundled3) == 3
    assert all(e.cost == 77 and e.mds for e in bundled3)
    # the two exhaustive depth<=3 classes are the first two reference entries;
    # entry 3's program sits one level deeper (see the data README)
    assert {e.canonical for e in d3_n8} == {e.canonical for e in bundled3[:2]}
    report(3, "depth-bound 4 minimum 69/37 (7 classes at n=8); "
              "depth-bound 3 minimum 77/41; reference entries verify: PASS", t0)


# -- criterion 4: involutory reproduction ------------------------------------


def test_criterion_4_involutory(involutory_hits):
    t0 = time.time()
    hits = involutory_hits
    assert hits, "involutory search found nothing"
    assert {h.tree_index for h in hits} == {3, 4}
    assert all(h.heuristic_t >= 5 for h in hits)
    # a row scalar scales only its own row: every hit is an MDS involution
    assert all(h.entry.involutory and h.entry.mds for h in hits)
    assert all(len(h.assignment) + sum(1 for f in h.row_scalars if f) >= 4
               for h in hits)
    t5 = [h for h in hits if h.heuristic_t == 5]
    per_tree = {
        tid: {h.assignment for h in t5 if h.tree_index == tid}
        for tid in (3, 4)
    }
    assert len(per_tree[3]) == 6
    assert len(per_tree[4]) == 12
    bundled = catalogs.load_catalog("involutory_4x4")
    assert len(bundled) == 18
    hit_matrices = {h.entry.matrix for h in t5}
    assert all(e.matrix in hit_matrices for e in bundled)
    cost68 = [bundled[i - 1] for i in (4, 6)] + [bundled[6 + i - 1] for i in (8, 9, 10, 12)]
    assert all(e.cost == 68 and e.involutory and e.mds for e in cost68)
    others = [e for e in bundled if e not in cost68]
    assert all(e.cost == 69 for e in others)
    report(4, "hits only from trees 3 and 4; 6 + 12 assignments at t=5; "
              "six entries at true cost 68: PASS", t0)


# -- criterion 5: higher-order constructions ----------------------------------


def test_criterion_5_higher_order(r56):
    t0 = time.time()
    e5 = catalogs.load_catalog("construction_5x5")[0]
    assert e5.cost == 114 and e5.mds and e5.slp.k_in == 5
    e6 = catalogs.load_catalog("construction_6x6")[0]
    assert e6.cost == 148 and e6.mds and e6.slp.k_in == 6
    report(5, "5x5 verifies MDS at 114 XOR and 6x6 at 148 XOR", t0)

    t1 = time.time()
    tree = catalogs.tree_5x5()
    values = [1] + [r56.alpha_pow(e) for e in (1, -1, 2, -2, 3, -3, 4, -4)]
    s, wits = simplify_tree(tree, r56, values, max_s=5, first_only=True)
    assert s == 5
    assert wits[0] == (0, 4, 5, 13, 17)
    report(5, "simplify_tree minimum s = 5 (witness at the five reference "
              "scalar positions): PASS", t1)


# -- criterion 6: metric oracles ----------------------------------------------


def test_criterion_6_metric_oracles():
    t0 = time.time()
    demo = catalogs.load_slp("demo_cost49")
    assert cost(demo) == 49
    aes = catalogs.load_slp("aes_mixcolumns")
    assert cost(aes) == 108
    balanced = catalogs.load_slp("bitlevel_balanced")
    assert (depth(balanced), cost(balanced)) == (2, 4)
    seq = catalogs.load_slp("bitlevel_sequential")
    assert depth(seq) == 3
    report(6, "costs 49 and 108; bit-level depth/cost 2/4 and variant 3: PASS", t0)


# -- criterion 7: property suite ----------------------------------------------


def _random_block(rng, r, k):
    return BlockMatrix(r, [[rng.randrange(1 << r.n) for _ in range(k)]
                           for _ in range(k)])


def test_criterion_7_branch_number_oracle():
    t0 = time.time()
    rng = random.Random(2024)
    for modulus in ("x^2+x+1", "x^3+x+1"):
        r = ring(modulus)
        for _ in range(100):
            m = _random_block(rng, r, 3)
            mds = is_mds(m)
            assert mds == (branch_number(m, "differential") == 4)
            assert mds == (branch_number(m, "linear") == 4)
    report(7, "is_mds equals brute-force branch number 4 on 200 random "
              "3x3 matrices (both kinds): PASS", t0)


def test_criterion_7_normalize_preserves():
    t0 = time.time()
    rng = random.Random(31337)
    r = ring("x^4+x+1")
    done = 0
    while done < 1000:
        k = rng.choice((3, 4))
        steps_n = rng.randrange(k, 2 * k + 2)
        steps = []
        lo = -(k - 1)
        for p in range(1, steps_n + 1):
            m = rng.randrange(lo, p)
            n = rng.randrange(lo, p)
            while n == m:
                n = rng.randrange(lo, p)
            steps.append(Step(m, n,
                              rng.choice((1, 1, 2, r.inv(2), 4)),
                              rng.choice((1, 1, 2, r.inv(2), 4))))
        avail = list(range(lo, steps_n + 1))
        rng.shuffle(avail)
        outs = tuple(sorted(avail[:k]))
        p = Slp(r, k, tuple(steps), outs)
        try:
            q = normalize(p)
        except Exception:
            continue
        assert extract_matrix(q) == extract_matrix(p)
        assert cost(q) == cost(p)
        assert depth(q) == depth(p)
        done += 1
    report(7, "normalize preserves matrix, cost and depth on 1000 random "
              "programs: PASS", t0)


def test_criterion_7_element_matrix_homomorphism():
    t0 = time.time()
    rng = random.Random(777)
    rings = [ring(m) for m in ("x^8+x^2+1", "x^4+x+1", "x^3+x+1")]
    for i in range(1000):
        r = rings[i % 3]
        a = rng.randrange(1 << r.n)
        b = rng.randrange(1 << r.n)
        assert r.element_matrix_int(r.mul(a, b)) == \
            r.element_matrix_int(a) * r.element_matrix_int(b)
        ma, mb = r.element_matrix_int(a), r.element_matrix_int(b)
        assert r.element_matrix_int(a ^ b) == \
            BitMatrix(tuple(x ^ y for x, y in zip(ma.rows, mb.rows)), r.n)
    report(7, "element matrices respect ring sum and product on 1000 "
              "random pairs: PASS", t0)


def test_criterion_7_canonical_form_orbit():
    t0 = time.time()
    rng = random.Random(4242)
    entries = catalogs.load_catalog("cost67_4x4")
    from itertools import permutations
    perms = list(permutations(range(4)))
    for _ in range(100):
        e = rng.choice(entries)
        m = e.matrix
        rp, cp = rng.choice(perms), rng.choice(perms)
        pm = BlockMatrix(m.ring, tuple(
            tuple(m.rows[rp[i]][cp[j]] for j in range(4)) for i in range(4)))
        assert canonical_key(pm) == e.canonical
    report(7, "canonical form constant on 100 random PMQ orbit members: PASS", t0)


def test_criterion_7_precheck_soundness():
    t0 = time.time()
    rng = random.Random(555)
    r = ring("x^4+x+1")
    pruned = 0
    while pruned < 100:
        k = rng.choice((3, 4))
        # random normal segment structure of 2 output rows
        capacity = rng.randrange(2, 6)
        nodes = []
        for p in range(1, capacity + 1):
            lo = -(k - 1)
            m = rng.randrange(lo, p)
            n = rng.randrange(lo, p)
            while n == m:
                n = rng.randrange(lo, p)
            nodes.append((min(m, n), max(m, n)))
        outs = sorted(rng.sample(range(1, capacity + 1), 2))
        vecs = {-j: tuple(SP_ONE if c == j else SP_ZERO for c in range(k))
                for j in range(k)}
        ok = True
        rows = []
        # the symbolic pre-check: rows evaluated at sympoly.point, exact on
        # every minor that vanishes there
        tracker = minor_tracker(k, rows.__getitem__)
        points = {pid: point(pid) for pid in range(1, 2 * capacity + 1)}
        for p, (m, n) in enumerate(nodes, start=1):
            row = tuple(sp_mul_param(a, 2 * p - 1) ^ sp_mul_param(b, 2 * p)
                        for a, b in zip(vecs[m], vecs[n]))
            vecs[p] = row
            if p in outs:
                rows.append(row)
                ok = ok and tracker.add_row(tuple(sp_eval(c, tracker.ring, points)
                                                  for c in row), len(rows) - 1)
        if ok:
            continue
        pruned += 1
        # soundness: every instantiation leaves some minor a non-unit
        for _ in range(5):
            values = {pid: rng.randrange(1, 16) for pid in range(1, 2 * capacity + 1)}
            concrete = [tuple(sp_eval(c, r, values) for c in row) for row in rows]
            assert not _rows_extend_to_mds(r, concrete)
    report(7, "symbolic pre-check failures stay non-MDS under 5 random "
              "instantiations each, 100 pruned row sets: PASS", t0)


def _rows_extend_to_mds(r, rows):
    from mdsforge.blockmat import MinorTracker as RingTracker
    tracker = RingTracker(r, len(rows[0]))
    return all(tracker.add_row(row, j) for j, row in enumerate(rows))
