import random
from itertools import combinations

from hypothesis import given, settings, strategies as st

from mdsforge.blockmat import MinorTracker
from mdsforge.gf2 import ring
from mdsforge.sympoly import (
    EVAL_MODULUS,
    SP_ONE,
    SP_ZERO,
    _det,
    minor_tracker,
    point,
    sp_mul,
    sp_mul_param,
)


# parameter polynomials built and evaluated on the test side


def sp_param(pid: int):
    return frozenset({(pid,)})


def sp_eval(p, ring, values: dict[int, int]) -> int:
    """Evaluate at concrete ring values (raw ints); missing ids default to 1."""
    acc = 0
    for m in p:
        term = 1
        for pid in m:
            term = ring.mul(term, values.get(pid, 1))
        acc ^= term
    return acc


# Reference for the symbolic pre-check: the all-polynomial tracker that
# sympoly carried before the check moved onto blockmat.MinorTracker with
# GF(2^8) evaluation and an exact fallback.  Verbatim apart from its name.


class SymbolicMinorTracker:
    """Incrementally checks that all minors touching each new row are nonzero.

    Keeps determinants of all (row set, column set) pairs seen so far, so the
    segment-by-segment pruning of the tree search pays only for the minors the
    new row introduces.
    """

    def __init__(self, k: int):
        self.k = k
        self.rows: list[tuple] = []
        self._dets: dict[tuple[tuple, tuple], frozenset] = {}

    def clone(self) -> "SymbolicMinorTracker":
        c = SymbolicMinorTracker.__new__(SymbolicMinorTracker)
        c.k = self.k
        c.rows = list(self.rows)
        c._dets = dict(self._dets)
        return c

    def add_row(self, row) -> bool:
        row = tuple(row)
        j = len(self.rows)
        self.rows.append(row)
        dets = self._dets
        # order-1 minors of the new row
        for c in range(self.k):
            dets[((j,), (c,))] = row[c]
            if not row[c]:
                return False
        for r in range(2, j + 2):
            for rsub in combinations(range(j), r - 1):
                ridx = rsub + (j,)
                for csub in combinations(range(self.k), r):
                    acc = SP_ZERO
                    for pos, c in enumerate(csub):
                        e = row[c]
                        if not e:
                            continue
                        prev = dets[(rsub, csub[:pos] + csub[pos + 1:])] if r > 1 else SP_ONE
                        if prev:
                            acc = acc ^ sp_mul(e, prev)
                    dets[(ridx, csub)] = acc
                    if not acc:
                        return False
        return True


def reference_precheck(rows) -> bool:
    tracker = SymbolicMinorTracker(len(rows[0]))
    return all(tracker.add_row(row) for row in rows)


def points_of(rows) -> dict:
    return {pid: point(pid) for row in rows for e in row for m in e for pid in m}


def precheck(rows) -> bool:
    """The unified check: every minor of the symbolic rows is nonzero."""
    tracker = minor_tracker(len(rows[0]), rows.__getitem__)
    values = points_of(rows)
    return all(tracker.add_row(tuple(sp_eval(e, tracker.ring, values) for e in row), j)
               for j, row in enumerate(rows))


def det(rows):
    idx = tuple(range(len(rows)))
    return _det(rows, idx, idx, {})


def test_characteristic_two_cancellation():
    p = sp_param(1) ^ sp_param(2)
    assert p ^ p == SP_ZERO


def test_freshman_dream():
    a, b = sp_param(1), sp_param(2)
    s = a ^ b
    sq = sp_mul(s, s)
    assert sq == sp_mul(a, a) ^ sp_mul(b, b)


def test_commutativity():
    a, b = sp_param(1), sp_param(2)
    assert sp_mul(a, b) ^ sp_mul(b, a) == SP_ZERO


def test_exponents_not_reduced():
    a = sp_param(1)
    assert sp_mul(a, a) != a


def test_det_2x2():
    a, b, c, d = (sp_param(i) for i in range(1, 5))
    assert det([[a, b], [c, d]]) == sp_mul(a, d) ^ sp_mul(b, c)
    assert precheck([(a, b), (c, d)])


def test_det_equal_rows_is_zero():
    a, b = sp_param(1), sp_param(2)
    assert det([[a, b], [a, b]]) == SP_ZERO
    assert not precheck([(a, b), (a, b)])


def test_generic_chain_row_minors_nonzero():
    # t1 = a1 x1 + a2 x2; t2 = a3 t1 + a4 x3; y1 = a5 t2 + a6 x4
    a = {i: sp_param(i) for i in range(1, 7)}
    row = (
        sp_mul(a[1], sp_mul(a[3], a[5])),
        sp_mul(a[2], sp_mul(a[3], a[5])),
        sp_mul(a[4], a[5]),
        a[6],
    )
    assert precheck([row])


def test_structurally_missing_input_fails():
    row = (sp_param(1), sp_param(2), SP_ZERO, sp_param(3))
    assert not precheck([row])


def test_second_row_from_both_children_fails():
    # y1 = a1 u + a2 v, y2 = a3 u + a4 v with u spanning two inputs:
    # the 2x2 minor on u's columns cancels mod 2.
    b1, b2 = sp_param(11), sp_param(12)
    u = (b1, b2, SP_ZERO)
    v = (SP_ZERO, SP_ZERO, SP_ONE)
    def comb(c1, c2):
        return tuple(sp_mul_param(x, c1) ^ sp_mul_param(y, c2) for x, y in zip(u, v))
    y1 = comb(1, 2)
    y2 = comb(3, 4)
    assert precheck([y1])
    assert not precheck([y1, y2])


def test_precheck_invariant_under_permutation():
    a = {i: sp_param(i) for i in range(1, 9)}
    rows = [
        (a[1], a[2], a[3]),
        (a[4], a[5], a[1] ^ a[6]),
        (a[7], sp_mul(a[1], a[2]), a[8]),
    ]
    base = precheck(rows)
    assert precheck(rows[::-1]) == base
    flipped = [r[::-1] for r in rows]
    assert precheck(flipped) == base


def test_eval_homomorphism_against_ring_det():
    rng = random.Random(3)
    r = ring("x^4+x+1")
    for _ in range(60):
        rows = [[sp_param(rng.randrange(1, 7)) for _ in range(2)] for _ in range(2)]
        values = {i: rng.randrange(1, 16) for i in range(1, 7)}
        symbolic = det(rows)
        concrete = sp_eval(symbolic, r, values)
        a = sp_eval(rows[0][0], r, values)
        b = sp_eval(rows[0][1], r, values)
        c = sp_eval(rows[1][0], r, values)
        d = sp_eval(rows[1][1], r, values)
        assert concrete == r.mul(a, d) ^ r.mul(b, c)


def test_tracker_matches_full_precheck():
    rng = random.Random(5)
    for _ in range(40):
        rows = [
            tuple(sp_param(rng.randrange(1, 5)) if rng.random() < 0.8 else SP_ZERO
                  for _ in range(3))
            for _ in range(2)
        ]
        assert precheck(rows) == reference_precheck(rows)


def _spurious_pids():
    """(i, j, l) with point(i) * point(j) == point(l): a_i*a_j + a_l is a
    nonzero polynomial that vanishes at the evaluation points."""
    gf = ring(EVAL_MODULUS)
    by_value = {}
    for pid in range(1, 200):
        by_value.setdefault(point(pid), pid)
    for i in range(1, 40):
        for j in range(i + 1, 40):
            l = by_value.get(gf.mul(point(i), point(j)))
            if l is not None and l not in (i, j):
                return i, j, l
    raise AssertionError("no vanishing product among the points")


def test_spurious_zero_goes_on():
    i, j, l = _spurious_pids()
    entry = sp_mul(sp_param(i), sp_param(j)) ^ sp_param(l)
    gf = ring(EVAL_MODULUS)
    assert entry and sp_eval(entry, gf, points_of([[entry]])) == 0
    # order 1: the entry itself vanishes at the points
    assert precheck([(entry,)])
    assert not MinorTracker(gf, 1).add_row((0,), 0)
    # order 2: det [[1, a_l], [1, a_i a_j]] vanishes at the points
    assert precheck([(SP_ONE, sp_param(l)), (SP_ONE, sp_mul(sp_param(i), sp_param(j)))])
    assert not precheck([(SP_ONE, sp_param(l)), (SP_ONE, sp_param(l))])


_monomials = st.lists(st.integers(1, 4), max_size=3).map(lambda m: tuple(sorted(m)))


def _poly(monomials) -> frozenset:
    acc = SP_ZERO
    for m in monomials:
        acc = acc ^ frozenset({m})  # repeated monomials cancel
    return acc


_polys = st.lists(_monomials, max_size=3).map(_poly)


@st.composite
def _symbolic_rows(draw):
    k = draw(st.integers(1, 4))
    rows = [tuple(draw(st.lists(_polys, min_size=k, max_size=k)))
            for _ in range(draw(st.integers(1, k)))]
    for j in range(1, len(rows)):
        how = draw(st.sampled_from(("keep", "repeat", "scale")))
        if how == "repeat":  # equal rows: every 2x2 minor on them cancels mod 2
            rows[j] = rows[draw(st.integers(0, j - 1))]
        elif how == "scale":  # a multiple of an earlier row, also singular
            pid = draw(st.integers(1, 4))
            rows[j] = tuple(sp_mul_param(e, pid) for e in rows[draw(st.integers(0, j - 1))])
    return rows


@settings(max_examples=400, deadline=None)
@given(_symbolic_rows())
def test_unified_tracker_matches_symbolic_reference(rows):
    assert precheck(rows) == reference_precheck(rows)
