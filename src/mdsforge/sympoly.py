"""Multivariate polynomials over GF(2) in formal parameters.

A monomial is a sorted tuple of parameter ids, repetitions encoding
exponents (parameters range over a ring, so a*a is not reduced to a).  A
polynomial is a frozenset of monomials: coefficients live in GF(2), so
addition is symmetric difference and a repeated monomial cancels.

These polynomials carry the symbolic MDS pre-check that prunes the
implementation-tree search: if some minor of the parameterized matrix is
identically zero mod 2, no parameter assignment over any ring can make the
corresponding rows part of an MDS matrix.

The check runs on the one all-minors tracker, `blockmat.MinorTracker`, over
GF(2^8) values: every parameter is evaluated at one fixed nonzero point,
`point(pid)`.  Evaluation is a ring homomorphism, so a nonzero value proves
a minor nonzero.  A minor that evaluates to zero is decided by its exact
symbolic determinant, `_det`; `minor_tracker` wires the two together.
"""

from __future__ import annotations

from .blockmat import MinorTracker
from .gf2 import ring as _ring

Monomial = tuple  # sorted tuple of int parameter ids, with repetition
Poly = frozenset  # frozenset of monomials

SP_ZERO: Poly = frozenset()
SP_ONE: Poly = frozenset({()})

EVAL_MODULUS = "x^8+x^4+x^3+x+1"  # GF(2^8): every nonzero value is a unit


def sp_param(pid: int) -> Poly:
    return frozenset({(pid,)})


def sp_mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return SP_ZERO
    if p == SP_ONE:
        return q
    if q == SP_ONE:
        return p
    acc: set[Monomial] = set()
    for m1 in p:
        for m2 in q:
            m = tuple(sorted(m1 + m2))
            if m in acc:
                acc.discard(m)
            else:
                acc.add(m)
    return frozenset(acc)


def sp_mul_param(p: Poly, pid: int) -> Poly:
    """Multiply by a single fresh parameter (cannot cancel: injective on monomials)."""
    out = set()
    for m in p:
        out.add(tuple(sorted(m + (pid,))))
    return frozenset(out)


def sp_eval(p: Poly, ring, values: dict[int, int]) -> int:
    """Evaluate at concrete ring values (raw ints); missing ids default to 1."""
    acc = 0
    for m in p:
        term = 1
        for pid in m:
            term = ring.mul(term, values.get(pid, 1))
        acc ^= term
    return acc


def _det(rows, ridx: tuple, cidx: tuple, memo: dict) -> Poly:
    """Minor on rows ridx, columns cidx by memoized cofactor expansion;
    signs are irrelevant mod 2."""
    if len(ridx) == 1:
        return rows[ridx[0]][cidx[0]]
    key = (ridx, cidx)
    got = memo.get(key)
    if got is not None:
        return got
    r0 = ridx[0]
    rest = ridx[1:]
    acc = SP_ZERO
    for pos, c in enumerate(cidx):
        e = rows[r0][c]
        if not e:
            continue
        sub = _det(rows, rest, cidx[:pos] + cidx[pos + 1:], memo)
        if sub:
            acc = acc ^ sp_mul(e, sub)
    memo[key] = acc
    return acc


def point(pid: int) -> int:
    """The evaluation point of parameter pid, a nonzero element of GF(2^8).

    One point per parameter: a second one would double the tracker's work
    for every minor to save the few minors that vanish at the first point
    without being zero (under 3% of the exact determinants of the 4x4 tree
    search).
    """
    v = ((pid * 0x9E3779B1) ^ (pid >> 3)) & 0xFF
    return v if v else 1


def term_vectors(k: int, nodes, chosen=None):
    """(vec, cache): vec(q) is the coefficient vector of term q (input -j
    or node p = nodes[p-1] = (m, n), p >= 1) of a tree on k inputs whose
    node p multiplies its left operand by parameter 2p-1 and its right one
    by 2p, or by 1 where the position (2p-2 left, 2p-1 right) is not in
    chosen (None: all are).  Vectors are built on first use and kept in
    cache, from which a search drops the nodes it backtracks over.
    """
    cache = {-j: tuple(SP_ONE if c == j else SP_ZERO for c in range(k)) for j in range(k)}

    def vec(q: int) -> tuple:
        got = cache.get(q)
        if got is None:
            m, n = nodes[q - 1]
            vm, vn = vec(m), vec(n)
            if chosen is None or 2 * q - 2 in chosen:
                vm = tuple(sp_mul_param(c, 2 * q - 1) for c in vm)
            if chosen is None or 2 * q - 1 in chosen:
                vn = tuple(sp_mul_param(c, 2 * q) for c in vn)
            got = cache[q] = tuple(a ^ b for a, b in zip(vm, vn))
        return got

    return vec, cache


def minor_tracker(k: int, sym_row) -> MinorTracker:
    """MinorTracker for rows of k parameter polynomials, added as their
    values at `point` (ints of GF(2^8)).

    A minor that vanishes at the points is truly zero only if its exact
    determinant is; sym_row(i) returns the polynomials of row i for that,
    and is called only then, so callers can build symbolic rows lazily.
    """

    def exact(rowmask: int, colmask: int) -> bool:
        ridx = tuple(i for i in range(rowmask.bit_length()) if rowmask >> i & 1)
        cidx = tuple(c for c in range(colmask.bit_length()) if colmask >> c & 1)
        # _det by its module-level name, so a wrapper set on the module
        # attribute (perfbench's tracer) sees every exact determinant
        return not _det({i: sym_row(i) for i in ridx}, ridx, cidx, {})

    return MinorTracker(_ring(EVAL_MODULUS), k, exact)
