"""Multivariate polynomials over GF(2) in formal parameters.

A monomial is a sorted tuple of parameter ids, repetitions encoding
exponents (parameters range over a ring, so a*a is not reduced to a).  A
polynomial is a frozenset of monomials: coefficients live in GF(2), so
addition is symmetric difference and a repeated monomial cancels.

These polynomials are the exact reference for the symbolic MDS pre-check:
if some minor of a parameterized matrix is identically zero mod 2, no
parameter assignment over any ring can make the corresponding rows part of
an MDS matrix.  No search computes them.  With a parameter on every edge a
minor is decided by vertex-disjoint paths (`treesearch.no_disjoint_paths`),
which the tree search and tree-file `verify` use; the search also evaluates
parameters at one point of GF(2^8) each, `point(pid)`.  With some edges
fixed to 1 path products can cancel, and the support walk in `instantiate`
decides each minor on the Boolean cube (`blockmat.Cube`).  The tests compare
both with `_det` on the vectors of `term_vectors`; `minor_tracker` is the
reference tracker, with `_det` behind each minor that vanishes at the points.
"""

from __future__ import annotations

from .blockmat import MinorTracker
from .gf2 import ring as _ring

Monomial = tuple  # sorted tuple of int parameter ids, with repetition
Poly = frozenset  # frozenset of monomials

SP_ZERO: Poly = frozenset()
SP_ONE: Poly = frozenset({()})

EVAL_MODULUS = "x^8+x^4+x^3+x+1"  # GF(2^8): every nonzero value is a unit


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
    """The evaluation point of parameter pid, an element of GF(2^8) other
    than 0 and 1.

    One point per parameter: a second one would double the tracker's work
    for every minor to save the few minors that vanish at the first point
    without being zero (under 3% of the exact determinants of the 4x4 tree
    search).
    """
    v = ((pid * 0x9E3779B1) ^ (pid >> 3)) & 0xFF
    return v if v > 1 else v + 2


def term_vectors(k: int, nodes, chosen=None):
    """vec(q): the coefficient vector of term q (input -j or node p =
    nodes[p-1] = (m, n), p >= 1) of a tree on k inputs whose node p
    multiplies its left operand by parameter 2p-1 and its right one by 2p,
    or by 1 where the position (2p-2 left, 2p-1 right) is not in chosen
    (None: all are).  Vectors are built on first use and kept."""
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

    return vec


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
