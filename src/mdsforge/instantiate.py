"""Assigning ring values to implementation trees.

Covers tree simplification (fewest non-identity positions that admit an MDS
instance), exhaustive cost-bounded assignment scans with the scalar-reuse
cost rule, lowest-cost catalog construction with optional depth bounds, the
involutory search over row orders and row scalings, and the catalog text
format.  One depth-first walk over the parameter supports,
`_support_walk`, is the only subset scan.  On the truth tables of the
Boolean cube (`blockmat.Cube`), where each minor of formal parameters is
decided exactly, it finds the feasible supports (`_support_need`): tree
simplification tries only
those, each by the same walk over the ring's values, and the involutory
search cuts every branch whose support no feasible support can complete
within its budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, partial
from itertools import count, permutations
from math import inf

from .gf2 import FormatError, QuotientRing, expect_end
from . import blockmat
from .blockmat import (BlockMatrix, Cube, MinorTracker, canonical_key, is_involutory, is_mds,
                       packed_rows, squares_to_identity)
from . import slp as slpmod
from .slp import Slp, Step
from .treesearch import ImplTree, min_capacity, pool_map, search_at_capacity, symbolic_mds


class InfeasibleError(ValueError):
    """No assignment over the given value set produces an MDS matrix."""


@dataclass(frozen=True)
class CatalogEntry:
    """A program with its matrix, reuse-rule cost, depth, MDS and
    involution verdicts and PMQ class key (see `canonical_key`).

    A search's entries carry what the search proved: the output rows it
    built, the cost it charged, the depth it counted and MDS, since every
    row passed the all-minors tracker.  Parsed programs recompute every
    field.  Either way the entry is built by `from_slp`."""

    slp: Slp
    matrix: BlockMatrix
    cost: int
    depth: int
    mds: bool
    involutory: bool
    canonical: tuple = field(compare=False)

    @classmethod
    def from_slp(cls, p: Slp, _proved: tuple | None = None) -> "CatalogEntry":
        """The entry of program p.  A search passes _proved = (rows, cost,
        depth): p's output rows as it built them (entry sequences, in output
        order), the reuse-rule cost of p and its depth, all proved by the
        search, whose tracker passed every row, so the matrix is MDS.
        Without it every field is recomputed from p.  The involution test
        and the class key are computed either way."""
        if _proved is None:
            m = slpmod.extract_matrix(p)
            cost, depth, mds = slpmod.cost(p), slpmod.depth(p), is_mds(m)
        else:
            rows, cost, depth = _proved
            m, mds = BlockMatrix(p.ring, rows), True
        return cls(
            slp=p,
            matrix=m,
            cost=cost,
            depth=depth,
            mds=mds,
            involutory=is_involutory(m),
            canonical=canonical_key(m),
        )

    def sort_key(self):
        return (self.cost, self.depth, self.canonical)


def alpha_powers(ring: QuotientRing, lo: int, hi: int) -> list[int]:
    """1 and each a^e with lo <= e <= hi, each value once, at its first place
    when the range's exponents are scanned in the documented order 1, a,
    a^-1, a^2, a^-2, ...  The scan reads one period of alpha's order from
    the range's exponent nearest 0: past that the powers repeat."""
    order = ring.alpha_order()
    near = 0 if lo <= 0 <= hi else min(abs(lo), abs(hi))
    scan = [e for m in range(max(near, 1), near + order) for e in (m, -m) if lo <= e <= hi]
    return list(dict.fromkeys([1] + [ring.alpha_pow(e) for e in scan]))


def default_value_set(ring: QuotientRing) -> list[int]:
    """The scan's values when none are given: 1, a^±1, a^±2, a^±3."""
    return alpha_powers(ring, -3, 3)


def conjugate_slp(p: Slp) -> Slp:
    """Replace every scalar a^e by a^-e (scalars must be powers of alpha)."""
    ring = p.ring

    def flip(v: int) -> int:
        e = ring.power_of_alpha(v)
        if e is None:
            raise ValueError(f"scalar {ring.element_text(v)} is not a power of alpha")
        return ring.alpha_pow(-e)

    steps = tuple(Step(st.m, st.n, flip(st.a), flip(st.b)) for st in p.steps)
    return Slp(ring, p.k_in, steps, p.outputs)


# ---------------------------------------------------------------------------
# assignment scan (Algorithm 3 with the reuse-aware cost bound)


def check_units(ring: QuotientRing, values) -> None:
    """Raise ValueError naming the first of values that is not a unit: a
    scalar that is not one cannot be part of an MDS matrix's program."""
    for v in values:
        if not ring.is_unit(v):
            raise ValueError(f"value {ring.element_text(v)} is not a unit")


def _scan_state(tree: ImplTree, ring: QuotientRing) -> tuple:
    """(plan, scaled, scale, unpack) for a depth-first scan over tree's
    nodes on ring's packed rows, with scale and unpack those of
    `packed_rows`.  plan[p] = (m, n, j) for node p: its operand terms and
    its output row, None if it is no output.  scaled[t] maps 1 and each
    value used on term t since its row was last written to that row scaled
    by it; term t sits at index t, so input c is at -c.  A scan replaces
    node p's table whenever it writes p's row: the tables of the nodes past
    the current one are stale, and each is written again before it is read.
    So a scaled row is computed once per (row, value), not once per operand
    pair, and a table holds at most one row per value."""
    scale, unpack, units = packed_rows(ring, tree.k)
    out_row = {o: j for j, o in enumerate(tree.outs)}
    plan = [None] + [(m, n, out_row.get(p)) for p, (m, n) in enumerate(tree.nodes, start=1)]
    scaled: list = [None] * (tree.capacity + len(units))
    for c, u in enumerate(units):
        scaled[-c] = {1: u}
    return plan, scaled, scale, unpack


def assign_parameters(tree: ImplTree, ring: QuotientRing, cost_bound: int,
                      value_set: list[int] | None = None,
                      depth_bound: int | None = None) -> list[CatalogEntry]:
    """Exhaustive scan of scalar assignments with true cost <= cost_bound
    and, with depth_bound set, depth <= depth_bound.

    Values are drawn per position from value_set (default 1, a^±1, a^±2,
    a^±3; a repeated value only at its first place); the running cost n*s + t
    prunes branches.  t charges each distinct (scalar, operand term) product
    once: a value is charged at a position unless an earlier position scales
    the same operand term by it, and 1 costs nothing.  A position visits
    only the values its remaining budget affords, from lists made once per
    budget in value-set order, with the values an earlier position holds on
    its operand term added at no charge.  Completed output rows prune
    through the all-minors-are-units tracker.  With depth_bound, node p is
    cut as soon as its depth d has d + height[p] > depth_bound, where
    height[p] is the longest path from p to an output that reads it: each
    step of such a path adds a level; a node that no output reads, even
    indirectly, is not bounded.  A tree whose skeleton is deeper than
    depth_bound has no assignment.  Deterministic order.
    """
    if value_set is None:
        value_set = default_value_set(ring)
    value_set = list(dict.fromkeys(value_set))
    check_units(ring, value_set)
    base = ring.n * tree.capacity
    budget = cost_bound - base
    if budget < 0 or depth_bound is not None and tree.skeleton_depth() > depth_bound:
        return []
    cap, outs = tree.capacity, tree.outs
    priced = [(v, ring.scalar_xor_count(v)) for v in value_set]
    # no scan charges more than every position its dearest value
    budget = min(budget, 2 * cap * max((c for _, c in priced), default=0))
    bit = {v: 0 if v == 1 else 1 << i for i, v in enumerate(value_set)}
    # only 1, for an operand that a scalar would put over the depth bound
    unscaled = [tuple((v, c, 0, 0) for v, c in priced if v == 1)] * (budget + 1)

    @cache
    def menu(held: int) -> list:
        """menu(held)[r]: the options that r of the budget affords, in
        value-set order, at a position whose operand term earlier positions
        scale by the values of the bit set held, which are charged nothing
        there.  An option is (value, charge, its bit, the level it adds);
        the lists are made once per held set."""
        charged = [(v, 0 if bit[v] & held else c, bit[v], int(v != 1)) for v, c in priced]
        return [tuple(o for o in charged if o[1] <= r) for r in range(budget + 1)]

    # prev[pos]: the last earlier position on the same operand term, or the
    # slot 2 * cap, which holds no value; held[pos] is the bit set of the
    # values at pos and at the earlier positions on its term
    terms = [t for node in tree.nodes for t in node]
    prev = [max((q for q in range(i) if terms[q] == t), default=2 * cap)
            for i, t in enumerate(terms)]
    held = [0] * (2 * cap + 1)
    # lim[p]: the most levels an operand of node p may reach, one more if
    # its scalar is not 1, so depth_bound - height[p] - 1; inf for a node
    # that no output reads and for every node without depth_bound
    top = inf if depth_bound is None else depth_bound - 1
    lim = [inf] * (cap + 1)
    for p in range(cap, 0, -1):
        lim[p] = min([lim[q] - 1 for q in range(p + 1, cap + 1) if p in tree.nodes[q - 1]]
                     + [top] * (p in outs), default=inf)

    add_row = MinorTracker(ring, tree.k).add_row
    plan, scaled, scale, unpack = _scan_state(tree, ring)
    # per-term depths and per-position scalars, written at their depth like
    # the scaled rows
    depths = [0] * len(scaled)
    scalars: dict[int, int] = {}
    entries: list[CatalogEntry] = []

    def rec(p: int, t_used: int):
        if p > cap:
            # the scan's own facts: its output rows, each passed by the
            # tracker, the reuse rule's cost and the depth it counted
            proved = ([unpack(scaled[o][1]) for o in outs], base + t_used,
                      max([depths[o] for o in outs]))
            entries.append(CatalogEntry.from_slp(tree.to_slp(ring, scalars), proved))
            return
        m, n, j = plan[p]
        pa, pb = 2 * p - 2, 2 * p - 1
        dm, dn, lp = depths[m], depths[n], lim[p]
        ha, hb = held[prev[pa]], held[prev[pb]]
        # neither operand is above lim[p]: an input is at level 0, which the
        # skeleton check allows, and a node kept to its own, lower limit
        menu_a = unscaled if dm == lp else menu(ha)
        menu_b = unscaled if dn == lp else menu(hb)
        sm, sn = scaled[m], scaled[n]
        left = budget - t_used
        for a, ca, bit_a, level_a in menu_a[left]:
            va = sm.get(a)
            if va is None:
                va = sm[a] = scale(sm[1], a)
            da = dm + level_a
            held[pa] = ha | bit_a
            for b, cb, bit_b, level_b in menu_b[left - ca]:
                vb = sn.get(b)
                if vb is None:
                    vb = sn[b] = scale(sn[1], b)
                row = va ^ vb
                if j is not None and not add_row(unpack(row), j):
                    continue
                scaled[p] = {1: row}
                db = dn + level_b
                depths[p] = 1 + (da if da > db else db)
                held[pb] = hb | bit_b
                scalars[pa] = a
                scalars[pb] = b
                rec(p + 1, t_used + ca + cb)

    rec(1, 0)
    del rec  # it refers to itself: free the scan's state now, not at a full collection
    return entries


def search_lowest_cost(k: int, ring: QuotientRing,
                       depth_bound: int | None = None,
                       trees: list[ImplTree] | None = None) -> list[CatalogEntry]:
    """Catalog of lowest-cost MDS classes over the simplest trees, with the
    default value set.

    Capacities are scanned upward: the given trees grouped by capacity, or
    else those `search_at_capacity` finds from `min_capacity` on.  Since any
    MDS assignment needs at least one non-trivial product, capacity c cannot
    beat a known cost below n*c + 1, which ends the scan.  Within a capacity
    the scalar budget deepens one XOR at a time up to the first with
    entries.  With depth_bound set, assignments are bounded by exact depth.
    Returns PMQ-class representatives sorted by (cost, depth, canonical
    encoding).
    """
    value_set = default_value_set(ring)
    max_val_cost = max(ring.scalar_xor_count(v) for v in value_set)
    if trees is None:
        caps = count(min_capacity(k))
        trees_at = partial(search_at_capacity, k, max_depth=depth_bound)
    else:
        group: dict[int, list[ImplTree]] = {}
        for t in trees:
            group.setdefault(t.capacity, []).append(t)
        caps, trees_at = sorted(group), group.get
    best: list[CatalogEntry] = []
    best_cost: int | None = None
    for cap in caps:
        base = ring.n * cap
        if best_cost is not None and base + 1 > best_cost:
            break
        cap_trees = trees_at(cap)
        limit = best_cost - base if best_cost is not None else 2 * cap * max_val_cost
        for t_budget in range(1, limit + 1):
            found = [e for t in cap_trees
                     for e in assign_parameters(t, ring, base + t_budget, value_set, depth_bound)]
            if found:
                for e in found:
                    if best_cost is None or e.cost < best_cost:
                        best, best_cost = [e], e.cost
                    elif e.cost == best_cost:
                        best.append(e)
                break
    return pmq_classes(best)


def pmq_classes(entries) -> list[CatalogEntry]:
    """One entry per PMQ class (equivalence under row and column
    permutation): the first of least sort key, the classes in sort key order."""
    classes: dict[tuple, CatalogEntry] = {}
    for e in sorted(entries, key=CatalogEntry.sort_key):
        classes.setdefault(e.canonical, e)
    return list(classes.values())


# ---------------------------------------------------------------------------
# Algorithm 2: minimal non-identity position sets


def simplify_tree(tree: ImplTree, ring: QuotientRing, value_set: list[int],
                  max_s: int | None = None, first_only: bool = False):
    """Smallest s such that assigning s positions (others identity) can give
    an MDS matrix; returns (s, witness position tuples).

    For s = 1, 2, ... the candidates are the supports of s positions that
    `_support_need(tree, s)` finds feasible, in `combinations` order.  One
    is a witness if `_support_walk` on ring's tracker, with the values of
    value_set other than 1 on its positions and 1 elsewhere, passes.

    A tree that `symbolic_mds` rejects fails at once: a minor that vanishes
    with a parameter on every edge vanishes under every specialization.
    """
    if not symbolic_mds(tree):
        raise InfeasibleError("no support can make the tree MDS: a minor vanishes identically")
    values = [v for v in value_set if v != 1]
    npos = tree.scalar_positions()
    limit = max_s if max_s is not None else npos
    tracker = MinorTracker(ring, tree.k)
    for s in range(1, limit + 1):
        witnesses = []
        for subset in sorted(tuple(pos for pos in range(npos) if z >> pos & 1)
                             for z in _support_need(tree, s)[-1] if z.bit_count() == s):
            menus = [(values if pos in subset else (1,),) * (s + 1) for pos in range(npos)]
            if _support_walk(tree, tracker, menus, s)[1]:
                witnesses.append(subset)
                if first_only:
                    return s, witnesses
        if witnesses:
            return s, witnesses
    raise InfeasibleError(f"no MDS assignment with up to {limit} non-identity positions")


def _support_need(tree: ImplTree, most: int) -> list[dict]:
    """`_support_walk`'s table on formal parameters: need[p][z] is the
    fewest further positions that finish z to a support S of at most `most`
    positions where every minor of the output rows, with parameters on S
    and 1 elsewhere, is a nonzero polynomial; a z that none extends is absent.

    By the Lindstrom-Gessel-Viennot lemma a minor has one product per family
    of vertex-disjoint paths, which uses each edge at most once, so it is
    multilinear and zero iff it vanishes on {0,1}^|S|: the walk runs on a
    `Cube`, a branch's i-th support position at coordinate i."""
    cube = Cube(most)
    menu = [(1, x) for x in cube.coordinates(tree.k)] + [(1,)]
    return _support_walk(tree, MinorTracker(cube, tree.k), [menu] * tree.scalar_positions(), most)


def _support_walk(tree: ImplTree, tracker: MinorTracker, menus, most: int) -> list[dict]:
    """need[p][z] for p = 1..capacity+1: for a support z, a bitmask over
    the positions below 2p-2 (those of nodes 1..p-1), the fewest further
    positions that finish it to a support of at most `most` positions whose
    assignment passes tracker.  A z with no such completion is absent.

    One depth-first walk: position pos takes the values menus[pos][size],
    in order, where size is the support's size below pos, and is in the
    support iff its value is not 1.  Output j is the tracker's row j,
    written in place, so a rejected prefix row cuts all its extensions."""
    cap = tree.capacity
    add_row = tracker.add_row
    plan, scaled, scale, unpack = _scan_state(tree, tracker.ring)
    need: list[dict] = [{} for _ in range(cap + 2)]

    def rec(p: int, z: int, size: int) -> int:
        """The least size of a passing support that extends z, or most + 1."""
        if p > cap:
            need[p][z] = 0
            return size
        m, n, j = plan[p]
        pa, pb = 2 * p - 2, 2 * p - 1
        sm, sn = scaled[m], scaled[n]
        best = most + 1
        for a in menus[pa][size]:
            va = sm.get(a)
            if va is None:
                va = sm[a] = scale(sm[1], a)
            ia = a != 1
            sa = size + ia
            for b in menus[pb][sa]:
                vb = sn.get(b)
                if vb is None:
                    vb = sn[b] = scale(sn[1], b)
                ib = b != 1
                row = va ^ vb
                if j is not None and not add_row(unpack(row), j):
                    continue
                scaled[p] = {1: row}
                best = min(best, rec(p + 1, z | ia << pa | ib << pb, sa + ib))
        if best <= most:
            need[p][z] = best - size
        return best

    rec(1, 0, 0)
    del rec  # it refers to itself: free the walk's state now, not at a full collection
    return need


# ---------------------------------------------------------------------------
# involutory search (row orders and row scalings included)


@dataclass(frozen=True)
class InvolutoryHit:
    tree_index: int
    assignment: tuple[tuple[int, int], ...]  # (position, exponent), edges only
    row_scalars: tuple[int, ...]             # exponents on y_1..y_k
    row_order: tuple[int, ...]               # result row i takes source y[row_order[i]]
    heuristic_t: int
    entry: CatalogEntry


def involutory_search(trees: list[ImplTree], ring: QuotientRing,
                      max_s: int = 6, max_t: int = 8,
                      threads: int = 1) -> list[InvolutoryHit]:
    """MDS involutions from parameterized trees, exponent heuristic bounded.

    Scans every assignment of at most max_s positions to powers of alpha
    with total |exponent| at most max_t, then every row order.  The
    positions are the 2*capacity edge scalars and one scalar per output row
    that no later node reads: a row scalar is folded into the two operand
    scalars of its output node, so on an output that another node reads it
    would change that node's row too.  The true cost is the reuse rule cost
    of the scaled program.  MDS status is independent of row order and
    scaling, so it prunes before the permutation scan.  So does the support
    prune: if a minor is zero with formal parameters on the support of the
    nonzero edge exponents and 1 elsewhere, every assignment with that
    support fails, and a branch is cut before its row reaches the tracker
    when no feasible support of at most min(max_s, max_t) positions extends
    its support within the s and t left (see `_support_need`).  A negative
    max_s or max_t admits nothing.  Results are deterministic for any
    thread count.
    """
    if min(max_s, max_t) < 0:  # no count or exponent total is negative
        return []
    jobs = [(tree, i, ring, max_s, max_t) for i, tree in enumerate(trees, start=1)]
    hits = [h for batch in pool_map(_involutory_one_tree, jobs, threads) for h in batch]
    hits.sort(key=lambda h: (h.entry.cost, h.tree_index, h.assignment, h.row_order))
    return hits


def _involutory_one_tree(tree: ImplTree, t_idx: int, ring: QuotientRing,
                         max_s: int, max_t: int) -> list[InvolutoryHit]:
    k = tree.k
    cap = tree.capacity
    mul = ring.mul
    mrows = ring.mul_rows()
    alpha_pow = {e: ring.alpha_pow(e) for e in range(-max_t, max_t + 1)}
    tracker = MinorTracker(ring, k)
    add_row = tracker.add_row
    plan, scaled, scale, unpack = _scan_state(tree, ring)
    # the exponents (0: the identity) of each edge position and each row
    # scalar, written at their depth like the scaled rows
    exps = [0] * tree.scalar_positions()
    fs = [0] * k
    hits: list[InvolutoryHit] = []

    # opts[b]: the exponents a position may take with b of the budget t
    # left, in scan order 0, 1, -1, 2, -2, ..., each as (exponent, its power
    # of alpha, |exponent|, whether it is not 0); opts[0] holds only 0 and
    # also serves once s is spent
    opts = [tuple((e, alpha_pow[e], abs(e), int(e != 0))
                  for e in [0] + [e for mag in range(1, b + 1) for e in (mag, -mag)])
            for b in range(max_t + 1)]
    # a row scalar is folded into the operand scalars of its output node, so
    # it scales only its own row if no later node reads that output
    scalable = [not any(o in node for node in tree.nodes) for o in tree.outs]

    def record(order, t2):
        assignment = tuple((pos, e) for pos, e in enumerate(exps) if e)
        folded = {pos: alpha_pow[e] for pos, e in assignment}
        for j, f in enumerate(fs):
            if f:
                o = tree.outs[j]
                for pos in (2 * (o - 1), 2 * (o - 1) + 1):
                    folded[pos] = mul(alpha_pow[f], folded.get(pos, 1))
        base = tree.to_slp(ring, folded)
        sl = Slp(ring, k, base.steps, tuple(tree.outs[order[i]] for i in range(k)))
        return InvolutoryHit(
            tree_index=t_idx,
            assignment=assignment,
            row_scalars=tuple(fs),
            row_order=tuple(order),
            heuristic_t=t2,
            entry=CatalogEntry.from_slp(sl),
        )

    # det(M)^2 = 1 is necessary for M^2 = I, and det(P D R) = prod(d) *
    # det(R) does not depend on the row order.  The leaf screen compares
    # squares, det(R)^2 * prod a^(2f) with sq[f] = a^(2f).
    sq = {e: mul(v, v) for e, v in alpha_pow.items()}

    def scal_rec(i: int, s2: int, t2: int, dprod: int, det_sq: int):
        if i == k:
            if mul(det_sq, dprod) != 1:
                return
            rows = [unpack(scale(scaled[o][1], alpha_pow[f]) if f else scaled[o][1])
                    for o, f in zip(tree.outs, fs)]
            for order in permutations(range(k)):
                mat = tuple(rows[order[i2]] for i2 in range(k))
                if squares_to_identity(mat, mrows):
                    hits.append(record(order, t2))
            return
        for f, _, mag, nz in opts[max_t - t2 if s2 < max_s and scalable[i] else 0]:
            fs[i] = f
            scal_rec(i + 1, s2 + nz, t2 + mag, dprod if f == 0 else mul(dprod, sq[f]), det_sq)

    # the support prune: an assignment whose support of nonzero exponents
    # has a minor that is zero with formal parameters there and 1 elsewhere
    # fails, that minor being zero for every specialization.  A support z
    # of the nodes so far needs need[p][z] more nonzero exponents, each of
    # which spends 1 of s and at least 1 of t; most + 1 exceeds any budget.
    most = min(max_s, max_t)
    need = _support_need(tree, most)

    def rec(p: int, s_used: int, t_used: int, z: int):
        if p > cap:
            det = tracker.full_det()
            scal_rec(0, s_used, t_used, 1, mul(det, det))
            return
        m, n, j = plan[p]
        pa, pb = 2 * p - 2, 2 * p - 1
        sm, sn = scaled[m], scaled[n]
        after = need[p + 1]
        for ea, a, mag_a, nz_a in opts[max_t - t_used if s_used < max_s else 0]:
            sa, ta = s_used + nz_a, t_used + mag_a
            za = z | nz_a << pa
            va = sm.get(a)
            if va is None:
                va = sm[a] = scale(sm[1], a)
            for eb, b, mag_b, nz_b in opts[max_t - ta if sa < max_s else 0]:
                sb, tb = sa + nz_b, ta + mag_b
                z2 = za | nz_b << pb
                more = after.get(z2, most + 1)
                if more > max_s - sb or more > max_t - tb:
                    continue
                vb = sn.get(b)
                if vb is None:
                    vb = sn[b] = scale(sn[1], b)
                row = va ^ vb
                if j is not None and not add_row(unpack(row), j):
                    continue
                scaled[p] = {1: row}
                exps[pa] = ea
                exps[pb] = eb
                rec(p + 1, sb, tb, z2)

    rec(1, 0, 0, 0)
    del rec  # it refers to itself: free the scan's state and table now
    return hits


# ---------------------------------------------------------------------------
# catalog text format


HEADER_KEYS = ("cost", "depth", "mds", "involutory")


def catalog_to_text(entries, comments: list[str] | None = None) -> str:
    blocks = []
    if comments:
        blocks.append("\n".join(f"# {c}" for c in comments))
    for e in entries:
        head = (f"cost {e.cost} depth {e.depth} "
                f"mds {1 if e.mds else 0} involutory {1 if e.involutory else 0}")
        blocks.append(head + "\n" + blockmat.matrix_to_text(e.matrix).rstrip("\n")
                      + "\n" + slpmod.slp_to_text(e.slp).rstrip("\n"))
    return "\n\n".join(blocks) + "\n"


def catalog_records(text: str):
    """Raw (header fields, matrix, slp, first line number) records, blank-line
    separated; '#' lines are comments."""
    blocks: list[list[tuple[int, str]]] = [[]]
    for no, raw in enumerate(text.splitlines(), start=1):
        s = raw.strip()
        if not s:
            if blocks[-1]:
                blocks.append([])
        elif not s.startswith("#"):
            blocks[-1].append((no, raw.rstrip()))

    records = []
    for block in filter(None, blocks):
        lineno, head = block[0][0], block[0][1].split()
        if len(head) != 8 or tuple(head[0::2]) != HEADER_KEYS:
            raise FormatError("catalog entry header must read "
                              "'cost <c> depth <d> mds <0|1> involutory <0|1>'", lineno)
        try:
            fields = {head[j]: int(head[j + 1]) for j in range(0, len(head), 2)}
        except ValueError:
            raise FormatError("bad catalog header", lineno) from None
        matrix, nxt = blockmat.matrix_from_lines(block, 1)
        slp, end = slpmod.slp_from_lines(block, nxt)
        expect_end(block, end)
        slpmod.check_square(slp, block[nxt][0])
        blockmat.check_k(slp.k_in, block[nxt][0])
        records.append((fields, matrix, slp, lineno))
    return records


def record_problems(fields: dict, matrix: BlockMatrix, entry: CatalogEntry) -> list[str]:
    """How a catalog record's header fields and printed matrix differ from
    `entry`, recomputed from its program; empty when they agree."""
    probs = []
    if entry.matrix != matrix:
        probs.append("matrix/implementation mismatch")
    for key, actual in zip(HEADER_KEYS, (entry.cost, entry.depth,
                                         int(entry.mds), int(entry.involutory))):
        if fields[key] != actual:
            probs.append(f"{key} stated {fields[key]} recomputed {actual}")
    return probs


def catalog_from_text(text: str) -> list[CatalogEntry]:
    """Parse and validate: stated header values and the printed matrix must
    agree with values recomputed from the implementation."""
    entries = []
    for fields, matrix, slp, lineno in catalog_records(text):
        entry = CatalogEntry.from_slp(slp)
        probs = record_problems(fields, matrix, entry)
        if probs:
            raise FormatError(probs[0], lineno)
        entries.append(entry)
    return entries
