"""Assigning ring values to implementation trees.

Covers tree simplification (fewest non-identity positions that admit an MDS
instance), exhaustive cost-bounded assignment scans with the scalar-reuse
cost rule, lowest-cost catalog construction with optional depth bounds, the
involutory search over row orders and row scalings, and the catalog text
format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import combinations, count, permutations

from .gf2 import FormatError, QuotientRing, expect_end
from . import blockmat
from .blockmat import (BlockMatrix, MinorTracker, canonical_key, is_involutory, is_mds,
                       packed_rows, squares_to_identity)
from . import slp as slpmod
from .slp import Slp, Step
from .sympoly import minor_tracker, point, term_vectors
from .treesearch import ImplTree, min_capacity, pool_map, search_at_capacity


class InfeasibleError(ValueError):
    """No assignment over the given value set produces an MDS matrix."""


@dataclass(frozen=True)
class CatalogEntry:
    slp: Slp
    matrix: BlockMatrix
    cost: int
    depth: int
    mds: bool
    involutory: bool
    canonical: tuple = field(compare=False)

    @classmethod
    def from_slp(cls, p: Slp) -> "CatalogEntry":
        m = slpmod.extract_matrix(p)
        return cls(
            slp=p,
            matrix=m,
            cost=slpmod.cost(p),
            depth=slpmod.depth(p),
            mds=is_mds(m),
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
    height[p] is the longest path from p to a node that reads it: each step
    of such a path adds a level.  A tree whose skeleton is deeper than
    depth_bound has no assignment.  Deterministic order.
    """
    if value_set is None:
        value_set = default_value_set(ring)
    value_set = list(dict.fromkeys(value_set))
    check_units(ring, value_set)
    budget = cost_bound - ring.n * tree.capacity
    if budget < 0 or depth_bound is not None and tree.skeleton_depth() > depth_bound:
        return []
    k = tree.k
    cap = tree.capacity
    out_row = {o: j for j, o in enumerate(tree.outs)}
    priced = [(v, ring.scalar_xor_count(v)) for v in value_set]
    # no scan charges more than every position its dearest value
    budget = min(budget, 2 * cap * max((c for _, c in priced), default=0))
    bit = {v: 0 if v == 1 else 1 << i for i, v in enumerate(value_set)}
    # only 1, for an operand that a scalar would put over the depth bound
    unscaled = [[(v, c) for v, c in priced if v == 1]] * (budget + 1)
    menus: dict[int, list] = {}

    def menu(held: int) -> list:
        """menu(held)[r]: the (value, charge) pairs that r of the budget
        affords, in value-set order, at a position whose operand term
        earlier positions scale by the values of the bit set held, which
        are charged nothing there."""
        lists = menus.get(held)
        if lists is None:
            charged = [(v, 0 if bit[v] & held else c) for v, c in priced]
            lists = menus[held] = [[(v, c) for v, c in charged if c <= r]
                                   for r in range(budget + 1)]
        return lists

    # prev[pos]: the last earlier position on the same operand term, or the
    # slot 2 * cap, which holds no value; held[pos] is the bit set of the
    # values at pos and at the earlier positions on its term
    terms = [t for node in tree.nodes for t in node]
    prev = [max((q for q in range(i) if terms[q] == t), default=2 * cap)
            for i, t in enumerate(terms)]
    held = [0] * (2 * cap + 1)
    # height[p], as above; a node that is no output counts one level even
    # if nothing reads it
    height = {}
    for p in range(cap, 0, -1):
        height[p] = max((height[q] + 1 for q in range(p + 1, cap + 1) if p in tree.nodes[q - 1]),
                        default=int(p not in out_row))

    tracker = MinorTracker(ring, k)
    scale, unpack, units = packed_rows(ring, k)
    # per-position state, written at its depth: entries past the current
    # position are stale, and each is written again before it is read
    vecs: dict[int, int] = {-j: u for j, u in enumerate(units)}
    depths: dict[int, int] = {-j: 0 for j in range(k)}
    scalars: dict[int, int] = {}
    entries: list[CatalogEntry] = []

    def rec(p: int, t_used: int):
        if p > cap:
            entries.append(CatalogEntry.from_slp(tree.to_slp(ring, scalars)))
            return
        m, n = tree.nodes[p - 1]
        pa, pb = 2 * p - 2, 2 * p - 1
        dm, dn = depths[m], depths[n]
        ha, hb = held[prev[pa]], held[prev[pb]]
        menu_a, menu_b = menu(ha), menu(hb)
        if depth_bound is not None:
            # an operand's level, one more if its scalar is not 1, is at most lim
            lim = depth_bound - height[p] - 1
            if dm > lim or dn > lim:
                return
            if dm == lim:
                menu_a = unscaled
            if dn == lim:
                menu_b = unscaled
        vm, vn = vecs[m], vecs[n]
        j = out_row.get(p)
        left = budget - t_used
        for a, ca in menu_a[left]:
            va = vm if a == 1 else scale(vm, a)
            da = dm + (a != 1)
            held[pa] = ha | bit[a]
            for b, cb in menu_b[left - ca]:
                row = va ^ (vn if b == 1 else scale(vn, b))
                if j is not None and not tracker.add_row(unpack(row), j):
                    continue
                vecs[p] = row
                db = dn + (b != 1)
                depths[p] = 1 + (da if da > db else db)
                held[pb] = hb | bit[b]
                scalars[pa] = a
                scalars[pb] = b
                rec(p + 1, t_used + ca + cb)

    rec(1, 0)
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

    Position subsets are pre-screened symbolically (a zero minor with formal
    parameters at the chosen positions rules the subset out for every ring),
    then scanned concretely over value_set^s with early exit.
    """
    values = [v for v in value_set if v != 1]
    limit = max_s if max_s is not None else tree.scalar_positions()
    tracker = MinorTracker(ring, tree.k)
    for s in range(1, limit + 1):
        witnesses = []
        for subset in combinations(range(tree.scalar_positions()), s):
            if not _symbolic_subset_ok(tree, subset):
                continue
            if _subset_hit(tree, tracker,
                           [values if pos in subset else (1,)
                            for pos in range(tree.scalar_positions())]):
                witnesses.append(subset)
                if first_only:
                    return s, witnesses
        if witnesses:
            return s, witnesses
    raise InfeasibleError(f"no MDS assignment with up to {limit} non-identity positions")


def _symbolic_subset_ok(tree: ImplTree, subset) -> bool:
    """Whether every minor of the output rows is a nonzero polynomial when
    the positions in subset carry formal parameters and the others 1: the
    one assignment of each parameter to its `sympoly.point`, checked with
    the exact determinant behind every value that vanishes."""
    sym_vec = term_vectors(tree.k, tree.nodes, set(subset))
    return _subset_hit(tree, minor_tracker(tree.k, lambda i: sym_vec(tree.outs[i])),
                       [(point(pos + 1),) if pos in subset else (1,)
                        for pos in range(tree.scalar_positions())])


def _subset_hit(tree: ImplTree, tracker: MinorTracker, choices) -> bool:
    """Whether some assignment of values to tree's positions passes the
    all-minors tracker on every output row; position pos takes the values
    choices[pos] of the tracker's ring, in order (1: the identity).  Depth
    first, writing output j as the tracker's row j in place, stopping at the
    first complete assignment."""
    k = tree.k
    out_row = {o: j for j, o in enumerate(tree.outs)}
    scale, unpack, units = packed_rows(tracker.ring, k)
    vecs: dict[int, int] = {-j: u for j, u in enumerate(units)}
    cap = tree.capacity

    def rec(p: int) -> bool:
        if p > cap:
            return True
        m, n = tree.nodes[p - 1]
        vm, vn = vecs[m], vecs[n]
        j = out_row.get(p)
        for a in choices[2 * p - 2]:
            va = vm if a == 1 else scale(vm, a)
            for b in choices[2 * p - 1]:
                row = va ^ (vn if b == 1 else scale(vn, b))
                if j is not None and not tracker.add_row(unpack(row), j):
                    continue
                vecs[p] = row
                if rec(p + 1):
                    return True
        return False

    return rec(1)


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
    scaling, so it prunes before the permutation scan.  Results are
    deterministic for any thread count.
    """
    if max_t < 0:  # no exponent total is negative
        return []
    jobs = [(tree, i, ring, max_s, max_t) for i, tree in enumerate(trees, start=1)]
    hits = [h for batch in pool_map(_involutory_one_tree, jobs, threads) for h in batch]
    hits.sort(key=lambda h: (h.entry.cost, h.tree_index, h.assignment, h.row_order))
    return hits


def _fixable_squares(ring: QuotientRing, max_t: int) -> list[frozenset]:
    """fixable[b] = {a^(2g) : |g| <= b} for b = 0..max_t.  Squaring is a
    ring homomorphism in characteristic 2, so x * a^-g squares to 1 for some
    |g| <= b iff x^2 is in fixable[b]: no residue of the ring is listed."""
    return [frozenset(ring.alpha_pow(2 * g) for g in range(-b, b + 1)) for b in range(max_t + 1)]


def _involutory_one_tree(tree: ImplTree, t_idx: int, ring: QuotientRing,
                         max_s: int, max_t: int) -> list[InvolutoryHit]:
    k = tree.k
    out_row = {o: j for j, o in enumerate(tree.outs)}
    cap = tree.capacity
    mul = ring.mul
    mrows = ring.mul_rows()
    alpha_pow = {e: ring.alpha_pow(e) for e in range(-max_t, max_t + 1)}
    scale, unpack, units = packed_rows(ring, k)
    tracker = MinorTracker(ring, k)
    # per-position state, written at its depth (entries past the current
    # one are stale): packed coefficient rows, and the exponents (0: the
    # identity) of each edge position and each row scalar
    vecs: dict[int, int] = {-j: u for j, u in enumerate(units)}
    exps = [0] * tree.scalar_positions()
    fs = [0] * k
    hits: list[InvolutoryHit] = []

    # opts[b]: the exponents a position may take with b of the budget t
    # left, in scan order 0, 1, -1, 2, -2, ...; opts[0] = [0] once s is spent
    opts = [[0] + [e for mag in range(1, b + 1) for e in (mag, -mag)] for b in range(max_t + 1)]
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
    # det(R) does not depend on the row order.  The screens compare squares,
    # det(R)^2 * prod a^(2f) with sq[f] = a^(2f): fixable[b] holds those that
    # some remaining alpha-power budget b can repair.
    sq = {e: mul(v, v) for e, v in alpha_pow.items()}
    fixable = _fixable_squares(ring, max_t)

    def finish(s_used: int, t_used: int, det_sq: int):
        if det_sq not in fixable[max_t - t_used]:
            return

        def scal_rec(i: int, s2: int, t2: int, dprod: int):
            if i == k:
                if mul(det_sq, dprod) != 1:
                    return
                scaled = [unpack(scale(vecs[o], alpha_pow[f]) if f else vecs[o])
                          for o, f in zip(tree.outs, fs)]
                for order in permutations(range(k)):
                    mat = tuple(scaled[order[i2]] for i2 in range(k))
                    if squares_to_identity(mat, mrows):
                        hits.append(record(order, t2))
                return
            for f in opts[max_t - t2 if s2 < max_s and scalable[i] else 0]:
                dp = dprod if f == 0 else mul(dprod, sq[f])
                t3 = t2 + abs(f)
                if mul(det_sq, dp) in fixable[max_t - t3]:
                    fs[i] = f
                    scal_rec(i + 1, s2 + (f != 0), t3, dp)

        scal_rec(0, s_used, t_used, 1)

    def rec(p: int, s_used: int, t_used: int):
        if p > cap:
            det = tracker.full_det()
            finish(s_used, t_used, mul(det, det))
            return
        m, n = tree.nodes[p - 1]
        vm, vn = vecs[m], vecs[n]
        j = out_row.get(p)
        for ea in opts[max_t - t_used if s_used < max_s else 0]:
            sa, ta = s_used + (ea != 0), t_used + abs(ea)
            va = vm if ea == 0 else scale(vm, alpha_pow[ea])
            for eb in opts[max_t - ta if sa < max_s else 0]:
                sb, tb = sa + (eb != 0), ta + abs(eb)
                row = va ^ (vn if eb == 0 else scale(vn, alpha_pow[eb]))
                if j is not None and not tracker.add_row(unpack(row), j):
                    continue
                vecs[p] = row
                exps[2 * p - 2] = ea
                exps[2 * p - 1] = eb
                rec(p + 1, sb, tb)

    rec(1, 0, 0)
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
