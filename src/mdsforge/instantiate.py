"""Assigning ring values to implementation trees.

Covers tree simplification (fewest non-identity positions that admit an MDS
instance), exhaustive cost-bounded assignment scans with the scalar-reuse
cost rule, lowest-cost catalog construction with optional depth bounds, the
involutory search over row orders and row scalings, and the catalog text
format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations

from .gf2 import FormatError, QuotientRing
from . import blockmat
from .blockmat import (BlockMatrix, MinorTracker, canonical_key, is_involutory, is_mds,
                       packed_rows)
from . import slp as slpmod
from .slp import Slp, Step
from .sympoly import minor_tracker, point, term_vectors
from .treesearch import ImplTree, pool_map, search_at_capacity


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


def default_value_set(ring: QuotientRing, max_exp: int = 3) -> list[int]:
    """1, a, a^-1, a^2, a^-2, ... in the documented scan order."""
    vals = [1]
    for e in range(1, max_exp + 1):
        vals.append(ring.pow(2, e))
        vals.append(ring.pow(2, -e))
    return vals


def conjugate_slp(p: Slp) -> Slp:
    """Replace every scalar a^e by a^-e (scalars must be powers of alpha)."""
    ring = p.ring

    def flip(v: int) -> int:
        e = ring.power_of_alpha(v)
        if e is None:
            raise ValueError(f"scalar {ring.element_text(v)} is not a power of alpha")
        return ring.pow(2, -e)

    steps = tuple(Step(st.m, st.n, flip(st.a), flip(st.b)) for st in p.steps)
    return Slp(ring, p.k_in, steps, p.outputs)


# ---------------------------------------------------------------------------
# assignment scan (Algorithm 3 with the reuse-aware cost bound)


def assign_parameters(tree: ImplTree, ring: QuotientRing, cost_bound: int,
                      value_set: list[int] | None = None,
                      depth_bound: int | None = None) -> list[CatalogEntry]:
    """Exhaustive scan of scalar assignments with true cost <= cost_bound.

    Values are drawn per position from value_set (default 1, a^±1, a^±2,
    a^±3); the running cost n*s + t prunes branches, t charging each distinct
    (scalar, operand term) product once; completed output rows prune through
    the all-minors-are-units tracker.  Deterministic order.
    """
    if value_set is None:
        value_set = default_value_set(ring)
    budget = cost_bound - ring.n * tree.capacity
    if budget < 0:
        return []
    k = tree.k
    out_set = set(tree.outs)
    nonunit = [v for v in value_set if v != 1 and not ring.is_unit(v)]
    if nonunit:
        raise ValueError("value set must consist of units (and 1)")
    val_cost = {v: ring.scalar_xor_count(v) for v in value_set}

    scale, unpack = packed_rows(ring, k)
    vecs: dict[int, int] = {-j: 1 << (ring.n * j) for j in range(k)}
    depths: dict[int, int] = {-j: 0 for j in range(k)}
    scalars: dict[int, int] = {}
    entries: list[CatalogEntry] = []

    def rec(p: int, tracker: MinorTracker, t_used: int, products: dict):
        if p > tree.capacity:
            entries.append(CatalogEntry.from_slp(tree.to_slp(ring, dict(scalars))))
            return
        m, n = tree.nodes[p - 1]
        vm, vn = vecs[m], vecs[n]
        is_out = p in out_set
        for a in value_set:
            ca = 0
            ka = (m, a)
            if a != 1 and ka not in products:
                ca = val_cost[a]
                if t_used + ca > budget:
                    continue
            va = vm if a == 1 else scale(vm, a)
            for b in value_set:
                cb = 0
                kb = (n, b)
                if b != 1 and kb not in products:
                    cb = val_cost[b]
                t2 = t_used + ca + cb
                if t2 > budget:
                    continue
                if depth_bound is not None:
                    d = 1 + max(depths[m] + (a != 1), depths[n] + (b != 1))
                    if d > depth_bound or (not is_out and d >= depth_bound):
                        continue
                else:
                    d = 0
                row = va ^ (vn if b == 1 else scale(vn, b))
                tr = tracker
                if is_out:
                    tr = tracker.clone()
                    if not tr.add_row(unpack(row)):
                        continue
                vecs[p] = row
                depths[p] = d
                if a != 1:
                    scalars[2 * (p - 1)] = a
                    products[ka] = products.get(ka, 0) + 1
                if b != 1:
                    scalars[2 * (p - 1) + 1] = b
                    products[kb] = products.get(kb, 0) + 1
                rec(p + 1, tr, t2, products)
                if a != 1:
                    products[ka] -= 1
                    if not products[ka]:
                        del products[ka]
                    del scalars[2 * (p - 1)]
                if b != 1:
                    products[kb] -= 1
                    if not products[kb]:
                        del products[kb]
                    del scalars[2 * (p - 1) + 1]

    rec(1, MinorTracker(ring, k), 0, {})
    return entries


def search_lowest_cost(k: int, ring: QuotientRing,
                       value_set: list[int] | None = None,
                       depth_bound: int | None = None,
                       trees: list[ImplTree] | None = None,
                       threads: int = 1) -> list[CatalogEntry]:
    """Catalog of lowest-cost MDS classes over the simplest trees.

    Capacities are scanned upward; since any MDS assignment needs at least
    one non-trivial product, capacity c cannot beat a known cost below
    n*c + 1, which bounds the scan.  With depth_bound set, trees are filtered
    by skeleton depth and assignments by exact depth.  Returns PMQ-class
    representatives sorted by (cost, depth, canonical encoding).
    """
    if value_set is None:
        value_set = default_value_set(ring)
    max_val_cost = max(ring.scalar_xor_count(v) for v in value_set)
    best: list[CatalogEntry] = []
    best_cost: int | None = None

    def scan_capacity(cap_trees: list[ImplTree]):
        """Iterative budget deepening: cheapest nonempty scalar budget wins."""
        nonlocal best, best_cost
        group: dict[int, list[ImplTree]] = {}
        for t in cap_trees:
            if depth_bound is not None and t.skeleton_depth() > depth_bound:
                continue
            group.setdefault(t.capacity, []).append(t)
        for cap in sorted(group):
            base = ring.n * cap
            if best_cost is not None and base + 1 > best_cost:
                continue
            limit = (best_cost - base) if best_cost is not None else 2 * cap * max_val_cost
            for t_budget in range(1, limit + 1):
                found = []
                for t in group[cap]:
                    found.extend(assign_parameters(t, ring, base + t_budget,
                                                   value_set, depth_bound))
                if found:
                    for e in found:
                        if best_cost is None or e.cost < best_cost:
                            best, best_cost = [e], e.cost
                        elif e.cost == best_cost:
                            best.append(e)
                    break

    if trees is not None:
        scan_capacity(list(trees))
    else:
        cap = 2 if k == 2 else 2 * k - 1
        while best_cost is None or ring.n * cap + 1 <= best_cost:
            scan_capacity(search_at_capacity(k, cap, max_depth=depth_bound,
                                             threads=threads))
            cap += 1

    # dedupe by PMQ class, keep the representative with least sort key
    classes: dict[tuple, CatalogEntry] = {}
    for e in best:
        cur = classes.get(e.canonical)
        if cur is None or e.sort_key() < cur.sort_key():
            classes[e.canonical] = e
    return sorted(classes.values(), key=CatalogEntry.sort_key)


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
    for s in range(1, limit + 1):
        witnesses = []
        for subset in combinations(range(tree.scalar_positions()), s):
            if not _symbolic_subset_ok(tree, subset):
                continue
            if _concrete_subset_hit(tree, ring, subset, values):
                witnesses.append(subset)
                if first_only:
                    return s, witnesses
        if witnesses:
            return s, witnesses
    raise InfeasibleError(f"no MDS assignment with up to {limit} non-identity positions")


def _symbolic_subset_ok(tree: ImplTree, subset) -> bool:
    """Whether every minor of the output rows is a nonzero polynomial when
    the positions in subset carry formal parameters and the others 1."""
    k = tree.k
    chosen = set(subset)
    sym_vec, _ = term_vectors(k, tree.nodes, chosen)
    tracker = minor_tracker(k, lambda i: sym_vec(tree.outs[i]))
    scale, unpack = packed_rows(tracker.ring, k)
    vecs: dict[int, int] = {-j: 1 << (tracker.ring.n * j) for j in range(k)}
    for p, (m, n) in enumerate(tree.nodes, start=1):
        vm, vn = vecs[m], vecs[n]
        if 2 * (p - 1) in chosen:
            vm = scale(vm, point(2 * p - 1))
        if 2 * (p - 1) + 1 in chosen:
            vn = scale(vn, point(2 * p))
        vecs[p] = vm ^ vn
        if p in tree.outs and not tracker.add_row(unpack(vecs[p])):
            return False
    return True


def _concrete_subset_hit(tree: ImplTree, ring: QuotientRing, subset, values) -> bool:
    k = tree.k
    out_set = set(tree.outs)
    free = set(subset)
    scale, unpack = packed_rows(ring, k)
    vecs: dict[int, int] = {-j: 1 << (ring.n * j) for j in range(k)}

    def rec(p: int, tracker: MinorTracker) -> bool:
        if p > tree.capacity:
            return True
        m, n = tree.nodes[p - 1]
        left_vals = values if 2 * (p - 1) in free else (1,)
        right_vals = values if 2 * (p - 1) + 1 in free else (1,)
        vm, vn = vecs[m], vecs[n]
        is_out = p in out_set
        for a in left_vals:
            va = vm if a == 1 else scale(vm, a)
            for b in right_vals:
                row = va ^ (vn if b == 1 else scale(vn, b))
                tr = tracker
                if is_out:
                    tr = tracker.clone()
                    if not tr.add_row(unpack(row)):
                        continue
                vecs[p] = row
                if rec(p + 1, tr):
                    return True
        return False

    return rec(1, MinorTracker(ring, k))


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

    Scans every assignment of at most max_s of the 2*capacity + k positions
    (edge scalars plus one scalar per output row) to powers of alpha with
    total |exponent| at most max_t, then every row order; the true cost is
    the reuse rule cost of the scaled program.  MDS status is independent of
    row order and scaling, so it prunes before the permutation scan.
    Results are deterministic for any thread count.
    """
    jobs = [(tree, i, ring, max_s, max_t) for i, tree in enumerate(trees, start=1)]
    hits = [h for batch in pool_map(_involutory_one_tree, jobs, threads) for h in batch]
    hits.sort(key=lambda h: (h.entry.cost, h.tree_index, h.assignment, h.row_order))
    return hits


def _involutory_one_tree(tree: ImplTree, t_idx: int, ring: QuotientRing,
                         max_s: int, max_t: int) -> list[InvolutoryHit]:
    k = tree.k
    n = ring.n
    out_set = set(tree.outs)
    mul = ring.mul
    mrows = ring.mul_rows()
    alpha_pow = {e: ring.pow(2, e) for e in range(-max_t, max_t + 1)}
    scale, unpack = packed_rows(ring, k)
    # coefficient vectors packed into one int, n bits per input coordinate
    vecs: dict[int, int] = {-j: 1 << (n * j) for j in range(k)}
    exps: dict[int, int] = {}  # position -> chosen exponent (nonzero)
    hits: list[InvolutoryHit] = []

    _opt_cache: dict[tuple[bool, int], list[int]] = {}

    def exponent_options(s_used: int, t_used: int) -> list[int]:
        key = (s_used < max_s, max_t - t_used)
        got = _opt_cache.get(key)
        if got is None:
            got = [0]
            if key[0]:
                for mag in range(1, key[1] + 1):
                    got += (mag, -mag)
            _opt_cache[key] = got
        return got

    def record(order, fs, t2):
        folded = {pos: alpha_pow[e] for pos, e in exps.items()}
        for j, f in enumerate(fs):
            if f:
                o = tree.outs[j]
                for pos in (2 * (o - 1), 2 * (o - 1) + 1):
                    folded[pos] = mul(alpha_pow[f], folded.get(pos, 1))
        base = tree.to_slp(ring, folded)
        sl = Slp(ring, k, base.steps, tuple(tree.outs[order[i]] for i in range(k)))
        return InvolutoryHit(
            tree_index=t_idx,
            assignment=tuple(sorted(exps.items())),
            row_scalars=tuple(fs),
            row_order=tuple(order),
            heuristic_t=t2,
            entry=CatalogEntry.from_slp(sl),
        )

    def involution_ok(rows) -> bool:
        # (M^2)[i] = e_i, row by row with early exit; rows are entry tuples
        for i in range(k):
            ri = rows[i]
            for l in range(k):
                acc = 0
                for j in range(k):
                    e = ri[j]
                    if e:
                        acc ^= mrows[e][rows[j][l]]
                if acc != (1 if i == l else 0):
                    return False
        return True

    # elements with u^2 = 1: det(M)^2 = 1 is necessary for M^2 = I, and
    # det(P D R) = prod(d) * det(R) does not depend on the row order.
    # fixable[b] = dets that some remaining alpha-power budget b can repair.
    sqrt_one = frozenset(u for u in range(1 << n) if mul(u, u) == 1)
    fixable = []
    for b in range(max_t + 1):
        fam = set()
        for u in sqrt_one:
            for g in range(-b, b + 1):
                fam.add(mul(u, alpha_pow[g]))
        fixable.append(frozenset(fam))

    def finish(s_used: int, t_used: int, det_r: int):
        if det_r not in fixable[max_t - t_used]:
            return

        def scal_rec(i: int, s2: int, t2: int, fs: list[int], dprod: int):
            if i == k:
                if mul(det_r, dprod) not in sqrt_one:
                    return
                scaled = [unpack(scale(vecs[o], alpha_pow[f]) if f else vecs[o])
                          for o, f in zip(tree.outs, fs)]
                for order in permutations(range(k)):
                    mat = tuple(scaled[order[i2]] for i2 in range(k))
                    if involution_ok(mat):
                        hits.append(record(order, fs, t2))
                return
            for f in exponent_options(s2, t2):
                dp = dprod if f == 0 else mul(dprod, alpha_pow[f])
                t3 = t2 + abs(f)
                if mul(det_r, dp) in fixable[max_t - t3]:
                    fs.append(f)
                    scal_rec(i + 1, s2 + (f != 0), t3, fs, dp)
                    fs.pop()

        scal_rec(0, s_used, t_used, [], 1)

    units = ring.unit_flags()

    def rec(p: int, tracker: MinorTracker, s_used: int, t_used: int):
        if p > tree.capacity:
            finish(s_used, t_used, tracker.full_det())
            return
        m, n_op = tree.nodes[p - 1]
        vm, vn = vecs[m], vecs[n_op]
        is_out = p in out_set
        pos_l, pos_r = 2 * (p - 1), 2 * (p - 1) + 1
        opts_a = exponent_options(s_used, t_used)
        for ea in opts_a:
            sa, ta = s_used + (ea != 0), t_used + abs(ea)
            va = vm if ea == 0 else scale(vm, alpha_pow[ea])
            for eb in exponent_options(sa, ta):
                sb, tb = sa + (eb != 0), ta + abs(eb)
                row = va ^ (vn if eb == 0 else scale(vn, alpha_pow[eb]))
                tr = tracker
                if is_out:
                    entries = unpack(row)
                    # cheap unit screen before cloning
                    if not all(map(units.__getitem__, entries)):
                        continue
                    tr = tracker.clone()
                    if not tr.add_row(entries):
                        continue
                vecs[p] = row
                if ea:
                    exps[pos_l] = ea
                if eb:
                    exps[pos_r] = eb
                rec(p + 1, tr, sb, tb)
                exps.pop(pos_l, None)
                exps.pop(pos_r, None)
                del vecs[p]

    rec(1, MinorTracker(ring, k), 0, 0)
    return hits


# ---------------------------------------------------------------------------
# catalog text format


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
    lines = text.splitlines()
    blocks: list[tuple[int, list[str]]] = []
    cur: list[str] = []
    start = None
    for no, raw in enumerate(lines, start=1):
        s = raw.strip()
        if not s:
            if cur:
                blocks.append((start, cur))
                cur, start = [], None
            continue
        if s.startswith("#"):
            continue
        if start is None:
            start = no
        cur.append(raw.rstrip())
    if cur:
        blocks.append((start, cur))

    records = []
    for lineno, block in blocks:
        head = block[0].split()
        if head[0] != "cost" or len(head) % 2 != 0:
            raise FormatError("catalog entry must start with 'cost .. depth .. mds .. involutory ..'", lineno)
        try:
            fields = {head[j]: int(head[j + 1]) for j in range(0, len(head), 2)}
        except ValueError:
            raise FormatError("bad catalog header", lineno) from None
        matrix, nxt = blockmat.matrix_from_lines(block, 1)
        slp, _ = slpmod.slp_from_lines(block, nxt)
        records.append((fields, matrix, slp, lineno))
    return records


def catalog_from_text(text: str) -> list[CatalogEntry]:
    """Parse and validate: stated header values and the printed matrix must
    agree with values recomputed from the implementation."""
    entries = []
    for fields, matrix, slp, lineno in catalog_records(text):
        entry = CatalogEntry.from_slp(slp)
        if entry.matrix != matrix:
            raise FormatError("catalog matrix does not match its implementation", lineno)
        stated = (fields.get("cost"), fields.get("depth"),
                  fields.get("mds", 0), fields.get("involutory", 0))
        actual = (entry.cost, entry.depth, int(entry.mds), int(entry.involutory))
        if stated != actual:
            raise FormatError(
                f"catalog header states {stated}, recomputed {actual}", lineno)
        entries.append(entry)
    return entries
