"""Assigning ring values to implementation trees.

Covers tree simplification (fewest non-identity positions that admit an MDS
instance), exhaustive cost-bounded assignment scans with the scalar-reuse
cost rule, lowest-cost catalog construction with optional depth bounds, the
involutory search over row orders and row scalings, and the catalog text
format.  Every scan over a tree's nodes runs as loops generated for the
tree's shape and compiled once (`_chained`): the assignment scan
(`_scan_code`), the involutory scan (`_involutory_code`) and the support
walk (`_walk_code`), each calling the row kernels directly.  One
depth-first walk over the parameter supports, `_support_walk`, is the only
subset scan.  On the truth tables of the Boolean cube (`blockmat.Cube`),
where each minor of formal parameters is decided exactly, it finds the
feasible supports (`_support_need`): tree simplification tries only those,
each by the same walk over the ring's values, and the involutory search
cuts every branch whose support no feasible support can complete within
its budget.  Under the reuse rule it counts the charged terms a support
still needs (`_charged_table`), and the assignment scan cuts every operand
pair whose closed support no feasible support can finish within the budget
left.

The involutory scan also tests det(M)^2 = 1, which M^2 = I implies, ahead
of the last rows' kernels; it is exact, since each hit passes the same
test at the leaf.  Row scalars a^f and a row order change det(R) by
a^(sum f) only, so the last row is cut unless det(R)^2 * a^(2g) = 1 for
some g within the t left (0 when no output row takes a scalar or s is
spent), det(R) being the last row's cofactor expansion on the stored
minors.  Where the last output node adds a term v, set before row k-2, to
an earlier output row, det(R) = a^e * det(rows 0..k-2, v's row) with the
exponent e still free, and the same test, with g + e within the t left,
cuts row k-2's candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections import Counter
from functools import cache, lru_cache, partial
from itertools import count, permutations
from math import inf
from typing import NamedTuple

from .gf2 import FormatError, QuotientRing, expect_end
from . import blockmat
from .blockmat import (BlockMatrix, Cube, canonical_key, is_involutory, is_mds,
                       packed_rows, row_checks, squares_to_identity)
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
    row passed the all-minors check.  Parsed programs recompute every
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
        search, whose row checks passed every row, so the matrix is MDS.
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
    through the all-minors-are-units check.  With depth_bound, node p is
    cut as soon as its depth d has d + height[p] > depth_bound, where
    height[p] is the longest path from p to an output that reads it: each
    step of such a path adds a level; a node that no output reads, even
    indirectly, is not bounded.  A tree whose skeleton is deeper than
    depth_bound has no assignment.  Deterministic order.

    The scan runs as loops generated for the tree's shape and compiled
    once (`_scan_code`); each output row goes straight to its row kernel.
    Before an operand pair's row is built, the pair is cut when cmin * need
    exceeds the budget left: cmin is the cheapest charge of a value other
    than 1, and need the fewest further charged terms that finish the
    pair's support, closed under the reuse rule, to a feasible one
    (`_charged_table`).  Each such term costs at least cmin, so no branch
    cut has an assignment within the bound.  Where the table's cube holds
    fewer terms than the budget affords (`_charged_need`), a support it did
    not decide is not cut.
    """
    if value_set is None:
        value_set = default_value_set(ring)
    value_set = list(dict.fromkeys(value_set))
    check_units(ring, value_set)
    base = ring.n * tree.capacity
    budget = cost_bound - base
    if budget < 0 or depth_bound is not None and tree.skeleton_depth() > depth_bound:
        return []
    k, cap, outs = tree.k, tree.capacity, tree.outs
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

    # lim[p]: the most levels an operand of node p may reach, one more if
    # its scalar is not 1, so depth_bound - height[p] - 1; inf for a node
    # that no output reads and for every node without depth_bound
    top = inf if depth_bound is None else depth_bound - 1
    lim = [inf] * (cap + 1)
    for p in range(cap, 0, -1):
        lim[p] = min([lim[q] - 1 for q in range(p + 1, cap + 1) if p in tree.nodes[q - 1]]
                     + [top] * (p in outs), default=inf)
    # fixed: the positions that every assignment holds at 1, an operand
    # whose skeleton depth, its least, is already its node's limit
    skeleton, fixed = dict.fromkeys(range(1 - k, 1), 0), 0
    for p, (m, n) in enumerate(tree.nodes, start=1):
        skeleton[p] = 1 + max(skeleton[m], skeleton[n])
        fixed |= (skeleton[m] == lim[p]) << 2 * p - 2 | (skeleton[n] == lim[p]) << 2 * p - 1

    # the support cut: cut[p][z] = cmin * need[p][z].  A z absent from a
    # complete table has no feasible completion within the budget, so the
    # default cuts it; an incomplete table's default cuts nothing.  With no
    # value other than 1, cmin = budget + 1 affords no charged term; when
    # one costs nothing, cmin is 0, no term count bounds the cost and
    # nothing is cut
    cmin = min((c for v, c in priced if v != 1), default=budget + 1)
    cut, default = [{}] * (cap + 2), 0
    if cmin:
        need, complete = _charged_need(tree, budget // cmin, fixed)
        cut = need if cmin == 1 else [{z: cmin * d for z, d in t.items()} for t in need]
        default = budget + 1 if complete else 0

    entries: list[CatalogEntry] = []

    def emit(values, rows, left, depths):
        # the scan's own facts: its output rows, each passed by the row
        # checks, the reuse rule's cost and the depth it counted
        proved = ([r.to_bytes(k, "little") for r in rows], base + budget - left, max(depths))
        entries.append(CatalogEntry.from_slp(tree.to_slp(ring, dict(enumerate(values))), proved))

    scan = _scan_code(k, tree.nodes, outs, tuple(lim[1:]), fixed)(
        int.from_bytes, ring.mul_bytes(), row_checks(ring, k), [0] * (1 << 2 * k),
        cut, default, menu, unscaled, [{1: u} for u in packed_rows(ring, k)[2]], emit)
    scan(budget, 0)
    return entries


# CPython compiles at most 20 statically nested blocks in one function, and
# the scans nest two loops per node
_NODES_PER_FUNCTION = 10


class _Node(NamedTuple):
    """A node's code in a generated scan (see `_chained`): lines, (extra
    indent, line) pairs that open its two nested loops, close, the lines
    after those loops at its own indent, and prop, the lines after its
    loops or its chained call in its parent's loop; uses and defs, the
    names its code reads and writes."""
    lines: list
    uses: set
    defs: set
    close: list = []
    prop: list = []


def _chained(title: str, head: list[str], params: list[str], nodes: list[_Node],
             leaf: list[str], leaf_uses: set, ret: str | None = None):
    """Compile a scan generated per tree shape: `bind`, whose head lines
    (at indent 1) take its arguments, returns f1, which runs the scan from
    params: each node's loops nest in the innermost loop of the node before,
    and leaf runs in the last node's.  The nodes are split into chained
    functions of at most `_NODES_PER_FUNCTION` nodes, each called with the
    names that nodes before it write and it or later nodes (or leaf) read.
    With ret (a format of the first node's number), each function returns
    that name and its call assigns it."""
    def live(s):
        if s == 1:
            return ", ".join(params)
        wrote = set(params).union(*(node.defs for node in nodes[:s - 1]))
        read = set(leaf_uses).union(*(node.uses for node in nodes[s - 1:]))
        return ", ".join(sorted(wrote & read))

    cap, src = len(nodes), list(head)
    for s in range(1, cap + 1, _NODES_PER_FUNCTION):
        end = min(s + _NODES_PER_FUNCTION, cap + 1)
        src.append(f" def f{s}({live(s)}):")
        closing = []
        for p in range(s, end):
            indent, node = 2 * (p - s) + 2, nodes[p - 1]
            src += [" " * (indent + extra) + line for extra, line in node.lines]
            closing.append((indent, node.close + (node.prop if p > s else [])))
        indent += 2
        if end > cap:
            src += [" " * indent + line for line in leaf]
        else:
            call = f"f{end}({live(end)})"
            src.append(" " * indent + (f"{ret.format(end)} = {call}" if ret else call))
            src += [" " * indent + line for line in nodes[end - 1].prop]
        for indent, lines in reversed(closing):
            src += [" " * indent + line for line in lines]
        if ret:
            src.append(f"  return {ret.format(s)}")
    src.append(" return f1")
    scope: dict = {}
    exec(compile("\n".join(src), title, "exec"), scope)
    return scope["bind"]


def _table(t: int) -> str:
    """The local that holds term t's row, or its scaled-row table."""
    return f"s{t}" if t > 0 else f"i{-t}"


def _scaled(v: str, t: int, x: str, k: int) -> list[str]:
    """Lines that set v to term t's row scaled by x, on packed rows of k
    ring entries: from t's table, or by bytes.translate with T[x] and
    from_bytes, fb, on a miss, stored in the table.  A scan writes node p's
    table afresh, {1: row}, whenever it writes p's row, so a scaled row is
    computed once per (row, value), not once per operand pair, and a table
    holds at most one row per value."""
    return [f"{v} = {_table(t)}.get({x})", f"if {v} is None:",
            f" {v} = {_table(t)}[{x}] = fb({_table(t)}[1].to_bytes({k}, 'little')"
            f".translate(T[{x}]), 'little')"]


def _unpacked(k: int, r: str, cube: bool) -> str:
    """The entries of packed row r, as a row kernel takes them: its bytes on
    a ring; on a cube entry c is bits [c*w, (c+1)*w), shifted by Wc and
    masked by O = 2^w - 1, with w the run-time entry width."""
    if not cube:
        return f"{r}.to_bytes({k}, 'little')"
    return "(" + "".join(f"{r} >> W{c} & O, " if c else f"{r} & O, " for c in range(k)) + ")"


@lru_cache(maxsize=256)
def _scan_code(k: int, nodes: tuple, outs: tuple, lims: tuple, fixed: int):
    """bind(from_bytes, tables, checks, dets, cut, default, menu, unscaled,
    inputs, emit) -> scan(budget, 0): `assign_parameters`' scan for a tree
    of k inputs, these nodes and outputs, per-node depth limits (inf for
    none) and the bit set fixed of positions held at 1, as source
    generated for the shape and compiled once per process (`_chained`).

    Node p is one loop over its first operand's options and one over its
    second's, each from menu(held)[left] (or unscaled, at the depth limit),
    held being the values earlier positions put on the operand term.  Rows,
    scaled-row tables, held sets, depths, the budget left and the closed
    support z (which no fixed position joins) live in locals named by node
    and position.  A pair is cut when cut[p + 1].get(z, default) exceeds
    the budget left; an output row is checked by checks[j](row bytes,
    dets), the ring's row kernel (`blockmat.row_checks`).  Each complete
    assignment calls emit(values, output rows, budget left, output depths)."""
    cap = len(nodes)
    terms = [t for node in nodes for t in node]
    prev = [max((q for q in range(pos) if terms[q] == t), default=None)
            for pos, t in enumerate(terms)]
    reheld = {q for q in prev if q is not None}
    read = set(terms)
    out_row = {o: j for j, o in enumerate(outs)}
    depth_read = read | set(outs)

    def depth(t):
        return f"d{t}" if t > 0 else "0"

    body = []
    for p, (m, n) in enumerate(nodes, start=1):
        pa, pb, lp = 2 * p - 2, 2 * p - 1, lims[p - 1]
        used = {f"u{p - 1}", f"z{p - 1}"} | {name for t in (m, n) if t > 0
                                             for name in (_table(t), depth(t))}
        used |= {f"h{prev[pos]}" for pos in (pa, pb) if prev[pos] is not None}
        lines = []

        def menu(pos, t):
            base = "M0" if prev[pos] is None else f"menu(h{prev[pos]})"
            if fixed >> pos & 1:
                return "U"
            return base if lp == inf or t <= 0 else f"U if d{t} == {lp} else {base}"

        def held(pos, b, was, z):
            """The lines that write pos's held set, under its own name if a
            later position reads it, and z, the closed support through pos,
            from was, the one before it"""
            h = b if prev[pos] is None else f"h{prev[pos]} | {b}"
            named = [f"h{pos} = {h}"] * (pos in reheld)
            if fixed >> pos & 1:
                return named + [f"{z} = {was}"]
            h = f"h{pos}" if pos in reheld else f"({h})"
            return named + [f"{z} = {was} | {1 << pos} if {h} else {was}"]

        lines += [(0, f"MA{p} = {menu(pa, m)}"), (0, f"MB{p} = {menu(pb, n)}"),
                  (0, f"for a{p}, ca{p}, ba{p}, la{p} in MA{p}[u{p - 1}]:")]
        lines += [(1, s) for s in _scaled(f"va{p}", m, f"a{p}", k)]
        lines += [(1, s) for s in held(pa, f"ba{p}", f"z{p - 1}", f"za{p}")]
        lines += [(1, f"ua{p} = u{p - 1} - ca{p}"),
                  (1, f"da{p} = {depth(m)} + la{p}"),
                  (1, f"for b{p}, cb{p}, bb{p}, lb{p} in MB{p}[ua{p}]:"),
                  (2, f"u{p} = ua{p} - cb{p}")]
        lines += [(2, s) for s in held(pb, f"bb{p}", f"za{p}", f"z{p}")]
        lines += [(2, f"if N{p + 1}.get(z{p}, DF) > u{p}:"), (3, "continue")]
        lines += [(2, s) for s in _scaled(f"vb{p}", n, f"b{p}", k)]
        lines.append((2, f"r{p} = va{p} ^ vb{p}"))
        if p in out_row:
            lines += [(2, f"if not C{out_row[p]}({_unpacked(k, f'r{p}', False)}, D):"),
                      (3, "continue")]
        wrote = {f"a{p}", f"b{p}", f"u{p}", f"z{p}", f"r{p}"}
        wrote |= {f"h{pos}" for pos in (pa, pb) if pos in reheld}
        if p in read:
            lines.append((2, f"s{p} = {{1: r{p}}}"))
            wrote.add(f"s{p}")
        if p in depth_read:
            lines += [(2, f"db{p} = {depth(n)} + lb{p}"),
                      (2, f"d{p} = 1 + (da{p} if da{p} > db{p} else db{p})")]
            wrote.add(f"d{p}")
        body.append(_Node(lines, used, wrote))

    values = ", ".join(f"a{p}, b{p}" for p in range(1, cap + 1))
    emit = (f"emit(({values},), ({', '.join(f'r{o}' for o in outs)},), u{cap}, "
            f"({', '.join(f'd{o}' for o in outs)},))")
    last_uses = {f"a{p}" for p in range(1, cap + 1)} | {f"b{p}" for p in range(1, cap + 1)}
    last_uses |= {f"r{o}" for o in outs} | {f"d{o}" for o in outs} | {f"u{cap}"}
    head = ["def bind(fb, T, C, D, N, DF, menu, U, I, emit):",
            f" {''.join(f'C{j}, ' for j in range(k))}= C",
            f" {''.join(f'i{c}, ' for c in range(k))}= I",
            f" {''.join(f'N{p}, ' for p in range(2, cap + 2))}= N[2:]",
            " M0 = menu(0)"]
    return _chained(f"<assignment scan k={k} nodes={nodes}>", head, ["u0", "z0"], body,
                    [emit], last_uses)


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
    is a witness if `_support_walk` on ring, with the values of
    value_set other than 1 on its positions and 1 elsewhere, passes.

    A tree that `symbolic_mds` rejects fails at once: a minor that vanishes
    with a parameter on every edge vanishes under every specialization.  No
    support has more than the tree's 2*capacity positions, so s stops at
    min(max_s, 2*capacity).
    """
    if not symbolic_mds(tree):
        raise InfeasibleError("no support can make the tree MDS: a minor vanishes identically")
    values = [v for v in value_set if v != 1]
    npos = tree.scalar_positions()
    limit = npos if max_s is None else min(max_s, npos)
    for s in range(1, limit + 1):
        witnesses = []
        for subset in sorted(tuple(pos for pos in range(npos) if z >> pos & 1)
                             for z in _support_need(tree, s)[-1] if z.bit_count() == s):
            menus = [(values if pos in subset else (1,),) * (s + 1) for pos in range(npos)]
            if _support_walk(tree, ring, menus, s)[1]:
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
    `Cube`, a branch's i-th support position at coordinate i.  No support
    has more positions than the tree, so the cube stops at
    min(most, `scalar_positions`) coordinates: each one more would double
    every entry's width and leave the table as it is."""
    npos = tree.scalar_positions()
    most = min(most, npos)
    cube = Cube(most)
    menu = [(1, x) for x in cube.coordinates(tree.k)] + [(1,)]
    return _support_walk(tree, cube, [menu] * npos, most)


# the most coordinates of the charged-term table's cube: each one more
# doubles every entry's width, and on the 5x5 tree the walk grows about
# tenfold per charged term past this
_CUBE_WIDTH = 13


def _fanouts(tree: ImplTree, fixed: int) -> list[int]:
    """How many positions outside the bit set fixed read each term, most
    first."""
    terms = [t for node in tree.nodes for t in node]
    return sorted(Counter(t for pos, t in enumerate(terms) if not fixed >> pos & 1).values(),
                  reverse=True)


def _charged_need(tree: ImplTree, afford: int, fixed: int) -> tuple[list[dict], bool]:
    """(need, complete): `_charged_table` at the most charged terms, up to
    afford, that a cube of at most _CUBE_WIDTH coordinates holds, and
    whether that is every support of at most afford charged terms.  If it
    is, a z absent from need[p] has no feasible completion within afford;
    if not, an absent z is undecided."""
    fanout = _fanouts(tree, fixed)
    most = afford = min(afford, len(fanout))
    while sum(fanout[:most]) > _CUBE_WIDTH:
        most -= 1
    return _charged_table(tree, most, fixed), most == afford


@lru_cache(maxsize=128)
def _charged_table(tree: ImplTree, most: int, fixed: int) -> list[dict]:
    """`_support_walk`'s table under the reuse rule, on formal parameters:
    need[p][z] is the fewest further charged terms that finish z to a
    support S of at most `most` charged terms where every minor of the
    output rows, with parameters on S and 1 elsewhere, is a nonzero
    polynomial.  The positions in the bit set fixed stay 1.  Any other
    position whose operand term has an earlier support position is forced
    into S at no charge, so every support the walk reaches is closed under
    that rule, and a term is charged at its first support position.

    This bounds the assignment scan's cost: an assignment with support S
    charges at least one value other than 1 per term of S.  Its closure
    adds parameters only on those terms, and is feasible if S is, since
    setting a new parameter to 1 gives back the old minor: adding a
    parameter never makes a nonzero multilinear minor vanish.  The walk
    runs on a `Cube` (see `_support_need`) with one coordinate per support
    position, charged ones at 0..most-1 and forced ones after: at most the
    sum of the `most` largest term fanouts.  The table depends only on the
    tree, most and fixed, so both rings share it.  Of the depth rule it
    keeps only fixed, the positions that every assignment within the bound
    holds at 1, a relaxation; without a depth bound fixed is 0."""
    npos = tree.scalar_positions()
    cube = Cube(min(sum(_fanouts(tree, fixed)[:most]), npos))
    coordinates = cube.coordinates(tree.k)
    menu = [(1, x) for x in coordinates[:most]] + [(1,)]
    menus = [[(1,)] * (most + 1) if fixed >> pos & 1 else menu for pos in range(npos)]
    return _support_walk(tree, cube, menus, most, coordinates[most:], fixed)


def _support_walk(tree: ImplTree, ring: QuotientRing | Cube, menus, most: int,
                  forced: list | None = None, fixed: int = 0) -> list[dict]:
    """need[p][z] for p = 1..capacity+1: for a support z, a bitmask over
    the positions below 2p-2 (those of nodes 1..p-1), the fewest further
    charged positions that finish it to a support of at most `most` charged
    positions whose assignment passes ring's row checks.  A z with no such
    completion is absent.

    One depth-first walk: position pos takes the values menus[pos][used],
    in order, where used counts the charged positions below pos, and is in
    the support iff its value is not 1.  Without forced every support
    position is charged.  With forced, the reuse rule of the assignment
    scan: a position outside the bit set fixed whose operand term has an
    earlier support position is in the support at no charge, with the one
    value forced[f], f the count of such positions below it.  Output j
    goes to ring's row kernel j (`row_checks`), written in place, so a
    rejected prefix row cuts all its extensions.  The walk runs as code
    generated for the tree's shape and the kind of ring (`_walk_code`),
    which takes the cube's width, the menus and most at run time."""
    k, cube = tree.k, isinstance(ring, Cube)
    terms = [t for node in tree.nodes for t in node]
    earlier = [0 if forced is None or fixed >> pos & 1
               else sum(1 << q for q in range(pos) if terms[q] == t)
               for pos, t in enumerate(terms)]
    need: list[dict] = [{} for _ in range(tree.capacity + 2)]
    if cube:  # entry c at bits [c*w, (c+1)*w), and 1 scales by AND with every bit
        w = 1 << ring.most
        shifts, one = [c * w for c in range(k)], (1 << k * w) - 1
        units = [(1 << w) - 1 << s for s in shifts]
        fb = T = None
    else:
        units, one = [{1: 1 << 8 * c} for c in range(k)], 1
        fb, T, w, shifts = int.from_bytes, ring.mul_bytes(), 0, None
    # an option: (value, in the support, forced); charged iff in and not forced
    opts = [[tuple((one if v == 1 else v, int(v != 1), 0) for v in values) for values in menu]
            for menu in menus]
    forced = [((x, 1, 1),) for x in forced or ()]
    walk = _walk_code(k, tree.nodes, tree.outs, cube)(
        row_checks(ring, k), [0] * (1 << 2 * k), opts, forced, earlier, units, need, most + 1,
        fb, T, (1 << w) - 1, shifts)
    walk(0, 0, 0)
    return need


@lru_cache(maxsize=256)
def _walk_code(k: int, nodes: tuple, outs: tuple, cube: bool):
    """bind(checks, dets, options, forced, earlier, inputs, need, most + 1,
    from_bytes, tables, entry mask, entry shifts) -> walk(0, 0, 0):
    `_support_walk` for a tree of k inputs, these nodes and outputs, on a
    `Cube` or a ring, as source generated for the shape and compiled once
    per process (`_chained`).

    Node p is one loop over its first position's options and one over its
    second's, options[pos][used], or forced[f] when z meets earlier[pos]
    (statically 0 for a position whose term has no earlier one).  Each node
    keeps B, the least charged count of a passing support under its visit,
    writes need[p][z] after its loops and hands B to its parent's.  Rows
    are ints: on a cube a term's row is scaled by AND with the option's
    value, a coordinate spread over the entries or, for 1, every bit; on a
    ring it has a scaled-row table as in `assign_parameters`."""
    cap = len(nodes)
    terms = [t for node in nodes for t in node]
    forceable = [t in terms[:pos] for pos, t in enumerate(terms)]
    out_row = {o: j for j, o in enumerate(outs)}
    read = set(terms)
    body, f = [], "f0"

    def position(x, pos, z, u, extra):
        """The loop over pos's options as x, and the support, charged count
        and forced count through it, z{x} (or z{p}), u{x} and f{x}"""
        nonlocal f
        menu = f"P{pos}[{u}]"
        if forceable[pos]:
            used.add(f)
            menu = f"(F[{f}] if z{p - 1} & E{pos} else {menu})"
        zx, ux = (f"z{x}", f"u{x}") if x[0] == "a" else (f"z{p}", f"u{p}")
        lines = [(extra, f"for {x}, i{x}, g{x} in {menu}:"),
                 (extra + 1, f"{zx} = {z} | i{x} << {pos}"),
                 (extra + 1, f"{ux} = {u} + i{x}" + f" - g{x}" * forceable[pos])]
        if forceable[pos]:
            lines.append((extra + 1, f"f{x} = {f} + g{x}"))
            f = f"f{x}"
        return lines

    for p, (m, n) in enumerate(nodes, start=1):
        pa, pb = 2 * p - 2, 2 * p - 1
        used = {f"z{p - 1}", f"u{p - 1}"} | {_table(t) for t in (m, n) if t > 0}
        lines = [(0, f"B{p} = BIG")] + position(f"a{p}", pa, f"z{p - 1}", f"u{p - 1}", 0)
        lines += ([(1, f"va{p} = {_table(m)} & a{p}")] if cube
                  else [(1, line) for line in _scaled(f"va{p}", m, f"a{p}", k)])
        lines += position(f"b{p}", pb, f"za{p}", f"ua{p}", 1)
        if cube:
            lines.append((2, f"r{p} = va{p} ^ {_table(n)} & b{p}"))
        else:
            lines += [(2, line) for line in _scaled(f"vb{p}", n, f"b{p}", k)]
            lines.append((2, f"r{p} = va{p} ^ vb{p}"))
        wrote = {f"z{p}", f"u{p}", f}
        if p in out_row:
            lines += [(2, f"if not C{out_row[p]}({_unpacked(k, f'r{p}', cube)}, D):"),
                      (3, "continue")]
        if p in read:
            lines.append((2, f"s{p} = r{p}" if cube else f"s{p} = {{1: r{p}}}"))
            wrote.add(f"s{p}")
        body.append(_Node(lines, used, wrote,
                          [f"if B{p} < BIG: N{p}[z{p - 1}] = B{p} - u{p - 1}"],
                          [f"if B{p} < B{p - 1}: B{p - 1} = B{p}"]))
    npos = 2 * cap
    head = ["def bind(C, D, M, F, E, I, N, BIG, fb, T, O, W):",
            f" {''.join(f'C{j}, ' for j in range(k))}= C",
            f" {''.join(f'i{c}, ' for c in range(k))}= I",
            f" {''.join(f'N{p}, ' for p in range(1, cap + 2))}= N[1:]",
            f" {''.join(f'P{pos}, ' for pos in range(npos))}= M"]
    head += [f" E{pos} = E[{pos}]" for pos in range(npos) if forceable[pos]]
    if cube:
        head.append(f" {''.join(f'W{c}, ' for c in range(k))}= W")
    leaf = [f"N{cap + 1}[z{cap}] = 0", f"if u{cap} < B{cap}: B{cap} = u{cap}"]
    return _chained(f"<support walk k={k} nodes={nodes} cube={cube}>", head,
                    ["z0", "u0", "f0"], body, leaf, {f"z{cap}", f"u{cap}"}, ret="B{}")


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
    support fails, and a branch is cut before its row reaches its kernel
    when no feasible support of at most min(max_s, max_t) positions extends
    its support within the s and t left (see `_support_need`).

    M^2 = I needs det(M)^2 = 1, and row scalars a^f multiply det by a^(sum
    f), so two screens run before a row's kernel (`_involutory_code`):
    every last row must have det^2 * a^(2g) = 1 for some |g| at most the t
    left (g = 0 if s is spent or no output takes a scalar); and where the
    last output node reads an earlier output row and a term v set before
    row k-2, det = a^e * det(rows 0..k-2, v's row) whatever that node's
    exponent e is, so row k-2 is screened the same way, with g + e within
    the t left.  Every hit passes the leaf's own test, det(R)^2 * a^(2 sum
    f) = 1, so neither screen cuts one.  A negative max_s or max_t admits
    nothing.  Results are deterministic for any thread count.
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
    mul = ring.mul_rows()
    alpha_pow = {e: ring.alpha_pow(e) for e in range(-max_t, max_t + 1)}
    dets = [0] * (1 << 2 * k)
    full = (1 << 2 * k) - 1  # the key of every row and column
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
    # det(M)^2 = 1 is necessary for M^2 = I, and det(P D R) = prod(d) *
    # det(R) does not depend on the row order: with row scalars a^f, det(R)^2
    # * a^(2g) = 1, g = sum(f).  a2[g] = a^(2g); square[d] = d^2; good[T][d]:
    # whether d^2 * a^(2g) = 1 for some |g| <= T
    a2 = {g: mul[v][v] for g, v in alpha_pow.items()}
    square = [row[d] for d, row in enumerate(mul)]
    within = [{a2[g] for g in range(-b, b + 1)} for b in range(max_t + 1)]
    good = [bytes(x in powers for x in square) for powers in within]

    @cache
    def scalings(s_left: int, t_left: int) -> list:
        """(row scalar exponents, their sum, the sum of their magnitudes)
        for each scaling within s_left nonzero exponents and a total of
        t_left, in scan order, row 0 first"""
        got = [((), 0, 0, 0)]
        for i in range(k):
            got = [(fs + (f,), n + nz, g + f, t + mag) for fs, n, g, t in got
                   for f, _, mag, nz in opts[max_t if scalable[i] else 0]
                   if n + nz <= s_left and t + mag <= t_left]
        return [(fs, g, t) for fs, _, g, t in got]

    def leaf(exps, rows, s_used, t_used):
        det_sq = square[dets[full]]
        for fs, g, spent in scalings(max_s - s_used, max_t - t_used):
            if mul[det_sq][a2[g]] != 1:
                continue
            mat = [r.to_bytes(k, "little").translate(tables[alpha_pow[f]])
                   for r, f in zip(rows, fs)]
            for order in permutations(range(k)):
                if squares_to_identity([mat[i] for i in order], mul):
                    hits.append(record(exps, fs, order, t_used + spent))

    def record(exps, fs, order, t2):
        assignment = tuple((pos, e) for pos, e in enumerate(exps) if e)
        folded = {pos: alpha_pow[e] for pos, e in assignment}
        for j, f in enumerate(fs):
            if f:
                o = tree.outs[j]
                for pos in (2 * (o - 1), 2 * (o - 1) + 1):
                    folded[pos] = mul[alpha_pow[f]][folded.get(pos, 1)]
        base = tree.to_slp(ring, folded)
        sl = Slp(ring, k, base.steps, tuple(tree.outs[order[i]] for i in range(k)))
        return InvolutoryHit(
            tree_index=t_idx,
            assignment=assignment,
            row_scalars=fs,
            row_order=order,
            heuristic_t=t2,
            entry=CatalogEntry.from_slp(sl),
        )

    # the support prune: an assignment whose support of nonzero exponents
    # has a minor that is zero with formal parameters there and 1 elsewhere
    # fails, that minor being zero for every specialization.  A support z
    # of the nodes so far needs need[p][z] more nonzero exponents, each of
    # which spends 1 of s and at least 1 of t; most + 1 exceeds any budget
    # (most itself, not the cube width that `_support_need` caps it to).
    most = min(max_s, max_t)
    tables = ring.mul_bytes()
    scan = _involutory_code(k, tree.nodes, tree.outs)(
        int.from_bytes, tables, row_checks(ring, k), dets, _support_need(tree, most), opts,
        [o[1:] for o in opts], max_s, max_t, most + 1,
        [{1: 1 << 8 * c} for c in range(k)], mul, good, leaf)
    scan(0, 0, 0)
    return hits


@lru_cache(maxsize=256)
def _involutory_code(k: int, nodes: tuple, outs: tuple):
    """bind(from_bytes, tables, checks, dets, need, opts, nonzero opts,
    max_s, max_t, most + 1, inputs, mul, good, leaf) -> scan(0, 0, 0):
    `_involutory_one_tree`'s scan for a tree of k inputs, these nodes and
    outputs, as source generated for the shape and compiled once per
    process (`_chained`).

    Node p is one loop over its first position's exponents, opts[b] with b
    the t left (opts[0] once s is spent), and one over its second's.  The
    support z with the first exponent set has two completions, the second
    exponent 0 or not, so two need[p + 1] lookups give its options: opts[w]
    if 0 is allowed, else opts[w] less 0, with w the most |exponent| that a
    nonzero one and the need after it leave.  The order is that of opts.
    Rows and scaled-row tables are as in `assign_parameters`, and output j
    goes to its row kernel, checks[j](row bytes, dets).

    Two screens run ahead of a kernel, on the test det(R)^2 * a^(2g) = 1
    for some |g| <= T (good[T]), which every hit passes at the leaf:
      - before the last row's kernel, det(R) is its cofactor expansion on
        the stored minors of rows 0..k-2, and T the t left if s is left and
        some output row is scalable, else 0;
      - before row k-2's, when the last output node reads an earlier output
        row and a term v set before row k-2: its row is a^a times that row
        plus a^e times v's, so det(R) = a^e * det(rows 0..k-2, v's row) with
        e still free, and T the t left if s is left.  The cofactors of
        row k-2 in that matrix are computed once per visit of its node.
    Each complete assignment calls leaf(exponents, output rows, s used, t
    used)."""
    cap = len(nodes)
    read = set(t for node in nodes for t in node)
    out_row = {o: j for j, o in enumerate(outs)}
    rows = (1 << k - 1) - 1  # rows 0..k-2

    def minor(rowmask, cols):
        return f"D[{rowmask << k | sum(1 << c for c in cols)}]"

    # the row k-2 screen: v, the term that the last output node adds to an
    # earlier output row, if it is set before row k-2
    last, v = nodes[outs[-1] - 1], None
    for r, t in (last, last[::-1]):
        if r in outs[:-1] and t < outs[-2]:
            v = t
            break
    body = []
    for p, (m, n) in enumerate(nodes, start=1):
        pa, pb = 2 * p - 2, 2 * p - 1
        used = {f"c{p - 1}", f"t{p - 1}", f"z{p - 1}"} | {_table(t) for t in (m, n) if t > 0}
        lines = []
        j = out_row.get(p)
        if j == k - 2 and v is not None:
            used.add(_table(v))
            lines.append((0, f"w{p} = {_table(v)}[1].to_bytes({k}, 'little')"))
            for c in range(k):
                terms = [f"w{p}[{c2}]" if k == 2 else
                         f"MUL[w{p}[{c2}]][{minor(rows >> 1, set(range(k)) - {c, c2})}]"
                         for c2 in range(k) if c2 != c]
                lines.append((0, f"q{p}_{c} = {' ^ '.join(terms)}"))
        lines += [(0, f"for ea{p}, a{p}, ma{p}, na{p} in "
                      f"O[MT - t{p - 1} if c{p - 1} < MS else 0]:"),
                  (1, f"ca{p} = c{p - 1} + na{p}"),
                  (1, f"ta{p} = t{p - 1} + ma{p}"),
                  (1, f"za{p} = z{p - 1} | na{p} << {pa}"),
                  (1, f"ls{p} = MS - ca{p}"),
                  (1, f"lt{p} = MT - ta{p}"),
                  (1, f"x{p} = N{p + 1}.get(za{p}, BIG)"),
                  (1, f"y{p} = N{p + 1}.get(za{p} | {1 << pb}, BIG)")]
        lines += [(1, line) for line in _scaled(f"va{p}", m, f"a{p}", k)]
        lines.append((1, f"for eb{p}, b{p}, mb{p}, nb{p} in (BZ if x{p} <= ls{p} and x{p} <= lt{p}"
                         f" else BN)[lt{p} - y{p} if y{p} < ls{p} and y{p} < lt{p} else 0]:"))
        lines += [(2, line) for line in _scaled(f"vb{p}", n, f"b{p}", k)]
        lines += [(2, f"r{p} = va{p} ^ vb{p}"),
                  (2, f"c{p} = ca{p} + nb{p}"),
                  (2, f"t{p} = ta{p} + mb{p}")]
        if j is not None:
            lines.append((2, f"rb{p} = {_unpacked(k, f'r{p}', False)}"))
            cofactors = None
            if j == k - 1:
                cofactors = [minor(rows, set(range(k)) - {c}) for c in range(k)]
                free = any(o not in read for o in outs)
            elif j == k - 2 and v is not None:
                cofactors, free = [f"q{p}_{c}" for c in range(k)], True
            if cofactors:
                det = " ^ ".join(f"MUL[rb{p}[{c}]][{x}]" for c, x in enumerate(cofactors))
                table = f"(G[MT - t{p}] if c{p} < MS else G0)" if free else "G0"
                lines += [(2, f"if not {table}[{det}]:"), (3, "continue")]
            lines += [(2, f"if not C{j}(rb{p}, D):"), (3, "continue")]
        lines.append((2, f"z{p} = za{p} | nb{p} << {pb}"))
        wrote = {f"c{p}", f"t{p}", f"z{p}", f"r{p}", f"ea{p}", f"eb{p}"}
        if p in read:
            lines.append((2, f"s{p} = {{1: r{p}}}"))
            wrote.add(f"s{p}")
        body.append(_Node(lines, used, wrote))

    exps = ", ".join(f"ea{p}, eb{p}" for p in range(1, cap + 1))
    leaf = [f"leaf(({exps},), ({', '.join(f'r{o}' for o in outs)},), c{cap}, t{cap})"]
    leaf_uses = {f"e{x}{p}" for p in range(1, cap + 1) for x in "ab"}
    leaf_uses |= {f"r{o}" for o in outs} | {f"c{cap}", f"t{cap}"}
    head = ["def bind(fb, T, C, D, N, O, BN, MS, MT, BIG, I, MUL, G, leaf):",
            f" {''.join(f'C{j}, ' for j in range(k))}= C",
            f" {''.join(f'i{c}, ' for c in range(k))}= I",
            f" {''.join(f'N{p}, ' for p in range(2, cap + 2))}= N[2:]",
            " BZ, G0 = O, G[0]"]
    return _chained(f"<involutory scan k={k} nodes={nodes} outs={outs}>", head,
                    ["c0", "t0", "z0"], body, leaf, leaf_uses)


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
