"""The assignment scan as a plain recursion, the reference that the generated
scan of `instantiate.assign_parameters` is compared against.

It visits the same assignments in the same order, with the same budget
menus, reuse rule and depth limits, and checks each output row through a
`MinorTracker`; it has no support cut, so every branch that the budget,
the depth bound and the row checks leave is walked to its end.
"""

from __future__ import annotations

from functools import cache
from math import inf

from mdsforge.blockmat import MinorTracker
from mdsforge.gf2 import QuotientRing
from mdsforge.instantiate import CatalogEntry, _scan_state, check_units, default_value_set
from mdsforge.treesearch import ImplTree


def assign_parameters_reference(tree: ImplTree, ring: QuotientRing, cost_bound: int,
                                value_set: list[int] | None = None,
                                depth_bound: int | None = None) -> list[CatalogEntry]:
    """`assign_parameters` by recursion over the nodes, one frame per node."""
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
    budget = min(budget, 2 * cap * max((c for _, c in priced), default=0))
    bit = {v: 0 if v == 1 else 1 << i for i, v in enumerate(value_set)}
    unscaled = [tuple((v, c, 0, 0) for v, c in priced if v == 1)] * (budget + 1)

    @cache
    def menu(held: int) -> list:
        charged = [(v, 0 if bit[v] & held else c, bit[v], int(v != 1)) for v, c in priced]
        return [tuple(o for o in charged if o[1] <= r) for r in range(budget + 1)]

    # prev[pos]: the last earlier position on the same operand term, or the
    # slot 2 * cap, which holds no value; held[pos] is the bit set of the
    # values at pos and at the earlier positions on its term
    terms = [t for node in tree.nodes for t in node]
    prev = [max((q for q in range(i) if terms[q] == t), default=2 * cap)
            for i, t in enumerate(terms)]
    held = [0] * (2 * cap + 1)
    top = inf if depth_bound is None else depth_bound - 1
    lim = [inf] * (cap + 1)
    for p in range(cap, 0, -1):
        lim[p] = min([lim[q] - 1 for q in range(p + 1, cap + 1) if p in tree.nodes[q - 1]]
                     + [top] * (p in outs), default=inf)

    add_row = MinorTracker(ring, tree.k).add_row
    plan, scaled, scale, unpack = _scan_state(tree, ring)
    depths = [0] * len(scaled)
    scalars: dict[int, int] = {}
    entries: list[CatalogEntry] = []

    def rec(p: int, t_used: int):
        if p > cap:
            proved = ([unpack(scaled[o][1]) for o in outs], base + t_used,
                      max([depths[o] for o in outs]))
            entries.append(CatalogEntry.from_slp(tree.to_slp(ring, scalars), proved))
            return
        m, n, j = plan[p]
        pa, pb = 2 * p - 2, 2 * p - 1
        dm, dn, lp = depths[m], depths[n], lim[p]
        ha, hb = held[prev[pa]], held[prev[pb]]
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
    del rec
    return entries
