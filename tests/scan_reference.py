"""The generated scans of `instantiate` as plain recursions, one frame per
node, the references that the compiled code is compared against.

- `assign_parameters_reference` visits the assignments of
  `assign_parameters` in the same order, with the same budget menus, reuse
  rule and depth limits, and checks each output row through a
  `MinorTracker`; it has no support cut, so every branch that the budget,
  the depth bound and the row checks leave is walked to its end.
- `support_walk_reference` is `instantiate._support_walk` on a tracker,
  and `support_need_reference` and `charged_table_reference` build its
  two cube tables as `_support_need` and `_charged_table` do.
- `involutory_one_tree_reference` is `instantiate._involutory_one_tree`
  with the support prune of its own walk and the determinant test at the
  leaf only, after every row passed its tracker.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations
from math import inf
from operator import and_

from mdsforge.blockmat import Cube, MinorTracker, packed_rows, squares_to_identity
from mdsforge.gf2 import QuotientRing
from mdsforge.instantiate import (CatalogEntry, InvolutoryHit, _fanouts, check_units,
                                  default_value_set)
from mdsforge.slp import Slp
from mdsforge.treesearch import ImplTree


def _cube_rows(cube: Cube, k: int):
    """`packed_rows` on a `Cube`: entry c at bits [c*w, (c+1)*w), scaled by
    AND with a coordinate spread over the entries."""
    w = 1 << cube.most
    one, shifts = (1 << w) - 1, range(0, k * w, w)
    return and_, lambda v: [v >> s & one for s in shifts], [one << s for s in shifts]


def _scan_state(tree: ImplTree, ring) -> tuple:
    """(plan, scaled, scale, unpack) for a depth-first scan over tree's
    nodes on ring's packed rows, with scale and unpack those of
    `packed_rows` (`_cube_rows` on a cube).  plan[p] = (m, n, j) for node
    p: its operand terms and its output row, None if it is no output.
    scaled[t] maps 1 and each value used on term t since its row was last
    written to that row scaled by it; term t sits at index t, so input c is
    at -c."""
    rows = _cube_rows if isinstance(ring, Cube) else packed_rows
    scale, unpack, units = rows(ring, tree.k)
    out_row = {o: j for j, o in enumerate(tree.outs)}
    plan = [None] + [(m, n, out_row.get(p)) for p, (m, n) in enumerate(tree.nodes, start=1)]
    scaled: list = [None] * (tree.capacity + len(units))
    for c, u in enumerate(units):
        scaled[-c] = {1: u}
    return plan, scaled, scale, unpack


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


def support_walk_reference(tree: ImplTree, tracker: MinorTracker, menus, most: int,
                           forced: list | None = None, fixed: int = 0) -> list[dict]:
    """`instantiate._support_walk` by recursion, each output row through
    tracker.add_row."""
    cap = tree.capacity
    add_row = tracker.add_row
    plan, scaled, scale, unpack = _scan_state(tree, tracker.ring)
    need: list[dict] = [{} for _ in range(cap + 2)]
    terms = [t for node in tree.nodes for t in node]
    earlier = [0 if forced is None or fixed >> pos & 1
               else sum(1 << q for q in range(pos) if terms[q] == t)
               for pos, t in enumerate(terms)]

    def rec(p: int, z: int, used: int, f: int) -> int:
        if p > cap:
            need[p][z] = 0
            return used
        m, n, j = plan[p]
        pa, pb = 2 * p - 2, 2 * p - 1
        sm, sn = scaled[m], scaled[n]
        best = most + 1
        ga = 1 if z & earlier[pa] else 0
        gb = 1 if z & earlier[pb] else 0
        for a in (forced[f],) if ga else menus[pa][used]:
            va = sm.get(a)
            if va is None:
                va = sm[a] = scale(sm[1], a)
            ia = a != 1
            za, ua, fa = z | ia << pa, used + ia - ga, f + ga
            for b in (forced[fa],) if gb else menus[pb][ua]:
                vb = sn.get(b)
                if vb is None:
                    vb = sn[b] = scale(sn[1], b)
                ib = b != 1
                row = va ^ vb
                if j is not None and not add_row(unpack(row), j):
                    continue
                scaled[p] = {1: row}
                best = min(best, rec(p + 1, za | ib << pb, ua + ib - gb, fa + gb))
        if best <= most:
            need[p][z] = best - used
        return best

    rec(1, 0, 0, 0)
    del rec
    return need


def support_need_reference(tree: ImplTree, most: int) -> list[dict]:
    """`instantiate._support_need` through `support_walk_reference`."""
    npos = tree.scalar_positions()
    most = min(most, npos)
    cube = Cube(most)
    menu = [(1, x) for x in cube.coordinates(tree.k)] + [(1,)]
    return support_walk_reference(tree, MinorTracker(cube, tree.k), [menu] * npos, most)


def charged_table_reference(tree: ImplTree, most: int, fixed: int) -> list[dict]:
    """`instantiate._charged_table` through `support_walk_reference`."""
    npos = tree.scalar_positions()
    cube = Cube(min(sum(_fanouts(tree, fixed)[:most]), npos))
    coordinates = cube.coordinates(tree.k)
    menu = [(1, x) for x in coordinates[:most]] + [(1,)]
    menus = [[(1,)] * (most + 1) if fixed >> pos & 1 else menu for pos in range(npos)]
    return support_walk_reference(tree, MinorTracker(cube, tree.k), menus, most,
                                  coordinates[most:], fixed)


def involutory_one_tree_reference(tree: ImplTree, t_idx: int, ring: QuotientRing,
                                  max_s: int, max_t: int) -> list[InvolutoryHit]:
    """`instantiate._involutory_one_tree` by recursion: the same hits in the
    same order."""
    k = tree.k
    cap = tree.capacity
    mul = ring.mul
    mrows = ring.mul_rows()
    alpha_pow = {e: ring.alpha_pow(e) for e in range(-max_t, max_t + 1)}
    tracker = MinorTracker(ring, k)
    add_row = tracker.add_row
    plan, scaled, scale, unpack = _scan_state(tree, ring)
    exps = [0] * tree.scalar_positions()
    fs = [0] * k
    hits: list[InvolutoryHit] = []
    opts = [tuple((e, alpha_pow[e], abs(e), int(e != 0))
                  for e in [0] + [e for mag in range(1, b + 1) for e in (mag, -mag)])
            for b in range(max_t + 1)]
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
        return InvolutoryHit(t_idx, assignment, tuple(fs), tuple(order), t2,
                             CatalogEntry.from_slp(sl))

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

    most = min(max_s, max_t)
    need = support_need_reference(tree, most)

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
    del rec
    return hits
