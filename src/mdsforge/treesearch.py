"""Exhaustive search for the simplest implementation trees.

An implementation tree is the parameter-free skeleton of a normal
straight-line program: nodes (m, n, p) with m < n < p, output marks, and a
type vector of per-segment node counts.  The search enumerates all normal
trees of a given capacity type by type, pruning with the symbolic MDS
pre-check after each completed segment, and dedupes the survivors by a
canonical encoding minimized over input relabelings and over every normal
re-serialization (any output order).  That quotient is what makes the
reported feasible-type sets reproducible: a tree serialized with a fat first
segment, e.g. type (5,1,1,1), canonicalizes back to its minimal type.

`canonical_tree` finds that minimum by a pruned search: the type vector
first, from the output order alone, then serializations built token by token
and cut at the first token above the best so far.  Each type's survivors are
canonicalized where they are generated, inside the worker at threads > 1, so
only its set of keys comes back.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .gf2 import FormatError, QuotientRing, ring as _ring
from .blockmat import _minor_plan
from .slp import Slp, Step
from . import sympoly
from .sympoly import SP_ONE, sp_mul_param


@dataclass(frozen=True)
class ImplTree:
    """Skeleton tree: node p (1-based) XORs terms m < n < p; inputs are 0..-(k-1)."""

    k: int
    nodes: tuple[tuple[int, int], ...]
    outs: tuple[int, ...]  # node positions carrying y_1..y_k, strictly increasing

    def __post_init__(self):
        lo = -(self.k - 1)
        for p, (m, n) in enumerate(self.nodes, start=1):
            if not (lo <= m < n < p):
                raise ValueError(f"node {p} has bad operands ({m},{n})")
        if list(self.outs) != sorted(set(self.outs)) or len(self.outs) != self.k:
            raise ValueError("need k strictly increasing output marks")
        if self.outs and self.outs[-1] > len(self.nodes):
            raise ValueError("output mark beyond last node")

    @property
    def capacity(self) -> int:
        return len(self.nodes)

    @property
    def type_vector(self) -> tuple[int, ...]:
        prev = 0
        out = []
        for o in self.outs:
            out.append(o - prev)
            prev = o
        return tuple(out)

    def scalar_positions(self) -> int:
        return 2 * self.capacity

    def position_operand(self, pos: int) -> int:
        """Operand term of scalar position pos (2*(p-1) left, 2*(p-1)+1 right)."""
        m, n = self.nodes[pos // 2]
        return n if pos & 1 else m

    def skeleton_depth(self) -> int:
        d = {i: 0 for i in range(-(self.k - 1), 1)}
        for p, (m, n) in enumerate(self.nodes, start=1):
            d[p] = 1 + max(d[m], d[n])
        return max(d[o] for o in self.outs)

    def to_slp(self, ring: QuotientRing, scalars: dict[int, int] | None = None) -> Slp:
        """Instantiate with concrete scalars keyed by position (default all 1)."""
        scalars = scalars or {}
        steps = []
        for p, (m, n) in enumerate(self.nodes, start=1):
            a = scalars.get(2 * (p - 1), 1)
            b = scalars.get(2 * (p - 1) + 1, 1)
            steps.append(Step(m, n, a, b))
        return Slp(ring, self.k, tuple(steps), tuple(self.outs))


def enumerate_types(k: int, capacity: int) -> list[tuple[int, ...]]:
    """All compositions s_1+..+s_k = capacity with s_1 >= k-1, s_i >= 1, lex order."""
    out: list[tuple[int, ...]] = []

    def rec(prefix, left, parts):
        if parts == 1:
            if left >= 1:
                out.append(prefix + (left,))
            return
        lo = k - 1 if not prefix else 1
        for s in range(lo, left - (parts - 1) + 1):
            rec(prefix + (s,), left - s, parts - 1)

    rec((), capacity, k)
    return out


# ---------------------------------------------------------------------------
# generation

# Minors are certified nonzero by evaluating the parameter polynomials at
# fixed points of GF(2^8): evaluation is a ring homomorphism, so a nonzero
# value proves the polynomial nonzero.  Only minors vanishing at every point
# pay for an exact symbolic determinant (and those are almost always truly
# zero).  Two points make spurious fallbacks rare; results stay exact.
_EVAL_POINTS = 2


def _param_point_value(pid: int, point: int) -> int:
    v = ((pid * 0x9E3779B1) ^ (point * 0x7F4A7C15) ^ (pid >> 3)) & 0xFF
    return v if v else 1


class _HybridTracker:
    """Incremental all-minors-nonzero check over formal-parameter rows.

    Hot path: minor determinants on the packed GF(2^8) evaluations (plain
    ints).  A minor vanishing at every point triggers the exact fallback,
    which materializes the symbolic rows lazily and computes the one
    determinant; those polynomials never touch the common case.  Callers
    must ensure full input coverage of every row (order-1 minors are then
    structurally nonzero: fresh parameters per path cannot cancel).
    """

    __slots__ = ("k", "pt_dets", "providers", "materialized", "nrows", "mul")

    def __init__(self, k: int):
        self.k = k
        self.pt_dets = [dict() for _ in range(_EVAL_POINTS)]
        self.providers: list = []      # callables yielding the symbolic rows
        self.materialized: list = []   # cached symbolic rows, filled on demand
        self.nrows = 0
        self.mul = _ring("x^8+x^4+x^3+x+1").mul_rows()

    def clone(self) -> "_HybridTracker":
        c = _HybridTracker.__new__(_HybridTracker)
        c.k = self.k
        c.pt_dets = [dict(d) for d in self.pt_dets]
        c.providers = list(self.providers)
        c.materialized = list(self.materialized)
        c.nrows = self.nrows
        c.mul = self.mul
        return c

    def _sym_row(self, i: int) -> tuple:
        row = self.materialized[i]
        if row is None:
            row = self.providers[i]()
            self.materialized[i] = row
        return row

    def _sym_zero(self, ridx: tuple, cidx: tuple) -> bool:
        rows = [self._sym_row(i) if i in ridx else () for i in range(self.nrows)]
        det = sympoly._det(rows, ridx, cidx, {})
        return not det

    def add_row(self, provider, pt_rows) -> bool:
        k = self.k
        j = self.nrows
        self.nrows = j + 1
        self.providers.append(provider)
        self.materialized.append(None)
        mul = self.mul
        jbit = 1 << j
        base = jbit << k
        for c in range(k):
            # structural coverage guarantees nonzero entries; store evaluations
            for d, row in zip(self.pt_dets, pt_rows):
                d[base | (1 << c)] = row[c]
        for prm, cols in _minor_plan(k, j):
            prev_base = prm << k
            new_base = (prm | jbit) << k
            for cm, items in cols:
                nz = False
                for d, row in zip(self.pt_dets, pt_rows):
                    acc = 0
                    for c, sub in items:
                        e = row[c]
                        if e:
                            acc ^= mul[e][d[prev_base | sub]]
                    d[new_base | cm] = acc
                    nz = nz or acc
                if not nz:
                    ridx = tuple(i for i in range(j + 1) if (prm | jbit) >> i & 1)
                    cidx = tuple(c for c in range(k) if cm >> c & 1)
                    if self._sym_zero(ridx, cidx):
                        return False
        return True


def _generate_type(k: int, type_vec: tuple[int, ...], max_depth: int | None):
    """DFS over normal trees of one type; yields (nodes, outs) survivors.

    Symmetry breaking keeps one representative per orbit of input relabeling
    and Property-2 swaps: node 1 is (x2, x1), inputs first appear in order,
    and adjacent incomparable non-output nodes (neither touching fresh
    inputs) carry sorted operand pairs.  Completeness is restored by the
    canonical dedup downstream.
    """
    capacity = sum(type_vec)
    out_positions = set(itertools.accumulate(type_vec))
    lo = -(k - 1)
    inputs = list(range(0, lo - 1, -1))

    unit_rows = {i: tuple(SP_ONE if c == -i else sympoly.SP_ZERO for c in range(k))
                 for i in inputs}

    nodes: list[tuple[int, int]] = []
    fresh_flags: list[bool] = []
    # packed GF(2^8) evaluations of each term, one int per evaluation point;
    # symbolic vectors are materialized lazily, only for tracker fallbacks
    gf = _ring("x^8+x^4+x^3+x+1")
    mul = gf.mul_rows()
    pvecs: dict[int, tuple[int, ...]] = {
        i: tuple(1 << (8 * -i) for _ in range(_EVAL_POINTS)) for i in inputs
    }
    mask = 0xFF
    shifts = [8 * c for c in range(k)]
    full_cov = (1 << k) - 1
    cov: dict[int, int] = {i: 1 << -i for i in inputs}
    svecs: dict[int, tuple] = dict(unit_rows)

    def scale_packed(v: int, s: int) -> int:
        t = mul[s]
        out = 0
        for sh in shifts:
            out |= t[(v >> sh) & mask] << sh
        return out

    def sym_vec(q: int) -> tuple:
        got = svecs.get(q)
        if got is None:
            m, n = nodes[q - 1]
            vm, vn = sym_vec(m), sym_vec(n)
            got = tuple(sp_mul_param(cm, 2 * q - 1) ^ sp_mul_param(cn, 2 * q)
                        for cm, cn in zip(vm, vn))
            svecs[q] = got
        return got

    depths: dict[int, int] = {i: 0 for i in inputs}
    anc: dict[int, int] = {}
    results: list[tuple[tuple, tuple]] = []

    seg_end = sorted(out_positions)

    def seg_bounds(p: int) -> tuple[int, int]:
        start = 1
        for e in seg_end:
            if p <= e:
                return start, e
            start = e + 1
        raise AssertionError

    def rec(p: int, tracker, used_inputs: int, cur_roots: int):
        if p > capacity:
            results.append((tuple(nodes), tuple(seg_end)))
            return
        is_out = p in out_positions
        start, end = seg_bounds(p)
        slots_left = end - p  # nodes after this one inside the segment
        if p == 1:
            cand = [(-1, 0)]
        else:
            cand = [(m, n) for m in range(lo, p - 1) for n in range(m + 1, p)]
        # operand-pair ordering between adjacent incomparable non-output
        # nodes of one segment, unless either node touches fresh inputs
        orderable = (
            p > 1
            and p - 1 >= start
            and (p - 1) not in out_positions
            and not is_out
            and not fresh_flags[-1]
        )
        prev_pair = nodes[-1] if orderable else None
        for m, n in cand:
            fresh = [-t for t in (m, n) if t <= 0 and not (used_inputs >> -t) & 1]
            if fresh:
                nxt = used_inputs.bit_count()
                if sorted(fresh) != list(range(nxt, nxt + len(fresh))):
                    continue
            a_mask = 0
            if m >= 1:
                a_mask |= anc[m] | (1 << m)
            if n >= 1:
                a_mask |= anc[n] | (1 << n)
            if (not fresh and prev_pair is not None and (m, n) < prev_pair
                    and not (a_mask >> (p - 1)) & 1):
                continue
            new_depth = 1 + max(depths[m], depths[n])
            if max_depth is not None:
                if new_depth > max_depth or (not is_out and new_depth >= max_depth):
                    continue
            roots = cur_roots & ~a_mask
            if is_out:
                if roots:
                    continue  # some interior node would not precede this output
            elif roots.bit_count() + 1 > slots_left + 1:
                continue  # cannot reconnect all dangling interiors in time
            new_cov = cov[m] | cov[n]
            if is_out and new_cov != full_cov:
                continue  # an output row must reach every input
            prow = tuple(
                scale_packed(pa, _param_point_value(2 * p - 1, pt))
                ^ scale_packed(pb, _param_point_value(2 * p, pt))
                for pt, (pa, pb) in enumerate(zip(pvecs[m], pvecs[n]))
            )
            new_tracker = tracker
            if is_out:
                unpacked = tuple(
                    tuple((pv >> sh) & mask for sh in shifts) for pv in prow
                )
                pa, pb = 2 * p - 1, 2 * p
                cell: list = []

                def provider(m=m, n=n, pa=pa, pb=pb, cell=cell):
                    if not cell:
                        vm, vn = sym_vec(m), sym_vec(n)
                        cell.append(tuple(
                            sp_mul_param(cm, pa) ^ sp_mul_param(cn, pb)
                            for cm, cn in zip(vm, vn)))
                    return cell[0]

                new_tracker = tracker.clone()
                if not new_tracker.add_row(provider, unpacked):
                    continue
            nodes.append((m, n))
            fresh_flags.append(bool(fresh))
            pvecs[p] = prow
            cov[p] = new_cov
            depths[p] = new_depth
            anc[p] = a_mask
            nu = used_inputs
            for j in fresh:
                nu |= 1 << j
            rec(p + 1, new_tracker, nu, 0 if is_out else (roots | (1 << p)))
            nodes.pop()
            fresh_flags.pop()
            svecs.pop(p, None)
            del pvecs[p], cov[p], depths[p], anc[p]

    rec(1, _HybridTracker(k), 0, 0)
    return results


# ---------------------------------------------------------------------------
# canonical encoding and dedup


def _tree_dag(t: ImplTree):
    anc = {}
    for p, (m, n) in enumerate(t.nodes, start=1):
        a = 0
        if m >= 1:
            a |= anc[m] | (1 << m)
        if n >= 1:
            a |= anc[n] | (1 << n)
        anc[p] = a
    return anc


def canonical_tree(t: ImplTree) -> tuple:
    """Canonical encoding: lexicographically least (type, tokens) over all
    input relabelings and all normal serializations of the marked DAG.

    A serialization follows an output order.  Each output's segment is its
    not yet placed ancestors, placed one by one (next is the node whose
    sorted pair of operand labels is least), then the output itself.  An
    order whose segment would take in another output is not normal.  The
    type vector and the segments depend on the output order alone, so only
    the orders of least type vector are serialized, and each candidate is
    abandoned at its first token above the best found so far.
    """
    k = t.k
    nodes = t.nodes
    anc = _tree_dag(t)
    out_mask = 0
    for o in t.outs:
        out_mask |= 1 << o
    best_tv = None
    plans: list[list[list[int]]] = []
    for order in itertools.permutations(t.outs):
        placed = 0
        tv = []
        plan = []
        for o in order:
            seg = anc[o] & ~placed
            if seg & out_mask:
                break  # an unplaced output would be swallowed by this segment
            tv.append(seg.bit_count() + 1)
            placed |= seg | (1 << o)
            plan.append((seg, o))
        else:
            tv = tuple(tv)
            if best_tv is None or tv < best_tv:
                best_tv, plans = tv, []
            if tv == best_tv:
                plans.append([_segment(seg, o) for seg, o in plan])
    c = len(nodes)
    best = None
    for sigma in itertools.permutations(range(k)):
        # labels by term: node q at index q, input -j at index -j (from the
        # end), where it gets the new label -sigma[j]
        lab: list = [None] * (c + k)
        for j in range(k):
            lab[-j] = -sigma[j]
        for plan in plans:
            tokens = _serialize_below(nodes, plan, lab.copy(), best)
            if tokens is not None:
                best = tokens
    return (best_tv, best)


def _segment(seg: int, o: int) -> list[int]:
    """The nodes of a segment (bitmask seg, output o), output last.

    Two nodes tie for the next place only when they share both operands.
    The encoding breaks such ties by the iteration order of the segment's
    node set built in ascending order; keeping that keeps every key.
    """
    return list(set(q for q in range(1, o) if (seg >> q) & 1)) + [o]


def _serialize_below(nodes, plan, lab: list, best: tuple | None) -> tuple | None:
    """Tokens of one serialization, or None unless they are below best."""
    tokens: list[tuple[int, int, int]] = []
    tied = best is not None  # every token so far equals best's
    pos = 0
    for seg in plan:
        # the output becomes placeable only once the rest of its segment is
        pending = seg.copy()
        while pending:
            q = pair = None
            for r in pending:
                m, n = nodes[r - 1]
                a = lab[m]
                b = lab[n]
                if a is None or b is None:
                    continue
                rp = (a, b) if a < b else (b, a)
                if pair is None or rp < pair:
                    pair, q = rp, r
            pending.remove(q)
            pos += 1
            lab[q] = pos
            tok = (pair[0], pair[1], 0 if pending else 1)
            if tied:
                ref = best[pos - 1]
                if tok > ref:
                    return None
                tied = tok == ref
            tokens.append(tok)
    return None if tied else tuple(tokens)


def tree_from_encoding(k: int, enc: tuple) -> ImplTree:
    type_vec, tokens = enc
    nodes = tuple((m, n) for (m, n, _) in tokens)
    outs = tuple(p for p, (_, _, f) in enumerate(tokens, start=1) if f)
    return ImplTree(k, nodes, outs)


# ---------------------------------------------------------------------------
# search drivers


def _type_classes(k: int, type_vec: tuple[int, ...], max_depth: int | None) -> set:
    """canonical_tree keys of one type's raw survivors."""
    # canonical_tree is looked up by its module-level name, so a wrapper set
    # on the module attribute (perfbench's tracer) sees every call
    return {canonical_tree(ImplTree(k, nodes, outs))
            for nodes, outs in _generate_type(k, type_vec, max_depth)}


def search_at_capacity(k: int, capacity: int, max_depth: int | None = None,
                       threads: int = 1) -> list[ImplTree]:
    """All canonical simplest-tree classes of the given capacity (may be empty)."""
    if k < 2:
        raise ValueError("k must be at least 2")
    types = enumerate_types(k, capacity)
    if threads > 1 and len(types) > 1:
        from concurrent.futures import ProcessPoolExecutor

        n = len(types)
        with ProcessPoolExecutor(max_workers=threads) as pool:
            batches = list(pool.map(_type_classes, [k] * n, types, [max_depth] * n))
    else:
        batches = [_type_classes(k, tv, max_depth) for tv in types]
    keys = set().union(*batches)
    return [tree_from_encoding(k, enc) for enc in sorted(keys)]


def search_simplest(k: int, max_capacity: int | None = None,
                    threads: int = 1) -> tuple[int, list[ImplTree]]:
    """Smallest capacity admitting symbolically-MDS trees, with its classes.

    Starts from the proven lower bound (2k-1 for k >= 3; 2 for k = 2) and
    increments until the search returns survivors.
    """
    cap = 2 if k == 2 else 2 * k - 1
    while max_capacity is None or cap <= max_capacity:
        trees = search_at_capacity(k, cap, threads=threads)
        if trees:
            return cap, trees
        cap += 1
    return -1, []


# ---------------------------------------------------------------------------
# text format


def tree_to_text(t: ImplTree) -> str:
    lines = ["type (" + ",".join(str(s) for s in t.type_vector) + ")"]
    out_rank = {o: i + 1 for i, o in enumerate(t.outs)}
    for p, (m, n) in enumerate(t.nodes, start=1):
        lines.append(f"T{p} = T{m} + T{n}")
        if p in out_rank:
            lines.append(f"out y{out_rank[p]} = T{p}")
    return "\n".join(lines) + "\n"


def tree_from_text(text: str) -> ImplTree:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines or not lines[0].startswith("type"):
        raise FormatError("tree file must start with a 'type (...)' header", 1)
    body = lines[0].split("(", 1)[1].rsplit(")", 1)[0]
    type_vec = tuple(int(x) for x in body.split(","))
    k = len(type_vec)
    nodes: list[tuple[int, int]] = []
    outs: list[int] = []
    for lineno, ln in enumerate(lines[1:], start=2):
        if ln.startswith("out "):
            term = ln.split("=")[1].strip()
            if not term.startswith("T"):
                raise FormatError("output mark must reference T<p>", lineno)
            outs.append(int(term[1:]))
            continue
        lhs, _, rhs = ln.partition("=")
        expected = f"T{len(nodes) + 1}"
        if lhs.strip() != expected:
            raise FormatError(f"expected node {expected}", lineno)
        parts = [s.strip() for s in rhs.split("+")]
        if len(parts) != 2 or not all(s.startswith("T") for s in parts):
            raise FormatError("node line must read 'T<p> = T<m> + T<n>'", lineno)
        m, n = int(parts[0][1:]), int(parts[1][1:])
        nodes.append((m, n))
    try:
        tree = ImplTree(k, tuple(nodes), tuple(sorted(set(outs))))
    except ValueError as e:
        raise FormatError(str(e)) from None
    if len(outs) != len(set(outs)):
        raise FormatError("duplicate output marks")
    if tree.type_vector != type_vec:
        raise FormatError("type header does not match output marks", 1)
    return tree
