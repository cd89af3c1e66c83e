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

The pre-check is `sympoly.minor_tracker`: `blockmat.MinorTracker` on the
rows evaluated at one GF(2^8) point per parameter, packed 8 bits per entry
and scaled with `blockmat.packed_rows`.  A minor that evaluates to zero is
decided by its exact symbolic determinant, so pruning stays exact.

`canonical_tree` finds that minimum by a pruned search: the type vector
first, from the output order alone, then serializations built token by token
and cut at the first token above the best so far.  Each type's survivors are
canonicalized where they are generated, inside the worker at threads > 1, so
only its set of keys comes back.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .gf2 import FormatError, QuotientRing
from .blockmat import packed_rows
from .slp import Slp, Step
from .sympoly import minor_tracker, point, term_vectors


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
    seg_end = sorted(out_positions)
    lo = -(k - 1)
    inputs = list(range(0, lo - 1, -1))

    nodes: list[tuple[int, int]] = []
    fresh_flags: list[bool] = []
    # tracker row i is the output at seg_end[i] of the current path; its
    # symbolic vector is built only when a minor vanishes at the points
    sym_vec, svecs = term_vectors(k, nodes)
    root = minor_tracker(k, lambda i: sym_vec(seg_end[i]))
    scale, unpack = packed_rows(root.ring, k)
    # each term's vector evaluated at sympoly.point, packed into one int
    pvecs: dict[int, int] = {i: 1 << (root.ring.n * -i) for i in inputs}
    full_cov = (1 << k) - 1
    cov: dict[int, int] = {i: 1 << -i for i in inputs}
    depths: dict[int, int] = {i: 0 for i in inputs}
    anc: dict[int, int] = {}
    results: list[tuple[tuple, tuple]] = []

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
        pa, pb = point(2 * p - 1), point(2 * p)
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
            prow = scale(pvecs[m], pa) ^ scale(pvecs[n], pb)
            nodes.append((m, n))
            new_tracker = tracker
            if is_out:
                new_tracker = tracker.clone()
                if not new_tracker.add_row(unpack(prow)):
                    nodes.pop()
                    svecs.pop(p, None)
                    continue
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

    rec(1, root, 0, 0)
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


def pool_map(fn, jobs: list[tuple], threads: int) -> list:
    """[fn(*job) for job in jobs], spread over `threads` worker processes
    when threads > 1 and there is more than one job; order is kept."""
    if threads > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, *zip(*jobs)))
    return [fn(*job) for job in jobs]


def search_at_capacity(k: int, capacity: int, max_depth: int | None = None,
                       threads: int = 1) -> list[ImplTree]:
    """All canonical simplest-tree classes of the given capacity (may be empty)."""
    if k < 2:
        raise ValueError("k must be at least 2")
    jobs = [(k, tv, max_depth) for tv in enumerate_types(k, capacity)]
    keys = set().union(*pool_map(_type_classes, jobs, threads))
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


def _term_index(text: str, lineno: int) -> int:
    """p of a term reference 'T<p>'."""
    if text.startswith("T"):
        try:
            return int(text[1:])
        except ValueError:
            pass
    raise FormatError(f"bad term {text!r}, expected T<p>", lineno)


def tree_from_text(text: str) -> ImplTree:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines or not lines[0].startswith("type"):
        raise FormatError("tree file must start with a 'type (...)' header", 1)
    try:
        body = lines[0].split("(", 1)[1].rsplit(")", 1)[0]
        type_vec = tuple(int(x) for x in body.split(","))
    except (IndexError, ValueError):
        raise FormatError(f"bad type header {lines[0]!r}", 1) from None
    k = len(type_vec)
    nodes: list[tuple[int, int]] = []
    outs: list[int] = []
    for lineno, ln in enumerate(lines[1:], start=2):
        lhs, _, rhs = ln.partition("=")
        if ln.startswith("out "):
            outs.append(_term_index(rhs.strip(), lineno))
            continue
        expected = f"T{len(nodes) + 1}"
        if lhs.strip() != expected:
            raise FormatError(f"expected node {expected}", lineno)
        parts = [s.strip() for s in rhs.split("+")]
        if len(parts) != 2:
            raise FormatError("node line must read 'T<p> = T<m> + T<n>'", lineno)
        nodes.append((_term_index(parts[0], lineno), _term_index(parts[1], lineno)))
    try:
        tree = ImplTree(k, tuple(nodes), tuple(sorted(set(outs))))
    except ValueError as e:
        raise FormatError(str(e)) from None
    if len(outs) != len(set(outs)):
        raise FormatError("duplicate output marks")
    if tree.type_vector != type_vec:
        raise FormatError("type header does not match output marks", 1)
    return tree
