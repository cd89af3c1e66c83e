"""Exhaustive search for the simplest implementation trees.

An implementation tree is the parameter-free skeleton of a normal
straight-line program: nodes (m, n, p) with m < n < p, output marks, and a
type vector of per-segment node counts.  The search enumerates the normal
trees of a given capacity type by type, pruning every candidate output row
with the symbolic MDS pre-check, and dedupes the survivors by a canonical
encoding minimized over input relabelings and over every normal
re-serialization (any output order).  That quotient is what makes the
reported feasible-type sets reproducible: a tree serialized with a fat first
segment, e.g. type (5,1,1,1), canonicalizes back to its minimal type.

Each class is named by its least type vector over all valid output orders,
so the generator keeps only type-minimal trees.  When an output completes it
cuts the tree if some valid order of the completed outputs has a type-vector
prefix below the tree's own (`_reorder_beats`): orderly generation in Read's
sense (1978).  Any valid order of the completed outputs extends to a full
one, every class has a serialization of its least type, and the generator's
symmetry breaking (input order, operand-pair order inside a segment) never
changes a type, so no class is lost.

The generator also extends one prefix per isomorphism class at each
completed output but the last, a step from Read's orderly generation towards
McKay's canonical augmentation (1998).  The prefix's key is `_least_tokens`
over its segments in generation order: the least serialization under input
relabelings and the Property-2 reorderings inside each segment.  A prefix
whose key was already extended at the same output row is cut.  Every
accepted output reads all k inputs, so past the first one only node numbers
tell isomorphic prefixes apart, and no rule that cuts a continuation (type
order, depth, operand-pair order, which some order of each later segment
meets) depends on them.  Isomorphic prefixes at row j extend the one prefix
kept at row j-1, so the keys of row j are those of the current row j-1
prefix's children only, and are dropped when it changes.  Prefixes with twin
nodes (two nodes on the same operands) are never cut.  There the tie rule of
`_least_tokens` makes a key depend on node numbers, as it makes
`canonical_tree` give some isomorphic whole trees two keys, so which of
their serializations survive must not hang on the order in which the
generator meets them.  The raw survivors fall from 9,201 to 4,547 at k=3
capacity 6 and from 90 to 24 at k=4 capacity 8.

The pre-check is exact and runs on zero-minor masks.  Each term t keeps one
bitmask Z(t): a bit per minor (R, C) of completed output rows R on |R| + 1
columns C, set iff that minor, with t added as a row, vanishes identically.
Its k lowest bits are the minors with R empty, t's own entries: bit c is
set iff t misses input -c.  Every edge of a search tree carries its own
parameter and a determinant is linear in each row, so for a node q = (m, n)
that no row of R reads, L(q) = a*L(m) + b*L(n) vanishes iff L(m) and L(n)
do.  A new node gets Z(m) & Z(n), and a candidate output is accepted iff
Z(m) & Z(n) == 0: one AND, with no determinant and no path search.
Accepting an output adds the bits of its minors to every term
(`_accept_masks`).  A term that feeds a row is expanded over GF(2^8), at one
point per parameter (`sympoly.point`), against the accepted rows' minors,
which one `blockmat.MinorTracker` keeps, each accepted row written in place
at its row index over the rows below it; a zero value is decided by
`no_disjoint_paths`: by the Lindstrom-Gessel-Viennot lemma a minor is
identically zero iff its input and output terms cannot be joined by
vertex-disjoint paths.

`canonical_tree` finds that minimum by a pruned search: the type vector
first, from the output order alone, then one search per output order of
least type vector, built token by token and cut at the first token above the
best so far.  Inputs are not relabeled up front: an input gets its label
when a token first reads it, and the search branches only where the least
next token can be reached in more than one way (the individualization of
McKay and Piperno, 2014).  Each type's survivors are canonicalized where
they are generated, inside the worker at threads > 1, so only its set of
keys comes back.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .gf2 import FormatError, QuotientRing, numbered_lines, ring as _ring
from .blockmat import MinorTracker, _minor_plan, check_k, packed_rows
from .slp import Slp, Step, ancestor_masks, labelled_terms, output_line, unread_step
from .sympoly import EVAL_MODULUS, point


def check_node(k: int, p: int, m: int, n: int) -> None:
    """Node p of a k-input tree must XOR terms m < n < p (inputs 0..-(k-1))."""
    if not -(k - 1) <= m < n < p:
        raise ValueError(f"node {p} has bad operands ({m},{n})")


@dataclass(frozen=True)
class ImplTree:
    """Skeleton tree: node p (1-based) XORs terms m < n < p; inputs are 0..-(k-1)."""

    k: int
    nodes: tuple[tuple[int, int], ...]
    outs: tuple[int, ...]  # node positions carrying y_1..y_k, strictly increasing

    def __post_init__(self):
        for p, (m, n) in enumerate(self.nodes, start=1):
            check_node(self.k, p, m, n)
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

    Symmetry breaking cuts most input relabelings and Property-2 swaps:
    inputs first appear in order, so those read are 0..nxt-1 and the
    search keeps their count nxt (node 1 is then (x2, x1)); adjacent
    incomparable non-output nodes (neither touching fresh inputs) carry
    sorted operand pairs.  It does not order twin inputs, two inputs that
    one node reads first, both at once (node 1's always): a tree and its
    mirror with the twins swapped both survive, unless the operand-pair
    order or the prefix cut removes the mirror.  A tree is cut as soon as
    another order of its completed outputs has a smaller type vector, so
    every survivor has type_vec as its least type; what is left (the
    twin-input mirrors the prefix cut leaves, trees whose other output
    orders tie type_vec, and Property-2 swaps past fresh inputs) is merged
    by the canonical key in `_type_classes`.

    When output row j < k-1 passes, the prefix is keyed by `_least_tokens`
    with its segments in generation order, and cut if seen[j] holds the key
    (see the module docstring).  Else the key joins seen[j] and the sets of
    the later rows, keyed under the previous row j prefix, are cleared.  A
    prefix with twin nodes is neither keyed nor cut.

    A candidate output row (m, n) passes iff zs[m] & zs[n] == 0: none of
    its entries (the k low bits) and none of its minors with the accepted
    rows vanish.  An accepted row gets the mask 0.
    """
    capacity = sum(type_vec)
    seg_end = list(itertools.accumulate(type_vec))
    # per position: output row index (None inside a segment), and the nodes
    # after it inside its segment
    out_row = [None] * (capacity + 1)
    slots = [0] * (capacity + 1)
    start = 1
    for i, e in enumerate(seg_end):
        out_row[e] = i
        for p in range(start, e + 1):
            slots[p] = e - p
        start = e + 1
    lo = -(k - 1)
    inputs = list(range(0, lo - 1, -1))

    nodes: list[tuple[int, int]] = []
    # tracker row i, written in place, is the output at seg_end[i]; the masks
    # prove each of its minors nonzero, so it only keeps them for _accept_masks
    tracker = MinorTracker(_ring(EVAL_MODULUS), k, lambda rowmask, colmask: False)
    scale, unpack, units = packed_rows(tracker.ring, k)
    # per-term state, keyed by term: the entries of nodes past the current
    # one are stale, and each is written again before it is next read.
    # pvecs: each term's vector evaluated at sympoly.point, packed into one int
    pvecs: dict[int, int] = {i: units[-i] for i in inputs}
    depths: dict[int, int] = {i: 0 for i in inputs}
    anc: dict[int, int] = {}
    results: list[tuple[tuple, tuple]] = []
    # the operand pairs (m, n) of node p, in the order they are tried
    pairs = [None] + [[(m, n) for m in range(lo, p - 1) for n in range(m + 1, p)]
                      for p in range(1, capacity + 1)]
    # the deepest node p may be: an interior one needs a level above it
    deepest = [capacity if max_depth is None else max_depth - (out_row[p] is None)
               for p in range(capacity + 1)]
    # per row j < k-1: the segments up to row j, in generation order, and the
    # keys of the prefixes extended there since the current row j-1 prefix
    plans = [tuple(tuple(range(s + 1, e + 1)) for s, e in zip([0] + seg_end, seg_end[:j + 1]))
             for j in range(k - 1)]
    seen: list[set] = [set() for _ in range(k - 1)]

    def rec(p: int, zs: dict, nxt: int, cur_roots: int, prev_fresh: bool):
        if p > capacity:
            results.append((tuple(nodes), tuple(seg_end)))
            return
        row = out_row[p]
        is_out = row is not None
        slots_left = slots[p]
        cand = pairs[p]
        if is_out:  # one AND per pair: no entry and no minor of the row may vanish
            cand = [(m, n) for m, n in cand if not zs[m] & zs[n]]
        # operand-pair ordering between adjacent incomparable non-output
        # nodes of one segment, unless either node touches fresh inputs
        orderable = p > 1 and out_row[p - 1] is None and not is_out and not prev_fresh
        prev_pair = nodes[-1] if orderable else None
        pa, pb = point(2 * p - 1), point(2 * p)
        for m, n in cand:
            # inputs 0..nxt-1 are read: m may read input nxt, or nxt+1 with n
            # reading nxt
            if m < -nxt and (m, n) != (-nxt - 1, -nxt):
                continue
            fresh = m < 1 - nxt
            a_mask = 0
            if m >= 1:
                a_mask |= anc[m] | (1 << m)
            if n >= 1:
                a_mask |= anc[n] | (1 << n)
            if (not fresh and prev_pair is not None and (m, n) < prev_pair
                    and not (a_mask >> (p - 1)) & 1):
                continue
            new_depth = 1 + max(depths[m], depths[n])
            if new_depth > deepest[p]:
                continue
            roots = cur_roots & ~a_mask
            anc[p] = a_mask
            if is_out:
                if roots:
                    continue  # some interior node would not precede this output
                if row and _reorder_beats(type_vec,
                                          [anc[o] | 1 << o for o in seg_end[:row + 1]]):
                    continue  # the class has a serialization of smaller type
                if p < capacity:
                    prefix = (*nodes, (m, n))
                    if len(set(prefix)) == p:  # no twin nodes: the key is a class invariant
                        key = _least_tokens(prefix, plans[row], 0, list(plans[row][0]),
                                            [None] * (p + k), 1 - k, {}, [], False, None)
                        if key in seen[row]:
                            continue  # an isomorphic prefix has been extended
                        seen[row].add(key)
                        for later in seen[row + 1:]:
                            later.clear()
            elif roots.bit_count() + 1 > slots_left + 1:
                continue  # cannot reconnect all dangling interiors in time
            nodes.append((m, n))
            pvecs[p] = scale(pvecs[m], pa) ^ scale(pvecs[n], pb)
            depths[p] = new_depth
            read = 1 - m if fresh else nxt
            if is_out and p < capacity:
                tracker.add_row(unpack(pvecs[p]), row)
                zs[p] = 0
                rec(p + 1,
                    _accept_masks(k, nodes, seg_end[:row + 1], zs, anc,
                                  lambda t: unpack(pvecs[t]), tracker.minors()),
                    read, 0, fresh)
            else:
                zs[p] = zs[m] & zs[n]
                rec(p + 1, zs, read, 0 if is_out else (roots | (1 << p)), fresh)
            nodes.pop()

    rec(1, {i: ((1 << k) - 1) ^ 1 << -i for i in inputs}, 0, 0, False)  # -c misses all but c
    return results


def _reorder_beats(type_vec, closures: list[int], i: int = 0, placed: int = 0) -> bool:
    """Whether the completed outputs have a valid order, after the nodes of
    the mask placed, whose type vector from position i on starts below
    type_vec's.  closures[j] is the mask of output j and its ancestors.

    As in `canonical_tree`, an output's segment is its ancestors not yet
    placed, and an order is followed only while it ties the type vector it
    is held against: type_vec here, the least so far there.  An order is
    valid when no segment takes in a waiting output, but that needs no
    test, here or in `canonical_tree`: a segment that takes in one is
    larger than the segment of the earliest waiting output among its
    ancestors, which takes in none.  So where an invalid order would tie or
    beat type_vec, a valid one beats it at the same place, and every order
    of least type vector is valid.  For the same reason the walk skips an
    output that an earlier segment took in: that output beats type_vec at
    the earlier segment's place, so the verdict is True either way.
    """
    s = type_vec[i]
    for c in closures:
        seg = c & ~placed
        if seg:  # else the output is placed, in its own segment or another's
            size = seg.bit_count()
            if size < s:
                return True
            if size == s and i + 1 < len(closures) and _reorder_beats(
                    type_vec, closures, i + 1, placed | seg):
                return True
    return False


@functools.cache
def _mask_plan(k: int, j: int) -> tuple:
    """Bit layout of the zero masks for the minors that accepting row j adds.

    A mask bit stands for a minor (R, C): R a set of accepted rows and C a
    set of |R| + 1 columns.  Bits 0..k-1 are the minors with R empty, a
    term's entries (bit c: column c); the minors that accepting row j adds,
    those with max(R) = j, follow from bit k on, in the order of j.  A
    term's row added as row j + 1 expands such a minor along itself, so
    they are the minors of `blockmat._minor_plan(k, j + 1)` whose other rows
    include j, with its cofactor keys.  Returns (minors, zero_bits,
    row_bits, free_bits): minors lists (bit, rowmask of R, colmask of C,
    [(c, key of the minor R on C - c), ...]); zero_bits[x] are the bits
    with C inside the column mask x, row_bits[i] those with i in R and
    free_bits[d] those with R disjoint from the row mask d.
    """
    bit = 1 << k + sum(len(_mask_plan(k, i)[0]) for i in range(j))
    minors = []
    for rm, cm, _, items in _minor_plan(k, j + 1)[1]:
        rm ^= 1 << j + 1
        if rm >> j & 1:
            minors.append((bit, rm, cm, items))
            bit <<= 1
    zero_bits = [sum(b for b, _, cm, _ in minors if cm & x == cm) for x in range(1 << k)]
    row_bits = [sum(b for b, rm, _, _ in minors if rm >> i & 1) for i in range(j + 1)]
    free_bits = [sum(b for b, rm, _, _ in minors if not rm & d) for d in range(1 << j + 1)]
    return minors, zero_bits, row_bits, free_bits


def _accept_masks(k: int, nodes, rows, zs: dict, anc: dict, val, minors: list) -> dict:
    """The zero masks zs of every term, with the bits of the minors that the
    new row adds; a term's entry bits (its k low bits) stay as they are.

    rows are the positions of the accepted outputs, the new one last;
    anc[o] is the mask of the nodes that node o reads (`_generate_type`'s
    ancestor masks), val(t) gives term t's entries at `sympoly.point` and
    minors those of the accepted rows (`MinorTracker.minors`).  A bit of
    term t is set by the first rule that applies:
    - t misses every column of C: its row is zero there (for an input -c,
      that is c not in C; with c in C its minor is one of R's, nonzero);
    - t reads no row of R: the node t = (m, n) is linear in its own two
      parameters, so L(t) = a*L(m) + b*L(n) vanishes iff both do;
    - every path from C to some row of R runs through t (t may be that
      row): t and the other rows of R cut C from the minor's rows;
    - else t's row is expanded against the minors of R, and a zero value
      is decided by `no_disjoint_paths`.
    """
    j = len(rows) - 1
    plan, zero_bits, row_bits, free_bits = _mask_plan(k, j)
    mul = _ring(EVAL_MODULUS).mul_rows()
    full = (1 << k) - 1
    end = rows[-1]
    feeds = [anc[o] | 1 << o for o in rows]  # the nodes each row reads, itself included
    miss = {t: zs[t] & full for t in range(-(k - 1), end + 1)}  # the inputs each term misses
    out = {}
    for t in range(-(k - 1), end + 1):
        if t <= 0:
            out[t] = zs[t] | zero_bits[miss[t]]
            continue
        d = 0  # the rows that read t
        for i, f in enumerate(feeds):
            if f >> t & 1:
                d |= 1 << i
        m, n = nodes[t - 1]
        bits = out[m] & out[n] & free_bits[d]
        if d:
            bits |= zero_bits[miss[t]]
            cut = dict(miss)  # missed inputs with t taken out
            cut[t] = full
            for q in range(t + 1, end + 1):
                a, b = nodes[q - 1]
                cut[q] = cut[a] & cut[b]
            for i, o in enumerate(rows):
                if d >> i & 1:
                    bits |= row_bits[i] & zero_bits[cut[o]]
            v = val(t)
            for bit, rm, cm, items in plan:
                if rm & d and not bits & bit:
                    acc = 0
                    for c, key in items:
                        e = v[c]
                        if e:
                            acc ^= mul[e][minors[key]]
                    if not acc and no_disjoint_paths(
                            nodes, [rows[i] for i in range(j + 1) if rm >> i & 1] + [t], cm):
                        bits |= bit
        out[t] = zs[t] | bits
    return out


def no_disjoint_paths(nodes, sinks, colmask: int) -> bool:
    """Whether no len(sinks) vertex-disjoint paths join the inputs -c, c in
    colmask, to the node positions in sinks, in the DAG where node p has
    edges from its operands nodes[p-1] = (m, n).

    With a parameter of its own on every edge, this is exactly when the
    minor of the output rows sinks on columns colmask is identically zero:
    by the Lindstrom-Gessel-Viennot lemma the minor is the sum, over the
    families of vertex-disjoint paths, of each family's edge product, and
    distinct families have distinct squarefree products, so mod 2 nothing
    cancels.  With unit weights on some edges that fails (two families can
    cancel), so it decides only fully parameterized trees.

    Augmenting paths on the vertex-split DAG, one sink at a time, searched
    backward from the sink.  A state is 2q for the entry side of term q and
    2q+1 for its exit side; prv[q] is the term after q on its path toward
    the sink, 0 at the sink itself.  A sink with no augmenting path never
    gets one after later augmentations, so the first failure decides.
    """
    prv: dict[int, int] = {}
    for t in sinks:
        s = 2 * t
        parent = {s: None}
        stack = [s]
        found = False
        while stack:
            s = stack.pop()
            v = s >> 1
            if not s & 1:
                u = prv.get(v)
                if u is None:  # a free node: through it
                    parent[s + 1] = s
                    stack.append(s + 1)
                elif u and 2 * u + 1 not in parent:  # back along the path into v
                    parent[2 * u + 1] = s
                    stack.append(2 * u + 1)
                continue
            # exit side of node v: on to its operands, or back into v
            for w in nodes[v - 1]:
                if w <= 0 and w not in prv:  # a free input ends the path if a source
                    if colmask >> -w & 1:
                        parent[2 * w] = s
                        s = 2 * w
                        found = True
                        break
                elif 2 * w not in parent:
                    parent[2 * w] = s
                    stack.append(2 * w)
            if found:
                break
            if v in prv and s - 1 not in parent:
                parent[s - 1] = s
                stack.append(s - 1)
        if not found:
            return True
        while s is not None:
            p = parent[s]
            if not s & 1:
                v = s >> 1
                if p is None:
                    prv[v] = 0
                elif p == s + 1:
                    del prv[v]
                else:
                    prv[v] = p >> 1
            s = p
    return False


def symbolic_mds(t: ImplTree) -> bool:
    """Whether every minor of t's output rows is a nonzero polynomial when
    every edge carries a parameter of its own, by the search's rule: the
    rows at `sympoly.point` on one tracker, and vertex-disjoint paths
    (`no_disjoint_paths`) behind each minor that vanishes there."""
    tracker = MinorTracker(_ring(EVAL_MODULUS), t.k, lambda rowmask, colmask: no_disjoint_paths(
        t.nodes, [o for i, o in enumerate(t.outs) if rowmask >> i & 1], colmask))
    scale, unpack, units = packed_rows(tracker.ring, t.k)
    vals = {-c: u for c, u in enumerate(units)}
    for p, (m, n) in enumerate(t.nodes, start=1):
        vals[p] = scale(vals[m], point(2 * p - 1)) ^ scale(vals[n], point(2 * p))
    return all(tracker.add_row(unpack(vals[o]), i) for i, o in enumerate(t.outs))


# ---------------------------------------------------------------------------
# canonical encoding and dedup


def canonical_tree(t: ImplTree) -> tuple:
    """Canonical encoding: lexicographically least (type, tokens) over all
    input relabelings and all normal serializations of the marked DAG.

    A serialization follows an output order.  Each output's segment is its
    not yet placed ancestors, placed one by one (next is the node whose
    sorted pair of operand labels is least; of nodes on the same operands,
    the lower-numbered), then the output itself.  An order whose segment
    would take in another output is not normal, but it never has the least
    type vector (see `_reorder_beats`).  The type vector and the segments
    depend on the output order alone, so only the orders of least type
    vector are serialized, one search each (`_least_tokens`), and a branch
    is abandoned at its first token above the best so far.

    No input relabeling is tried up front.  The search labels an input when
    a token first reads it, with the least input label not yet given
    (-(k-1) first), and branches only where the least next token can be
    reached in more than one way.  The least encoding labels inputs in that
    order: were an input first read at token i labeled above one not read by
    then, swapping the two labels would change no token before i or make the
    first that changes smaller, and would make token i smaller.
    """
    k = t.k
    nodes = t.nodes
    anc = ancestor_masks(nodes)
    # the output orders of least type vector, one part at a time: every order
    # kept so far has the least prefix, and the next part is the least size
    plans = [(0, ())]  # (placed nodes, segments)
    best_tv = []
    for _ in range(k):
        size = None
        nxt = []
        for placed, segs in plans:
            for o in t.outs:
                if not placed >> o & 1:
                    seg = anc[o] & ~placed
                    s = seg.bit_count()
                    if size is None or s < size:
                        size, nxt = s, []
                    if s == size:
                        nxt.append((placed | seg | 1 << o, segs + (_segment(seg, o),)))
        best_tv.append(size + 1)
        plans = nxt
    # labels by term: node q at index q, input -j at index -j (from the end)
    lab: list = [None] * (len(nodes) + k)
    best = None
    for _, plan in plans:
        best = _least_tokens(nodes, plan, 0, list(plan[0]), lab.copy(), 1 - k, {}, [],
                             best is not None, best)
    return (tuple(best_tv), best)


@functools.lru_cache(maxsize=4096)
def _segment(seg: int, o: int) -> tuple[int, ...]:
    """The nodes of a segment (bitmask seg of the nodes before output o), in
    node order with the output last.

    Two nodes tie for the next place under one input labeling only when they
    share both operands; the lower-numbered one goes first, as
    `_least_tokens` takes the first pending node on a tie.  Segments recur
    across trees, so each is built once (the tuple is shared).
    """
    nodes = []
    while seg:
        nodes.append((seg & -seg).bit_length() - 1)  # the lowest node left
        seg &= seg - 1
    return (*nodes, o)


def _least_tokens(nodes, plan, i: int, pending: list, lab: list, nl: int, twins: dict,
                  tokens: list, tied: bool, best: tuple | None) -> tuple | None:
    """The least of best and the serializations that go on from this state.

    The state is segment i of plan with its nodes still pending, the labels
    lab given so far (None: an unread input or a node not yet placed), nl
    the least input label not yet given, the unsettled twins, and the tokens
    so far, which are not above best's (tied: equal to its prefix).

    Each step places the pending node whose pair of labels is least, an
    unread input counted as labeled nl.  A node that first reads two inputs
    labels them nl and nl + 1 in an order left open: the two are twins, both
    labeled nl in lab and paired in twins, until a node that reads one
    without the other settles that one on the lower label, the one that
    gives that node its least pair.  The search
    branches only where the least pair can be reached through nodes on
    different operands; nodes on the same operands tie under every
    labeling, and the lower-numbered one goes first (pending keeps node
    order).  A branch ends at its first token above best's.
    """
    pos = len(tokens)
    while True:
        if not pending:
            i += 1
            if i == len(plan):
                return best if tied else tuple(tokens)
            pending = list(plan[i])
        pair = q = ties = None
        for r in pending:
            m, n = nodes[r - 1]
            a = lab[m]
            b = lab[n]
            if a is None:
                if m > 0:
                    continue
                if b is None:
                    if n > 0:
                        continue
                    rp = (nl, nl + 1)
                else:
                    rp = (b, nl) if b < nl else (nl, b)
            elif b is None:
                if n > 0:
                    continue
                rp = (a, nl)  # m < n <= 0: a is an input's label, below nl
            elif a < b:
                rp = (a, b)
            elif a > b:
                rp = (b, a)
            else:
                rp = (a, a + 1)  # twins
            if pair is None or rp < pair:
                pair, q, ties = rp, r, None
            elif rp == pair:
                if ties is None:
                    ties = [q]
                ties.append(r)
        pos += 1
        tok = (pair[0], pair[1], 0 if len(pending) > 1 else 1)
        if tied:
            ref = best[pos - 1]
            if tok > ref:
                return best
            tied = tok == ref
        tokens.append(tok)
        if ties is not None:
            ways = {}  # the first node on each pair of operands
            for r in ties:
                ways.setdefault(nodes[r - 1], r)
            if len(ways) > 1:
                for ops, r in ways.items():
                    sub = lab.copy()
                    tw = twins.copy()
                    sub[r] = pos
                    rest = pending.copy()
                    rest.remove(r)
                    res = _least_tokens(nodes, plan, i, rest, sub, _read_inputs(ops, sub, nl, tw),
                                        tw, tokens.copy(), tied, best)
                    if res is not best:
                        best, tied = res, True
                return best
        ops = nodes[q - 1]
        m, n = ops
        # only a node on an unread input or a twin changes the input labels
        if m <= 0 and (twins or lab[m] is None or n <= 0 and lab[n] is None):
            nl = _read_inputs(ops, lab, nl, twins)
        lab[q] = pos
        pending.remove(q)


def _read_inputs(ops: tuple[int, int], lab: list, nl: int, twins: dict) -> int:
    """Label the inputs that a node placed on operands ops reads first, and
    settle the twins it reads one of (see `_least_tokens`); returns the
    least input label not yet given."""
    m, n = ops
    for x, y in ((m, n), (n, m)):
        z = twins.get(x)
        if z is not None and z != y:
            lab[z] += 1
            del twins[x], twins[z]
    if m <= 0 and lab[m] is None:
        if n <= 0 and lab[n] is None:
            lab[m] = lab[n] = nl
            twins[m], twins[n] = n, m
            return nl + 2
        lab[m] = nl
        return nl + 1
    if n <= 0 and lab[n] is None:
        lab[n] = nl
        return nl + 1
    return nl


def tree_from_encoding(k: int, enc: tuple) -> ImplTree:
    type_vec, tokens = enc
    nodes = tuple((m, n) for (m, n, _) in tokens)
    outs = tuple(p for p, (_, _, f) in enumerate(tokens, start=1) if f)
    return ImplTree(k, nodes, outs)


# ---------------------------------------------------------------------------
# search drivers


def _type_classes(k: int, type_vec: tuple[int, ...], max_depth: int | None) -> set:
    """canonical_tree keys of one type's raw survivors.

    The twin-input mirrors that the prefix cut leaves are merged here, by
    the key.  canonical_tree is looked up by its module-level name, so a
    wrapper set on the module attribute (perfbench's tracer) sees every call.
    """
    return {canonical_tree(ImplTree(k, nodes, outs))
            for nodes, outs in _generate_type(k, type_vec, max_depth)}


def pool_map(fn, jobs: list[tuple], threads: int) -> list:
    """[fn(*job) for job in jobs], spread over `threads` worker processes,
    one per job at most, when threads > 1 and there is more than one job;
    order is kept."""
    if threads > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(threads, len(jobs))) as pool:
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


def min_capacity(k: int) -> int:
    """The proven lower bound on the capacity of a k x k MDS tree: 2k-1
    for k >= 3, 2 for k = 2."""
    return 2 if k == 2 else 2 * k - 1


def search_simplest(k: int, max_capacity: int | None = None,
                    threads: int = 1) -> tuple[int, list[ImplTree]]:
    """Smallest capacity admitting symbolically-MDS trees, with its classes.

    Starts from `min_capacity` and increments until the search returns
    survivors.
    """
    cap = min_capacity(k)
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
    lines = [(no, ln.strip()) for no, ln in numbered_lines(text)]
    head_no, head = lines[0] if lines else (1, "")
    if not head.startswith("type"):
        raise FormatError("tree file must start with a 'type (...)' header", head_no)
    try:
        body = head.split("(", 1)[1].rsplit(")", 1)[0]
        type_vec = tuple(int(x) for x in body.split(","))
    except (IndexError, ValueError):
        raise FormatError(f"bad type header {head!r}", head_no) from None
    k = len(type_vec)
    check_k(k, head_no)
    nodes: list[tuple[int, int]] = []
    node_lines: list[int] = []
    outputs: list[tuple[int, int]] = []  # (label, mark)
    for lineno, ln in lines[1:]:
        lhs, _, rhs = ln.partition("=")
        if ln.startswith("out "):
            label, term = output_line(ln, lineno)
            mark = _term_index(term, lineno)
            if not 1 <= mark <= len(nodes):
                raise FormatError(f"output mark {term} is not a node defined above", lineno)
            outputs.append((label, mark))
            continue
        expected = f"T{len(nodes) + 1}"
        if lhs.strip() != expected:
            raise FormatError(f"expected node {expected}", lineno)
        parts = [s.strip() for s in rhs.split("+")]
        if len(parts) != 2:
            raise FormatError("node line must read 'T<p> = T<m> + T<n>'", lineno)
        m, n = (_term_index(part, lineno) for part in parts)
        try:
            check_node(k, len(nodes) + 1, m, n)
        except ValueError as e:
            raise FormatError(str(e), lineno) from None
        nodes.append((m, n))
        node_lines.append(lineno)
    marks = labelled_terms(outputs, lines[-1][0])
    try:  # one mark per output of the type header, increasing with the labels
        tree = ImplTree(k, tuple(nodes), marks)
    except ValueError as e:
        raise FormatError(str(e), head_no) from None
    if tree.type_vector != type_vec:
        raise FormatError("type header does not match output marks", head_no)
    p = unread_step(nodes, tree.outs)  # a tree is a normal program
    if p is not None:
        after = [o for o in tree.outs if o > p]
        raise FormatError(f"node T{p} is not read by the next output T{after[0]}" if after
                          else f"node T{p} comes after the last output", node_lines[p - 1])
    return tree
