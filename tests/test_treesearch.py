import functools
import itertools
import random
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from mdsforge import catalogs, treesearch
from mdsforge.blockmat import MinorTracker, packed_rows
from mdsforge.gf2 import FormatError, ring
from mdsforge.gf2 import ring as _ring
from mdsforge.instantiate import _support_need
from mdsforge.slp import ancestor_masks, extract_matrix, is_normal
from mdsforge.sympoly import EVAL_MODULUS, _det, minor_tracker, point, term_vectors
from mdsforge.treesearch import (
    ImplTree,
    _accept_masks,
    _generate_type,
    canonical_tree,
    enumerate_types,
    no_disjoint_paths,
    search_at_capacity,
    symbolic_mds,
    search_simplest,
    tree_from_encoding,
    tree_from_text,
    tree_to_text,
)


# Reference for canonical_tree: the brute-force encoding, which serializes
# every input relabeling x output order in full and keeps the least.


def brute_force_canonical_tree(t: ImplTree) -> tuple:
    """Canonical encoding: lexicographically least (type, tokens) over all
    input relabelings and all normal serializations of the marked DAG."""
    k = t.k
    c = t.capacity
    anc = ancestor_masks(t.nodes)
    out_nodes = list(t.outs)
    out_set = set(out_nodes)
    best = None
    for sigma in itertools.permutations(range(k)):
        # input term i (0..-(k-1)) gets new index -sigma[-i]
        imap = {-j: -sigma[j] for j in range(k)}
        for order in itertools.permutations(out_nodes):
            enc = _serialize(t, anc, out_set, order, imap)
            if enc is not None and (best is None or enc < best):
                best = enc
    return best


def _serialize(t: ImplTree, anc, out_set, order, imap) -> tuple | None:
    placed: dict[int, int] = dict(imap)
    tokens: list[tuple[int, int, int]] = []
    type_vec: list[int] = []
    done_mask = 0
    pos = 0
    for o in order:
        seg = [q for q in range(1, o + 1)
               if (anc[o] >> q) & 1 and q not in placed]
        if any(q in out_set for q in seg):
            return None  # an unplaced output would be swallowed by this segment
        type_vec.append(len(seg) + 1)
        pending = set(seg)
        while pending:
            bestq = None
            bestpair = None
            for q in sorted(pending):  # ties go to the lower-numbered node
                m, n = t.nodes[q - 1]
                if m in placed and n in placed:
                    pair = (placed[m], placed[n])
                    if pair[0] > pair[1]:
                        pair = (pair[1], pair[0])
                    if bestpair is None or pair < bestpair:
                        bestpair = pair
                        bestq = q
            if bestq is None:
                return None
            pending.discard(bestq)
            pos += 1
            placed[bestq] = pos
            tokens.append((bestpair[0], bestpair[1], 0))
        m, n = t.nodes[o - 1]
        pair = (placed[m], placed[n])
        if pair[0] > pair[1]:
            pair = (pair[1], pair[0])
        pos += 1
        placed[o] = pos
        tokens.append((pair[0], pair[1], 1))
    return (tuple(type_vec), tuple(tokens))


def _relabel_inputs(t: ImplTree, sigma) -> ImplTree:
    """t with input term -j renamed to -sigma[j]."""
    def ren(q):
        return -sigma[-q] if q <= 0 else q
    return ImplTree(t.k, tuple(tuple(sorted((ren(m), ren(n)))) for m, n in t.nodes), t.outs)


def _reserializations(t: ImplTree) -> list[ImplTree]:
    """t re-serialized in every valid output order, inputs kept."""
    anc = ancestor_masks(t.nodes)
    imap = {-j: -j for j in range(t.k)}
    encs = (_serialize(t, anc, set(t.outs), order, imap)
            for order in itertools.permutations(t.outs))
    return [tree_from_encoding(t.k, enc) for enc in encs if enc is not None]


def test_canonical_tree_matches_brute_force_on_raw_survivors():
    # every normal serialization, not only the type-minimal ones
    raws = [raw for tv in enumerate_types(3, 5) for raw in reference_generate_type(3, tv, None)]
    assert len(raws) == 148
    # some survivors have two nodes on the same operands, where ties matter
    assert any(len(set(nodes)) < len(nodes) for nodes, _ in raws)
    for nodes, outs in raws:
        t = ImplTree(3, nodes, outs)
        assert canonical_tree(t) == brute_force_canonical_tree(t)
    # nodes 4 and 9 share operands and the lower-numbered goes first; past
    # node 7 a set of node numbers no longer iterates in that order
    t = ImplTree(3, ((-1, 0), (0, 1), (1, 2), (1, 3), (-1, 3), (-1, 3), (1, 4), (4, 7),
                     (1, 3), (7, 9)), (1, 2, 10))
    assert canonical_tree(t) == brute_force_canonical_tree(t)


def test_canonical_tree_matches_brute_force_on_reserializations(trees8):
    rng = random.Random(2024)
    for t in trees8:
        for _ in range(2):
            sigma = rng.sample(range(t.k), t.k)
            for v in _reserializations(_relabel_inputs(t, sigma)):
                assert canonical_tree(v) == brute_force_canonical_tree(v)
    # one brute-force call takes 14,400 serializations at k=5, so the 120
    # re-serializations are compared with the key of the tree they share
    t5 = _relabel_inputs(catalogs.tree_5x5(), rng.sample(range(5), 5))
    key = brute_force_canonical_tree(t5)
    variants = _reserializations(t5)
    assert len(variants) == 120
    assert all(canonical_tree(v) == key for v in variants)


@functools.lru_cache(maxsize=None)
def _raw_survivors(k: int, capacity: int) -> list[ImplTree]:
    return [ImplTree(k, nodes, outs) for tv in enumerate_types(k, capacity)
            for nodes, outs in _generate_type(k, tv, None)]


@st.composite
def _survivor_draws(draw):
    """(a raw survivor, a relabeling seed, a re-serialization pick)."""
    k, capacity = draw(st.sampled_from([(3, 6), (4, 8)]))
    raws = _raw_survivors(k, capacity)
    t = raws[draw(st.integers(0, len(raws) - 1))]
    return t, draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 10**6))


@settings(max_examples=80, deadline=None)
@given(_survivor_draws())
# node 1 reads two inputs, and which of them a later node reads alone matters
@example((ImplTree(3, ((-1, 0), (-2, -1), (1, 2), (-2, 0), (1, 4), (2, 4)), (3, 5, 6)), 7, 3))
# nodes 3 and 5 share both operands, where the tie rule decides
@example((ImplTree(3, ((-1, 0), (-2, 1), (-2, -1), (0, 3), (-2, -1), (0, 5)), (2, 4, 6)), 11, 1))
# nodes 3 and 4 share both operands and tie with node 5, which reads node 1's other input
@example((ImplTree(3, ((-2, -1), (-2, -1), (-2, 1), (-2, 1), (-1, 1), (3, 5), (4, 6)), (1, 2, 7)), 3, 0))
def test_canonical_tree_is_a_class_invariant(case):
    # a survivor, relabeled and re-serialized, keeps the survivor's own key
    t, seed, pick = case
    sigma = random.Random(seed).sample(range(t.k), t.k)
    variants = _reserializations(_relabel_inputs(t, sigma))
    v = variants[pick % len(variants)]
    key = canonical_tree(v)
    assert key == canonical_tree(t)
    if seed % 2 or t.k == 3:  # one brute-force call at k=4 takes 576 serializations
        assert key == brute_force_canonical_tree(v)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: ties between nodes on the same operands are not branched")
def test_twin_nodes_swapped_keep_one_key():
    # both are printed as classes by search-trees --k 3 --capacity 6; the
    # second is the first with twin nodes 1 and 2 swapped
    t = ImplTree(3, ((-2, -1), (-2, -1), (0, 1), (2, 3), (1, 4), (2, 3)), (4, 5, 6))
    u = ImplTree(3, ((-2, -1), (-2, -1), (0, 2), (1, 3), (1, 3), (2, 4)), (4, 5, 6))
    assert canonical_tree(t) == canonical_tree(u)


def _twin_pairs(nodes) -> list[tuple[int, int]]:
    """The pairs of inputs that one node reads before any other node reads
    either."""
    pairs = []
    for p, (m, n) in enumerate(nodes):
        if n <= 0 and not any(x in (m, n) for ops in nodes[:p] for x in ops):
            pairs.append((m, n))
    return pairs


def _swap_inputs(nodes, pairs) -> tuple:
    """nodes with the labels of each pair of inputs swapped, pairs sorted."""
    swap = {}
    for x, y in pairs:
        swap[x], swap[y] = y, x
    return tuple(tuple(sorted((swap.get(m, m), swap.get(n, n)))) for m, n in nodes)


@st.composite
def _twin_swaps(draw):
    """(a raw survivor, the same tree with a random subset of its twin pairs
    swapped)."""
    k, capacity = draw(st.sampled_from([(3, 6), (4, 8)]))
    raws = _raw_survivors(k, capacity)
    t = raws[draw(st.integers(0, len(raws) - 1))]
    pairs = _twin_pairs(t.nodes)
    chosen = [pair for pair in pairs if draw(st.booleans())]
    return t, ImplTree(k, _swap_inputs(t.nodes, chosen), t.outs)


@settings(max_examples=200, deadline=None)
@given(_twin_swaps())
# the mirror the generator never emits: nodes 3 and 4 of the swap are unsorted
@example((ImplTree(3, ((-1, 0), (-2, 1), (-2, -1), (-2, 0), (3, 4), (1, 5)), (2, 5, 6)),
          ImplTree(3, ((-1, 0), (-2, 1), (-2, 0), (-2, -1), (3, 4), (1, 5)), (2, 5, 6))))
def test_twin_swaps_keep_the_normal_form_and_the_key(case):
    t, u = case
    form = treesearch._twin_normal_form(t.nodes)
    assert treesearch._twin_normal_form(u.nodes) == form
    assert treesearch._twin_normal_form(form) == form
    assert _twin_pairs(form) == _twin_pairs(t.nodes)
    assert canonical_tree(u) == canonical_tree(t)


def test_twin_normal_form_reads_the_higher_label_alone_first():
    # node 1's twins -1 and 0; node 2 reads -1 alone, so the two swap
    nodes = ((-1, 0), (-2, -1), (1, 2))
    assert treesearch._twin_normal_form(nodes) == ((-1, 0), (-2, 0), (1, 2))
    # node 2 reads 0 alone, the normal order already
    nodes = ((-1, 0), (-2, 0), (1, 2))
    assert treesearch._twin_normal_form(nodes) is nodes
    # twins (-1, 0) and (-3, -2); node 3 reads one of each pair, and each
    # pair is put in order on its own
    nodes = ((-1, 0), (-3, -2), (-3, -1), (-2, 3))
    assert _twin_pairs(nodes) == [(-1, 0), (-3, -2)]
    assert treesearch._twin_normal_form(nodes) == ((-1, 0), (-3, -2), (-2, 0), (-3, 3))
    nodes = ((-1, 0), (-3, -2), (-2, -1), (-3, 3))
    assert treesearch._twin_normal_form(nodes) == ((-1, 0), (-3, -2), (-2, 0), (-3, 3))


@pytest.mark.parametrize("k, capacity, max_depth", [
    (3, 5, None),
    (3, 6, None),
    (4, 8, None),
    (4, 9, 3),
])
def test_type_classes_key_every_raw_survivor(k, capacity, max_depth):
    for tv in enumerate_types(k, capacity):
        raws = treesearch._generate_type(k, tv, max_depth)
        assert treesearch._type_classes(k, tv, max_depth) == {
            canonical_tree(ImplTree(k, nodes, outs)) for nodes, outs in raws}


@pytest.mark.parametrize("k, capacity, max_depth, calls, classes", [
    (3, 6, None, 4291, 2915),
    (4, 8, None, 24, 8),
    (4, 9, 3, 533, 171),
])
def test_one_canonical_call_per_twin_orbit(monkeypatch, k, capacity, max_depth, calls, classes):
    # a count of the work, where a wall time would not be reproducible: the
    # raw survivors are 4,547, 24 and 628
    counted = []

    def counting(t):
        counted.append(t)
        return canonical_tree(t)

    monkeypatch.setattr(treesearch, "canonical_tree", counting)
    assert len(search_at_capacity(k, capacity, max_depth, threads=1)) == classes
    assert len(counted) == calls


def test_canonical_tree_keeps_one_key_for_the_6x6_tree():
    # brute force would take 720 x 720 serializations per call
    t = tree_from_text(Path(catalogs.data_path("trees", "6x6_tree.txt")).read_text())
    key = canonical_tree(t)
    rng = random.Random(6)
    for _ in range(5):
        variants = _reserializations(_relabel_inputs(t, rng.sample(range(6), 6)))
        assert len(variants) >= 20
        assert all(canonical_tree(v) == key for v in variants[:20])


def test_enumerate_types_counts():
    t48 = enumerate_types(4, 8)
    assert len(t48) == 10
    assert (3, 3, 1, 1) in t48 and (4, 2, 1, 1) in t48
    assert t48 == sorted(t48)
    assert enumerate_types(2, 2) == [(1, 1)]
    t35 = enumerate_types(3, 5)
    assert (2, 2, 1) in t35 and (3, 1, 1) in t35


def test_search_simplest_k2():
    cap, trees = search_simplest(2)
    assert cap == 2
    assert all(t.type_vector == (1, 1) for t in trees)
    assert len(trees) >= 1


def test_search_simplest_k3():
    cap, trees = search_simplest(3)
    assert cap == 5
    assert set(t.type_vector for t in trees) == {(2, 2, 1), (3, 1, 1)}
    assert search_simplest(3, max_capacity=4) == (-1, [])


def test_search_k5_capacity_10_has_no_class(monkeypatch):
    # the k=5 search's guard in tier-1: no class below capacity 12.  Every
    # candidate dies before its last output, so the accepted output rows
    # count the generator's work and pin the prefix cut: 6,379 without it
    rows = []
    add_row = MinorTracker.add_row
    monkeypatch.setattr(MinorTracker, "add_row",
                        lambda tracker, row, j: rows.append(j) or add_row(tracker, row, j))
    assert [raw for tv in enumerate_types(5, 10) for raw in _generate_type(5, tv, None)] == []
    assert len(rows) == 1135
    monkeypatch.undo()
    assert search_at_capacity(5, 10) == []


@pytest.mark.parametrize("call, message", [
    (lambda: ImplTree(2, ((-1, 0),), (1, 2)), "output mark beyond last node"),
    (lambda: search_at_capacity(1, 1), "k must be at least 2"),
])
def test_bad_arguments_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_search_determinism_with_threads():
    single = search_at_capacity(3, 5, threads=1)
    multi = search_at_capacity(3, 5, threads=2)
    assert [canonical_tree(t) for t in single] == [canonical_tree(t) for t in multi]
    # at threads > 1 each type is canonicalized inside its worker
    single = search_at_capacity(3, 6, threads=1)
    assert len(single) == 2915
    assert search_at_capacity(3, 6, threads=2) == single


def test_pool_map_starts_one_worker_per_job_at_most(monkeypatch):
    # a stand-in executor that records its size and runs the jobs in this
    # process: no worker is started
    import concurrent.futures

    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *args):
            return map(fn, *args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    jobs = [(1, 2), (3, 4), (5, 6)]
    for threads, size in ((64, 3), (3, 3), (2, 2)):
        assert treesearch.pool_map(pow, jobs, threads) == [1, 81, 15625]
        assert sizes.pop() == size
    assert treesearch.pool_map(pow, jobs[:1], 64) == [1] and not sizes


def test_returned_trees_are_normal_without_dead_nodes():
    _, trees = search_simplest(3)
    r = ring("x^2+x+1")
    for t in trees:
        p = t.to_slp(r)
        assert is_normal(p)
        # normality per segment implies no dead node: every non-output node
        # precedes its segment's output
        rows = [
            tuple(cell for cell in row)
            for row in extract_matrix(p).rows
        ]
        assert len(rows) == 3


def test_returned_trees_pass_symbolic_precheck():
    _, trees = search_simplest(3)
    for t in trees:
        # every position carries its own parameter, 2p-1 and 2p at node p
        assert symbolic_mds(t)


# Reference for no_disjoint_paths: the exact symbolic determinant of the
# minor, every edge with a parameter of its own.


def _det_says_zero(k, nodes, sinks, colmask) -> bool:
    vec = term_vectors(k, nodes)
    ridx = tuple(range(len(sinks)))
    cidx = tuple(c for c in range(k) if colmask >> c & 1)
    return not _det({i: vec(t) for i, t in enumerate(sinks)}, ridx, cidx, {})


@st.composite
def _parameterized_trees(draw):
    """(k, nodes, outs): nodes (m, n) with m < n < p over k inputs, and k
    distinct output nodes, which need not reach every input."""
    k = draw(st.integers(2, 5))
    nodes = []
    for p in range(1, draw(st.integers(k, min(2 * k + 1, 9))) + 1):
        m = draw(st.integers(-(k - 1), p - 2))
        nodes.append((m, draw(st.integers(m + 1, p - 1))))
    outs = sorted(draw(st.sets(st.integers(1, len(nodes)), min_size=k, max_size=k)))
    return k, nodes, outs


@settings(max_examples=150, deadline=None)
@given(_parameterized_trees())
# outputs 4, 7, 8 on columns 0-2: the third path exists only once an
# augmenting path takes a node off an earlier path, which random trees rarely hit
@example((4, [(-2, 0), (-1, 0), (-1, 1), (2, 3), (-3, 2), (-3, 0), (-3, -1), (-1, 6), (4, 7)],
          [4, 7, 8, 9]))
def test_path_verdict_matches_symbolic_determinant(tree):
    k, nodes, outs = tree
    vec = term_vectors(k, nodes)
    rows = {i: vec(o) for i, o in enumerate(outs)}
    memo: dict = {}
    for r in range(1, k + 1):
        for ridx in itertools.combinations(range(k), r):
            for cidx in itertools.combinations(range(k), r):
                colmask = sum(1 << c for c in cidx)
                zero = not _det(rows, ridx, cidx, memo)
                assert no_disjoint_paths(nodes, [outs[i] for i in ridx], colmask) == zero


def test_search_exact_calls_match_symbolic_determinant(monkeypatch):
    # the path proofs run on accepted rows only, for the few bits that the
    # zero masks' cheaper rules leave open
    for k, capacity, max_depth, classes, floor in ((3, 6, None, 2915, 250), (4, 8, None, 8, 2900),
                                                   (4, 9, 3, 171, 5800)):
        calls = []

        def checked(nodes, sinks, colmask, k=k):
            got = no_disjoint_paths(nodes, sinks, colmask)
            calls.append((got, got == _det_says_zero(k, nodes, sinks, colmask)))
            return got

        monkeypatch.setattr(treesearch, "no_disjoint_paths", checked)
        assert len(search_at_capacity(k, capacity, max_depth)) == classes
        assert len(calls) > floor and all(agrees for _, agrees in calls)
        assert {got for got, _ in calls} == {True, False}


# Reference for _generate_type: the generator that checked every candidate
# output row on a MinorTracker, with a path proof behind each vanishing
# value.  Verbatim apart from its name, the row index that
# MinorTracker.add_row takes and the docstring's symmetry-breaking claim,
# corrected like the generator's own.


def reference_generate_type(k: int, type_vec: tuple[int, ...], max_depth: int | None):
    """DFS over normal trees of one type; yields (nodes, outs) survivors.

    Symmetry breaking cuts most input relabelings and Property-2 swaps:
    node 1 is (x2, x1), inputs first appear in order, and adjacent
    incomparable non-output nodes (neither touching fresh inputs) carry
    sorted operand pairs.  Twin inputs, two that one node reads first, both
    at once, are not ordered.  Completeness is restored by the canonical
    dedup downstream.
    """
    capacity = sum(type_vec)
    out_positions = set(itertools.accumulate(type_vec))
    seg_end = sorted(out_positions)
    lo = -(k - 1)
    inputs = list(range(0, lo - 1, -1))

    nodes: list[tuple[int, int]] = []
    fresh_flags: list[bool] = []
    # tracker row i is the output at seg_end[i] of the current path
    def exact(rowmask: int, colmask: int) -> bool:
        sinks = [seg_end[i] for i in range(rowmask.bit_length()) if rowmask >> i & 1]
        return no_disjoint_paths(nodes, sinks, colmask)

    root = MinorTracker(_ring(EVAL_MODULUS), k, exact)
    scale, unpack, units = packed_rows(root.ring, k)
    # each term's vector evaluated at sympoly.point, packed into one int
    pvecs: dict[int, int] = {i: units[-i] for i in inputs}
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
                if not new_tracker.add_row(unpack(prow), new_tracker.nrows):
                    nodes.pop()
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
            del pvecs[p], cov[p], depths[p], anc[p]

    rec(1, root, 0, 0)
    return results


@pytest.mark.parametrize("k, capacity, max_depth, types", [
    (3, 5, None, None),
    (3, 6, None, None),
    (4, 7, None, None),
    (4, 8, None, None),
    (4, 8, 4, None),
    (5, 10, None, [(5, 2, 1, 1, 1)]),
])
def test_generate_type_matches_tracker_reference(k, capacity, max_depth, types):
    # the reference keeps every normal serialization; the generator keeps
    # those whose own type is the least over all valid output orders, and
    # extends only the first of the isomorphic prefixes at a completed output
    for tv in types or enumerate_types(k, capacity):
        expected = {}
        for raw in reference_generate_type(k, tv, max_depth):
            key = canonical_tree(ImplTree(k, *raw))
            if key[0] == tv:
                expected[raw] = key
        got = _generate_type(k, tv, max_depth)
        rest = iter(expected)
        assert all(raw in rest for raw in got)  # no new tree, in the reference's order
        assert {expected[raw] for raw in got} == set(expected.values())  # no class lost


def _prefix_key(k: int, nodes: tuple, ends: tuple) -> tuple:
    """The generator's key of a prefix whose outputs sit at ends: its least
    tokens, with its segments in generation order."""
    plan = tuple(tuple(range(s + 1, e + 1)) for s, e in zip((0,) + ends, ends))
    return treesearch._least_tokens(nodes, plan, 0, list(plan[0]), [None] * (len(nodes) + k),
                                    1 - k, {}, [], False, None)


@functools.lru_cache(maxsize=None)
def _twin_free_prefixes() -> list[tuple]:
    """(k, nodes, ends) of every prefix of a raw survivor up to an output
    row j < k-1, where no two nodes share both operands: the prefixes the
    generator keys."""
    prefixes = set()
    for k, capacity in ((3, 6), (4, 8)):
        for t in _raw_survivors(k, capacity):
            for j in range(k - 1):
                nodes = t.nodes[:t.outs[j]]
                if len(set(nodes)) == len(nodes):
                    prefixes.add((k, nodes, t.outs[:j + 1]))
    return sorted(prefixes)


@st.composite
def _prefix_variants(draw):
    """(k, a twin-free prefix, its output positions, the prefix with its
    inputs relabeled and each segment's interior nodes in another valid
    order)."""
    prefixes = _twin_free_prefixes()
    k, nodes, ends = prefixes[draw(st.integers(0, len(prefixes) - 1))]
    sigma = draw(st.permutations(range(k)))
    new = {-c: -sigma[c] for c in range(k)}  # old term -> new term
    start = 1
    for e in ends:
        pending = list(range(start, e))
        while pending:
            q = draw(st.sampled_from([q for q in pending if all(x in new for x in nodes[q - 1])]))
            pending.remove(q)
            new[q] = len(new) - k + 1
        new[e] = e
        start = e + 1
    moved = [None] * len(nodes)
    for q, (m, n) in enumerate(nodes, start=1):
        moved[new[q] - 1] = tuple(sorted((new[m], new[n])))
    return k, nodes, ends, tuple(moved)


@settings(max_examples=150, deadline=None)
@given(_prefix_variants())
def test_prefix_key_is_a_class_invariant(case):
    # the generator cuts a prefix whose key it has met at the same output
    # row: relabeled inputs and reordered segments keep a twin-free key
    k, nodes, ends, moved = case
    assert _prefix_key(k, moved, ends) == _prefix_key(k, nodes, ends)


@pytest.mark.parametrize("k, capacity, max_depth", [
    (3, 5, None),
    (3, 6, None),
    (4, 8, None),
    (4, 8, 4),
])
def test_raw_survivors_have_their_least_type(k, capacity, max_depth):
    for tv in enumerate_types(k, capacity):
        for nodes, outs in _generate_type(k, tv, max_depth):
            assert canonical_tree(ImplTree(k, nodes, outs))[0] == tv


@st.composite
def _marked_trees(draw):
    """Trees of random nodes (m, n), m < n < p, over 2 to 5 inputs, with
    k random output marks."""
    k = draw(st.integers(2, 5))
    capacity = draw(st.integers(k, 3 * k))
    nodes = []
    for p in range(1, capacity + 1):
        m = draw(st.integers(-(k - 1), p - 2))
        nodes.append((m, draw(st.integers(m + 1, p - 1))))
    outs = sorted(draw(st.sets(st.integers(1, capacity), min_size=k, max_size=k)))
    return ImplTree(k, tuple(nodes), tuple(outs))


@settings(max_examples=300, deadline=None)
@given(_marked_trees())
def test_least_type_orders_are_valid(t):
    # canonical_tree and _reorder_beats test no output order for validity (no
    # segment takes in a waiting output): the least type vector over all
    # orders is the least over valid ones, and only valid orders reach it
    anc = ancestor_masks(t.nodes)
    out_mask = sum(1 << o for o in t.outs)
    types = []
    for order in itertools.permutations(t.outs):
        placed, tv, valid = 0, [], True
        for o in order:
            seg = anc[o] & ~placed
            valid = valid and not seg & out_mask
            tv.append(seg.bit_count() + 1)
            placed |= seg | 1 << o
        types.append((tuple(tv), valid))
    least = min(tv for tv, _ in types)
    assert least == min(tv for tv, valid in types if valid)
    assert all(valid for tv, valid in types if tv == least)


@st.composite
def _order_walks(draw):
    """(a marked tree, how many of its outputs are completed, a type vector
    near the tree's own)."""
    t = draw(_marked_trees())
    done = draw(st.integers(1, t.k))
    tv = tuple(max(1, s + draw(st.integers(-1, 1))) for s in t.type_vector)
    return t, done, tv


@settings(max_examples=300, deadline=None)
@given(_order_walks())
def test_reorder_beats_matches_brute_force(case):
    # some valid order of the completed outputs has a type vector below tv's prefix
    t, done, tv = case
    anc = ancestor_masks(t.nodes)
    outs = list(t.outs[:done])
    out_mask = sum(1 << o for o in outs)
    beats = False
    for order in itertools.permutations(outs):
        placed, sizes, valid = 0, [], True
        for o in order:
            seg = anc[o] & ~placed
            valid = valid and not seg & out_mask
            sizes.append(seg.bit_count() + 1)
            placed |= seg | 1 << o
        beats = beats or valid and tuple(sizes) < tv[:done]
    assert treesearch._reorder_beats(tv, [anc[o] | 1 << o for o in outs]) == beats


def _at_points(poly) -> int:
    """A parameter polynomial evaluated at sympoly.point."""
    r = _ring(EVAL_MODULUS)
    acc = 0
    for mono in poly:
        term = 1
        for pid in mono:
            term = r.mul(term, point(pid))
        acc ^= term
    return acc


def _mask_verdicts(k, nodes, marks):
    """Replays the tree search's zero masks over a tree: every node after
    the last accepted row is a candidate output row, and a node of marks
    that passes is accepted as the next row, up to k - 1 of them.  Yields
    (mask verdict, verdict of MinorTracker.add_row with the sympoly._det
    hook) for every node.  Checks on the way that the k low bits of each
    mask are the term's zero entries, and that accepting a row keeps them."""
    vec = term_vectors(k, nodes)

    def val(t):
        return tuple(_at_points(e) for e in vec(t))

    def zero_entries(t):
        return sum(1 << c for c, e in enumerate(vec(t)) if not e)

    full = (1 << k) - 1
    anc = ancestor_masks(nodes)
    rows: list[int] = []
    ref = minor_tracker(k, lambda i: vec(rows[i]))
    tracker = MinorTracker(_ring(EVAL_MODULUS), k, lambda rowmask, colmask: False)
    zs = {-c: full ^ 1 << c for c in range(k)}
    for p, (m, n) in enumerate(nodes, start=1):
        zs[p] = zs[m] & zs[n]
        assert zs[p] & full == zero_entries(p)
        rows.append(p)
        expected = ref.clone().add_row(val(p), len(rows) - 1)
        rows.pop()
        got = not zs[p]
        # the verdict when the entries were kept apart from the minor bits
        assert got == (all(vec(p)) and not zs[p] >> k)
        yield got, expected
        if got and p in marks and len(rows) < k - 1:
            rows.append(p)
            ref.add_row(val(p), len(rows) - 1)
            tracker.add_row(val(p), len(rows) - 1)
            new = _accept_masks(k, nodes, rows, zs, anc, val, tracker.minors())
            assert all(new[t] & full == zs[t] & full for t in new)
            zs = new


@st.composite
def _partial_trees(draw):
    """(k, nodes, marks): nodes (m, n) with m < n < p over k inputs, n
    mostly the node just before p so that most nodes reach every input, and
    marks the nodes to accept as rows."""
    k = draw(st.integers(2, 5))
    nodes = []
    for p in range(1, draw(st.integers(2 * k, 3 * k)) + 1):
        m = draw(st.integers(-(k - 1), p - 2))
        chain = draw(st.integers(0, 3))
        nodes.append((m, p - 1 if chain else draw(st.integers(m + 1, p - 1))))
    return k, nodes, {p for p in range(1, len(nodes) + 1) if draw(st.booleans())}


@functools.cache
def _scaffolds() -> tuple:
    """Trees whose output rows all pass, one list per k: every normal
    serialization of the k = 3 capacity-5 search, and the paper's 4x4 and
    5x5 trees."""
    return ([ImplTree(3, nodes, outs) for tv in enumerate_types(3, 5)
             for nodes, outs in reference_generate_type(3, tv, None)],
            list(catalogs.simplest_trees_4x4()),
            [catalogs.tree_5x5()])


@st.composite
def _mutated_trees(draw):
    """(k, nodes, marks): a scaffold with up to two nodes given new
    operands, its outputs as marks."""
    t = draw(st.sampled_from(draw(st.sampled_from(_scaffolds()))))
    k, nodes = t.k, list(t.nodes)
    for _ in range(draw(st.integers(0, 2))):
        p = draw(st.integers(1, len(nodes)))
        m = draw(st.integers(-(k - 1), p - 2))
        nodes[p - 1] = (m, draw(st.integers(m + 1, p - 1)))
    return k, nodes, set(t.outs)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_partial_trees(), _mutated_trees()))
# a minor with row 8 and term 3 vanishes at sympoly.point without being
# zero: the path proof, not the value, must decide it
@example((3, [(-1, 0), (0, 1), (-1, 2), (-2, 1), (3, 4), (0, 5), (4, 5), (-1, 7), (3, 8)], {8}))
def test_mask_verdict_matches_tracker_with_symbolic_determinant(tree):
    for got, expected in _mask_verdicts(*tree):
        assert got == expected


def test_mask_verdicts_accept_every_row_of_the_paper_trees(trees8):
    # every output row of these trees extends an all-minors-nonzero prefix,
    # so each one passes, after the accepted rows' masks were built
    for t in trees8 + [catalogs.tree_5x5()]:
        verdicts = list(_mask_verdicts(t.k, t.nodes, t.outs))
        assert [verdicts[o - 1] for o in t.outs] == [(True, True)] * t.k
        assert (False, False) in verdicts


def test_unit_weights_can_cancel_where_disjoint_paths_exist():
    # both outputs read x1 + x2: with a parameter per edge the 2x2 minor is
    # p1*p4 + p2*p3, one product per pair of disjoint paths; with unit
    # weights it is 1 + 1 = 0, so the support walk cannot use the paths
    t = ImplTree(2, ((-1, 0), (-1, 0)), (1, 2))
    assert not no_disjoint_paths(t.nodes, t.outs, 0b11)
    assert symbolic_mds(t)
    assert 0b1111 in _support_need(t, 4)[-1]
    assert 0 not in _support_need(t, 0)[-1]


def test_canonical_tree_identifies_relabelings(trees8):
    t = trees8[0]
    key = canonical_tree(t)
    # swap the two single-node tails (they are incomparable only when
    # structurally independent; instead relabel inputs)
    relabeled = ImplTree(
        t.k,
        tuple(tuple(sorted((_relabel(m), _relabel(n)))) for (m, n) in t.nodes),
        t.outs,
    )
    assert canonical_tree(relabeled) == key
    assert canonical_tree(tree_from_encoding(t.k, key)) == key


def _relabel(idx):
    # exchange x1 <-> x2 (indices 0 and -1)
    if idx == 0:
        return -1
    if idx == -1:
        return 0
    return idx


def test_reference_trees_have_distinct_encodings(trees8):
    keys = {canonical_tree(t) for t in trees8}
    assert len(keys) == 8
    assert canonical_tree(trees8[0]) != canonical_tree(trees8[5])


def test_skeleton_depths(trees8):
    assert [t.skeleton_depth() for t in trees8] == [6, 7, 6, 5, 5, 4, 7, 6]


def test_tree_text_round_trip(trees8):
    for t in trees8:
        text = tree_to_text(t)
        assert tree_from_text(text) == t
        assert tree_to_text(tree_from_text(text)) == text


def test_tree_text_errors():
    with pytest.raises(FormatError):
        tree_from_text("T1 = T-1 + T0\n")
    with pytest.raises(FormatError):
        tree_from_text("type (1,1)\nT1 = T-1 + T0\nout y1 = T1\nout y2 = T1\n")
    with pytest.raises(FormatError):
        tree_from_text("type (2,1)\nT1 = T-1 + T0\nT2 = T0 + T1\nout y1 = T1\nout y2 = T2\n")


@pytest.mark.parametrize("text, line", [
    ("type (2,1,1)\nT1 = Tx + T0\n", 2),
    ("type (2,1,1)\nT1 = T-1 + T0\nout y1 = Tq\n", 3),
    ("type (2,1,1)\nT1 = T-1 + T0\nout y1\n", 3),
    ("type (a,1)\nT1 = T-1 + T0\n", 1),
    ("type 2,1\nT1 = T-1 + T0\n", 1),
    ("# comment\n\ntype (2,1,1)\nT1 = Tx + T0\n", 4),
])
def test_tree_text_bad_integers_name_the_line(text, line):
    with pytest.raises(FormatError, match=f"^line {line}: "):
        tree_from_text(text)


@pytest.mark.parametrize("body, line, message", [
    ("T1 = T-1 + T0\nout y1 = T1\nT2 = T3 + T1\nout y2 = T2\n", 4, "node 2 has bad operands"),
    ("T1 = T-1 + T0\nout y1 = T1\nT2 = T0 + T1\nout y2 = T3\n", 5, "not a node defined above"),
    ("T1 = T-1 + T0\nout y1 = T1\nT2 = T0 + T1\nout y2 = T1\n", 1, "strictly increasing output marks"),
    ("T1 = T-1 + T0\nout y1 = T1\nT2 = T0 + T1\n", 1, "strictly increasing output marks"),
    ("T1 = T-1 + T0\nout zz = T1\nT2 = T0 + T1\nout bogus = T2\n", 3, "out y<i> = <term>"),
    ("T1 = T-1 + T0\nout y1 = T1\nT2 = T0 + T1\nout y1 = T2\n", 5, "y1..yq, each exactly once"),
    ("T1 = T-1 + T0\nout y2 = T1\nT2 = T0 + T1\nout y1 = T2\n", 1, "strictly increasing output marks"),
])
def test_tree_text_structure_errors_name_the_line(body, line, message):
    # node operands and output lines are checked where they are written, and
    # output labels are read: y1..yk, each once, in the order of their marks
    with pytest.raises(FormatError, match=f"^line {line}: .*{re.escape(message)}"):
        tree_from_text("type (1,1)\n" + body)


@pytest.mark.parametrize("text, line, message", [
    # a node after the last output
    ("type (1,1)\nT1 = T-1 + T0\nout y1 = T1\nT2 = T-1 + T1\nout y2 = T2\nT3 = T1 + T2\n",
     6, "node T3 comes after the last output"),
    # a node that no output reads
    ("type (1,2)\nT1 = T-1 + T0\nout y1 = T1\nT2 = T-1 + T1\nT3 = T0 + T1\nout y2 = T3\n",
     4, "node T2 is not read by the next output T3"),
    # a node that only a later output reads
    ("type (1,2,1)\nT1 = T-1 + T0\nout y1 = T1\nT2 = T-2 + T0\nT3 = T-2 + T1\nout y2 = T3\n"
     "T4 = T1 + T2\nout y3 = T4\n", 4, "node T2 is not read by the next output T3"),
])
def test_tree_text_must_be_normal(text, line, message):
    # each node is read by the output that closes its segment, so the type
    # vector is the tree's segments and every node's word XOR is needed
    with pytest.raises(FormatError, match=f"^line {line}: {re.escape(message)}$"):
        tree_from_text(text)


def test_max_depth_filter():
    shallow = search_at_capacity(4, 8, max_depth=4)
    assert shallow
    assert all(t.skeleton_depth() <= 4 for t in shallow)
