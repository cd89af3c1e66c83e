import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from mdsforge import catalogs, treesearch
from mdsforge.gf2 import FormatError, ring
from mdsforge.instantiate import _symbolic_subset_ok
from mdsforge.slp import extract_matrix, is_normal
from mdsforge.sympoly import _det, term_vectors
from mdsforge.treesearch import (
    ImplTree,
    _generate_type,
    _tree_dag,
    canonical_tree,
    enumerate_types,
    no_disjoint_paths,
    search_at_capacity,
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
    anc = _tree_dag(t)
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
            for q in pending:
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
    anc = _tree_dag(t)
    imap = {-j: -j for j in range(t.k)}
    encs = (_serialize(t, anc, set(t.outs), order, imap)
            for order in itertools.permutations(t.outs))
    return [tree_from_encoding(t.k, enc) for enc in encs if enc is not None]


def test_canonical_tree_matches_brute_force_on_raw_survivors():
    raws = [raw for tv in enumerate_types(3, 5) for raw in _generate_type(3, tv, None)]
    assert len(raws) == 148
    # some survivors have two nodes on the same operands, where ties matter
    assert any(len(set(nodes)) < len(nodes) for nodes, _ in raws)
    for nodes, outs in raws:
        t = ImplTree(3, nodes, outs)
        assert canonical_tree(t) == brute_force_canonical_tree(t)
    # nodes 4 and 9 share operands, and from node 8 on the set iteration
    # order that breaks such ties is no longer ascending
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


def test_search_determinism_with_threads():
    single = search_at_capacity(3, 5, threads=1)
    multi = search_at_capacity(3, 5, threads=2)
    assert [canonical_tree(t) for t in single] == [canonical_tree(t) for t in multi]
    # at threads > 1 each type is canonicalized inside its worker
    single = search_at_capacity(3, 6, threads=1)
    assert len(single) == 2915
    assert search_at_capacity(3, 6, threads=2) == single


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
        assert _symbolic_subset_ok(t, range(t.scalar_positions()))


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
    calls = []

    def checked(nodes, sinks, colmask):
        got = no_disjoint_paths(nodes, sinks, colmask)
        calls.append(got == _det_says_zero(3, nodes, sinks, colmask))
        return got

    monkeypatch.setattr(treesearch, "no_disjoint_paths", checked)
    assert len(search_at_capacity(3, 6)) == 2915
    assert len(calls) > 10_000 and all(calls)


def test_unit_weights_can_cancel_where_disjoint_paths_exist():
    # both outputs read x1 + x2: with a parameter per edge the 2x2 minor is
    # p1*p4 + p2*p3, one product per pair of disjoint paths; with unit
    # weights it is 1 + 1 = 0, so _symbolic_subset_ok needs the determinant
    t = ImplTree(2, ((-1, 0), (-1, 0)), (1, 2))
    assert not no_disjoint_paths(t.nodes, t.outs, 0b11)
    assert _symbolic_subset_ok(t, range(t.scalar_positions()))
    assert not _symbolic_subset_ok(t, ())


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


def test_max_depth_filter():
    shallow = search_at_capacity(4, 8, max_depth=4)
    assert shallow
    assert all(t.skeleton_depth() <= 4 for t in shallow)
