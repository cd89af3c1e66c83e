import random

import pytest

from mdsforge import catalogs
from mdsforge.gf2 import ring
from mdsforge.blockmat import matrix_from_text
from mdsforge.slp import (
    DeadTermError,
    NotSquareError,
    Slp,
    Step,
    ancestor_masks,
    cost,
    depth,
    extract_matrix,
    is_normal,
    normalize,
    slp_from_text,
    slp_to_text,
)

EXAMPLE1 = """ring x^8+x^2+1 inputs 4
t1 = x1 + x3
t2 = x3 + x4
t3 = t1 + a*x2
t4 = t1 + x4
t5 = t2 + a*x2
t6 = t1 + x2
out y1 = t3
out y2 = t4
out y3 = t5
out y4 = t6
"""


def test_example_program_cost_and_matrix():
    p = slp_from_text(EXAMPLE1)
    assert cost(p) == 49  # 6 steps * 8 + one reused scalar product
    expected = matrix_from_text("""ring x^8+x^2+1 k 4
1,a,1,0
1,0,1,1
0,a,1,1
1,1,1,0
""")
    assert extract_matrix(p) == expected


def test_aes_program_cost():
    p = catalogs.load_slp("aes_mixcolumns")
    assert cost(p) == 108


def test_bit_level_programs():
    balanced = catalogs.load_slp("bitlevel_balanced")
    assert (cost(balanced), depth(balanced)) == (4, 2)
    rows = extract_matrix(balanced).rows
    assert rows == ((1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0), (1, 1, 1, 1))
    seq = catalogs.load_slp("bitlevel_sequential")
    assert (cost(seq), depth(seq)) == (3, 3)
    assert extract_matrix(seq).rows == rows


def test_pass_through_identity():
    r = ring("x^4+x+1")
    p = Slp(r, 3, (), (0, -1, -2))
    m = extract_matrix(p)
    assert m.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert cost(p) == 0 and depth(p) == 0


def test_catalog_entry_cost_both_rings():
    e8 = catalogs.load_catalog("cost67_4x4")[0]
    assert cost(e8.slp) == 67
    assert depth(e8.slp) == 8
    e4 = catalogs.load_catalog("cost35_4x4")[0]
    assert cost(e4.slp) == 35


def test_ancestor_masks():
    p = slp_from_text(EXAMPLE1)
    anc = ancestor_masks(p.steps)
    assert len(anc) == p.n_steps + 1 and anc[0] == 0
    assert anc[3] >> 1 & 1            # x5 < x7 in source numbering
    assert anc[4] >> 1 & 1
    assert not anc[3] >> 2 & 1        # x6 incomparable with x7 = y1
    assert not anc[3] >> 3 & 1        # never reflexive
    assert anc[3] == 1 << 1           # inputs carry no bit


def test_normalize_matches_worked_example():
    p = slp_from_text(EXAMPLE1)
    q = normalize(p)
    assert slp_to_text(q) == """ring x^8+x^2+1 inputs 4
t1 = x1 + x3
t2 = t1 + a*x2
t3 = t1 + x4
t4 = x3 + x4
t5 = t4 + a*x2
t6 = t1 + x2
out y1 = t2
out y2 = t3
out y3 = t5
out y4 = t6
"""
    assert extract_matrix(q) == extract_matrix(p)
    assert cost(q) == cost(p) and depth(q) == depth(p)
    assert is_normal(q) and not is_normal(p)
    assert normalize(q) == q


@pytest.mark.parametrize("k, steps, outs, message", [
    (0, (), (), "need at least one input"),
    (2, (Step(-1, 1, 1, 1),), (1,), "step 1 references an unavailable term"),
    (2, (Step(-2, 0, 1, 1),), (1,), "step 1 references an unavailable term"),
    (2, (Step(-1, 0, 1, 0),), (1,), "step 1 has a zero scalar"),
    (2, (Step(-1, 0, 1, 1),), (1, 2), "output references unknown term 2"),
    (2, (Step(-1, 0, 1, 1),), (1, 1), "duplicate output term"),
    (2, (Step(-1, 0, 1, 1), Step(-1, 1, 1, 1)), (2, 1),
     "output term 1 precedes an earlier-labelled output"),
])
def test_malformed_programs_are_refused(k, steps, outs, message):
    with pytest.raises(ValueError, match=message):
        normalize(Slp(ring("x^4+x+1"), k, steps, outs))


def test_normalize_rejects_dead_terms():
    r = ring("x^4+x+1")
    p = Slp(r, 2, (Step(-1, 0, 1, 1), Step(-1, 0, 2, 1), Step(-1, 1, 1, 1)), (1, 3))
    with pytest.raises(DeadTermError):
        normalize(p)


def test_extract_requires_square():
    r = ring("x^4+x+1")
    p = Slp(r, 3, (Step(-1, 0, 1, 1),), (1,))
    with pytest.raises(NotSquareError):
        extract_matrix(p)


def _random_slp(rng, r, k, steps_n):
    steps = []
    lo = -(k - 1)
    for p in range(1, steps_n + 1):
        m = rng.randrange(lo, p)
        n = rng.randrange(lo, p)
        while n == m:
            n = rng.randrange(lo, p)
        a = rng.choice([1, 1, 2, r.inv(2), rng.randrange(1, 1 << r.n)])
        b = rng.choice([1, 1, 2, r.inv(2), rng.randrange(1, 1 << r.n)])
        steps.append(Step(m, n, a, b))
    avail = list(range(lo, steps_n + 1))
    rng.shuffle(avail)
    outs = sorted(avail[:k])  # labels in program order, as the formalism assumes
    return Slp(r, k, tuple(steps), tuple(outs))


def test_normalize_preserves_semantics_randomized():
    rng = random.Random(99)
    r = ring("x^4+x+1")
    done = 0
    while done < 300:
        p = _random_slp(rng, r, 4, rng.randrange(4, 9))
        try:
            q = normalize(p)
        except DeadTermError:
            continue
        assert extract_matrix(q) == extract_matrix(p)
        assert cost(q) == cost(p)
        assert depth(q) == depth(p)
        assert is_normal(q)
        done += 1


def test_cost_lower_bound():
    rng = random.Random(5)
    r = ring("x^4+x+1")
    for _ in range(200):
        p = _random_slp(rng, r, 3, rng.randrange(3, 7))
        base = r.n * p.n_steps
        assert cost(p) >= base
        if all(st.a == 1 and st.b == 1 for st in p.steps):
            assert cost(p) == base


def test_relabeling_preserves_cost_and_depth():
    rng = random.Random(17)
    e = catalogs.load_catalog("cost67_4x4")[3]
    p = e.slp
    for _ in range(20):
        perm_in = list(range(p.k_in))
        rng.shuffle(perm_in)
        # relabel inputs: input j -> perm_in[j]
        remap = {-j: -perm_in[j] for j in range(p.k_in)}
        steps = tuple(
            Step(remap.get(st.m, st.m), remap.get(st.n, st.n), st.a, st.b)
            for st in p.steps
        )
        outs = list(p.outputs)
        rng.shuffle(outs)
        q = Slp(p.ring, p.k_in, steps, tuple(outs))
        assert cost(q) == cost(p) and depth(q) == depth(p)


def test_slp_text_round_trip():
    for name in ("demo_cost49", "aes_mixcolumns", "bitlevel_balanced"):
        p = catalogs.load_slp(name)
        text = slp_to_text(p)
        assert slp_from_text(text) == p
        assert slp_to_text(slp_from_text(text)) == text
