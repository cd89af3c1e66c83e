import random
from itertools import permutations

import pytest

from mdsforge.gf2 import NonUnitError, ring
from mdsforge.blockmat import (
    BlockMatrix,
    MinorTracker,
    OracleTooLargeError,
    branch_number,
    canonical_form,
    canonical_key,
    is_involutory,
    is_mds,
    matrix_from_text,
    matrix_to_text,
    packed_rows,
    permute_and_scale,
)
from mdsforge import catalogs


AES_TEXT = """ring x^8+x^4+x^3+x+1 k 4
a,a+1,1,1
1,a,a+1,1
1,1,a,a+1
a+1,1,1,a
"""


def test_aes_mixcolumns_is_mds():
    assert is_mds(matrix_from_text(AES_TEXT))


def test_identity_is_not_mds():
    r = ring("x^4+x+1")
    assert not is_mds(BlockMatrix.identity(r, 2))


def test_first_catalog_entry_is_mds():
    entry = catalogs.load_catalog("cost67_4x4")[0]
    assert is_mds(entry.matrix)


def test_branch_number_identity():
    r = ring("x^2+x+1")
    assert branch_number(BlockMatrix.identity(r, 3)) == 2


def test_branch_number_mds_is_k_plus_one():
    entry = catalogs.load_catalog("cost35_4x4")[0]
    assert branch_number(entry.matrix, "differential") == 5
    assert branch_number(entry.matrix, "linear") == 5


def test_branch_number_budget():
    entry = catalogs.load_catalog("cost67_4x4")[0]  # 8 * 4 = 32 bits
    with pytest.raises(OracleTooLargeError):
        branch_number(entry.matrix)


def test_branch_number_equivalent_to_minor_test():
    rng = random.Random(11)
    r = ring("x^2+x+1")
    agree = 0
    for _ in range(120):
        m = BlockMatrix(r, [[rng.randrange(4) for _ in range(3)] for _ in range(3)])
        mds = is_mds(m)
        assert mds == (branch_number(m, "differential") == 4)
        assert mds == (branch_number(m, "linear") == 4)
        agree += 1
    assert agree == 120


def _leibniz_det(m: BlockMatrix) -> int:
    acc = 0
    for perm in permutations(range(m.k)):
        term = 1
        for i, j in enumerate(perm):
            term = m.ring.mul(term, m.rows[i][j])
        acc ^= term  # signs are irrelevant in characteristic 2
    return acc


def test_determinant_of_mds_matrix_is_unit():
    for entry in catalogs.load_catalog("cost67_4x4")[:5]:
        m = entry.matrix
        tracker = MinorTracker(m.ring, m.k)
        assert all(tracker.add_row(row) for row in m.rows)
        assert tracker.full_det() == _leibniz_det(m)
        assert m.ring.is_unit(tracker.full_det())


def test_exact_hook_decides_non_unit_minors():
    # over x^2+x+1 the identity has zero entries but every 2x2 minor is 1
    r = ring("x^2+x+1")
    calls = []

    def says(zero):
        def exact(rowmask, colmask):
            calls.append((rowmask, colmask))
            return zero
        return exact

    rows = BlockMatrix.identity(r, 2).rows
    tracker = MinorTracker(r, 2, says(False))
    assert all(tracker.add_row(row) for row in rows)
    assert calls == [(0b01, 0b10), (0b10, 0b01)]
    assert tracker.full_det() == 1
    calls.clear()
    assert not MinorTracker(r, 2, says(True)).add_row(rows[0])
    assert calls == [(0b01, 0b10)]
    # without a hook a non-unit minor fails at once
    assert not MinorTracker(r, 2).add_row(rows[0])
    # a vanishing 2x2 minor reaches the hook with its row and column masks
    calls.clear()
    tracker = MinorTracker(r, 2, says(False))
    assert tracker.add_row((1, 1)) and tracker.add_row((1, 1))
    assert calls == [(0b11, 0b11)]


def test_packed_rows_match_ring_mul():
    rng = random.Random(7)
    for modulus in ("x^4+x+1", "x^8+x^2+1"):
        r = ring(modulus)
        scale, unpack = packed_rows(r, 4)
        for _ in range(50):
            row = tuple(rng.randrange(1 << r.n) for _ in range(4))
            packed = sum(e << (r.n * c) for c, e in enumerate(row))
            s = rng.randrange(1 << r.n)
            assert unpack(packed) == row
            assert unpack(scale(packed, s)) == tuple(r.mul(s, e) for e in row)


def test_canonical_form_orbit_invariance():
    rng = random.Random(23)
    entry = catalogs.load_catalog("cost67_4x4")[0]
    m = entry.matrix
    key = canonical_key(m)
    perms = list(permutations(range(4)))
    for _ in range(25):
        rp = rng.choice(perms)
        cp = rng.choice(perms)
        pm = BlockMatrix(m.ring, tuple(
            tuple(m.rows[rp[i]][cp[j]] for j in range(4)) for i in range(4)))
        assert canonical_key(pm) == key
    assert canonical_form(canonical_form(m)) == canonical_form(m)


def test_canonical_orbit_size():
    # a generic orbit is scanned over (k!)^2 = 576 candidates; distinct
    # matrices in the orbit stay in one class
    entry = catalogs.load_catalog("cost67_4x4")[0]
    m = entry.matrix
    seen = set()
    for rp in permutations(range(4)):
        for cp in permutations(range(4)):
            seen.add(tuple(tuple(m.rows[rp[i]][cp[j]] for j in range(4))
                           for i in range(4)))
    assert len(seen) == 576
    assert len({canonical_key(BlockMatrix(m.ring, s)) for s in seen}) == 1


def test_involutory_reference_entries(r8):
    cat = catalogs.load_catalog("involutory_4x4")
    assert len(cat) == 18
    for e in cat:
        assert is_involutory(e.matrix) and is_mds(e.matrix)
    assert is_involutory(BlockMatrix.identity(r8, 4))


def test_permute_and_scale():
    r = ring("x^8+x^2+1")
    entry = catalogs.load_catalog("cost67_4x4")[0]
    m = entry.matrix
    assert permute_and_scale(m, (0, 1, 2, 3), (1, 1, 1, 1)) == m
    shuffled = permute_and_scale(m, (2, 3, 0, 1), (2, 1, 1, r.inv(2)))
    assert shuffled.rows[0] == tuple(r.mul(2, e) for e in m.rows[2])
    assert is_mds(shuffled)
    with pytest.raises(NonUnitError):
        permute_and_scale(m, (0, 1, 2, 3), (r.parse_element("a^4+a+1"), 1, 1, 1))


def test_matrix_text_round_trip():
    m = matrix_from_text(AES_TEXT)
    assert matrix_to_text(m) == AES_TEXT
    assert matrix_from_text(matrix_to_text(m)) == m
