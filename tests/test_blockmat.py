import random
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from mdsforge import blockmat
from mdsforge.gf2 import NonUnitError, ring
from mdsforge.blockmat import (
    BlockMatrix,
    MinorTracker,
    OracleTooLargeError,
    _minor_plan,
    branch_number,
    canonical_form,
    canonical_key,
    is_involutory,
    is_mds,
    matrix_from_text,
    matrix_to_text,
    packed_rows,
    squares_to_identity,
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


@pytest.mark.parametrize("rows, message", [
    ([], "must be square and nonempty"),
    ([[1, 0], [0]], "must be square and nonempty"),
    ([[1, 0, 1], [0, 1, 1]], "must be square and nonempty"),
    ([[1, 0], [0, 16]], "entry exceeds ring residue width"),
])
def test_block_matrix_refuses_bad_rows(rows, message):
    with pytest.raises(ValueError, match=message):
        BlockMatrix(ring("x^4+x+1"), rows)


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
        assert all(tracker.add_row(row, j) for j, row in enumerate(m.rows))
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
    assert all(tracker.add_row(row, j) for j, row in enumerate(rows))
    assert calls == [(0b01, 0b10), (0b10, 0b01)]
    assert tracker.full_det() == 1
    calls.clear()
    assert not MinorTracker(r, 2, says(True)).add_row(rows[0], 0)
    assert calls == [(0b01, 0b10)]
    # without a hook a non-unit minor fails at once
    assert not MinorTracker(r, 2).add_row(rows[0], 0)
    # a vanishing 2x2 minor reaches the hook with its row and column masks
    calls.clear()
    tracker = MinorTracker(r, 2, says(False))
    assert tracker.add_row((1, 1), 0) and tracker.add_row((1, 1), 1)
    assert calls == [(0b11, 0b11)]


def _current(tracker, k: int, j: int) -> list[int]:
    """The tracker's minors on rows 0..j, entries included, at every key of
    the minor plans of those rows: after add_row(row, j) accepts, these are
    current."""
    keys = []
    for i in range(j + 1):
        entry_keys, minors = _minor_plan(k, i)
        keys += entry_keys + [key for _, _, key, _ in minors]
    return [tracker.minors()[key] for key in keys]


@st.composite
def _tracker_writes(draw):
    """(modulus, k, hooked, writes): a degree-8 ring with zero divisors or
    GF(2^8), a matrix size, whether a deterministic exact hook keeps some
    non-unit minors, and (j, row) writes; j is cut to the rows accepted so
    far when the writes are replayed.  Entries are rarely 0, so that most
    writes pass the entry screen and the last rows are reached."""
    modulus = draw(st.sampled_from(["x^8+x^2+1", "x^8+x^4+x^3+x+1"]))
    k = draw(st.integers(1, 4))
    row = st.tuples(*[st.integers(0, 255)] * k)
    writes = draw(st.lists(st.tuples(st.integers(0, k - 1), row), min_size=1, max_size=16))
    return modulus, k, draw(st.booleans()), writes


def test_rows_written_in_place_match_a_fresh_tracker():
    # a search writes output row j over the rows below it and keeps one
    # tracker: after each write it must agree with a fresh tracker fed the
    # rows of the current path
    accepted = Counter()  # accepted writes per (k, j)
    # an MDS 4x4 and its leading 3x3 block, every minor of which is one of
    # the 4x4's: all rows are accepted, then the last two are written again
    mds = catalogs.load_catalog("cost67_4x4")[0].matrix
    rows4 = list(mds.rows)
    rows3 = [row[:3] for row in rows4[:3]]

    @settings(max_examples=300, deadline=None)
    @given(_tracker_writes())
    @example(("x^8+x^2+1", 4, False, list(enumerate(rows4)) + [(2, rows4[2]), (3, rows4[3])]))
    @example(("x^8+x^2+1", 3, False, list(enumerate(rows3)) + [(1, rows3[1]), (2, rows3[2])]))
    def check(case):
        modulus, k, hooked, writes = case
        r = ring(modulus)
        hook = (lambda rowmask, colmask: (rowmask * 5 + colmask) % 3 == 0) if hooked else None
        tracker = MinorTracker(r, k, hook)
        path = []
        for j, row in writes:
            j = min(j, len(path))
            path[j:] = [row]
            fresh = MinorTracker(r, k, hook)
            ok = tracker.add_row(row, j)
            assert ok == all(fresh.add_row(p, i) for i, p in enumerate(path))
            if not ok:
                path.pop()
                continue
            accepted[k, j] += 1
            assert _current(tracker, k, j) == _current(fresh, k, j)
            if j == k - 1:
                assert tracker.full_det() == fresh.full_det()
            else:
                with pytest.raises(ValueError):
                    tracker.full_det()

    check()
    # the in-place rule is checked up to the last row of a 3x3 and a 4x4
    assert accepted[3, 2] and accepted[4, 3]


class _ReferenceTracker:
    """The interpreted all-minors check that `MinorTracker`'s generated row
    kernels replace: the same plan walked item by item, the same hook calls."""

    def __init__(self, ring, k, exact=None):
        self.k = k
        self.nrows = 0
        self._dets = {}
        self._mul = ring.mul_rows()
        self._units = ring.unit_flags()
        self._exact = exact

    def add_row(self, row, j):
        k = self.k
        self.nrows = j + 1
        dets = self._dets
        units = self._units
        mul = self._mul
        exact = self._exact
        for e in row:
            if not units[e]:
                if exact is None or any(exact(1 << j, 1 << c)
                                        for c in range(k) if not units[row[c]]):
                    return False
                break
        entry_keys, minors = _minor_plan(k, j)
        dets.update(zip(entry_keys, row))
        for rm, cm, key, items in minors:
            acc = 0
            for c, sub in items:
                e = row[c]
                if e:
                    acc ^= mul[e][dets[sub]]
            if not units[acc]:
                if exact is None or exact(rm, cm):
                    return False
            dets[key] = acc
        return True

    def minors(self):
        return self._dets

    def full_det(self):
        if self.nrows != self.k:
            raise ValueError("full determinant needs k rows")
        full = (1 << self.k) - 1
        return self._dets[full << self.k | full]


@pytest.mark.parametrize("k, examples", [(1, 40), (2, 80), (3, 120), (4, 120), (5, 80), (6, 40)])
def test_row_kernels_match_the_interpreted_reference(k, examples):
    # a ring with zero divisors, a small field and GF(2^8), with and without
    # a deterministic exact hook; the writes follow a depth-first search:
    # mostly one row deeper than the rows accepted so far, else back to a
    # lower row, never above them
    @settings(max_examples=examples, deadline=None)
    @given(st.sampled_from(["x^8+x^2+1", "x^4+x+1", "x^8+x^4+x^3+x+1"]), st.booleans(),
           st.integers(1, 40), st.randoms(use_true_random=False))
    def check(modulus, hooked, nwrites, rnd):
        r = ring(modulus)
        top = (1 << r.n) - 1
        calls, ref_calls = [], []

        def hook(log):
            def exact(rowmask, colmask):
                log.append((rowmask, colmask))
                return (rowmask * 5 + colmask) % 3 == 0
            return exact if hooked else None

        tracker = MinorTracker(r, k, hook(calls))
        ref = _ReferenceTracker(r, k, hook(ref_calls))
        accepted = 0
        for _ in range(nwrites):
            j = min(accepted if rnd.random() < 0.7 else rnd.randrange(accepted + 1), k - 1)
            row = tuple(0 if rnd.random() < 0.06 else rnd.randint(1, top) for _ in range(k))
            ok = tracker.add_row(row, j)
            assert ok == ref.add_row(row, j)
            assert calls == ref_calls
            accepted = j + 1 if ok else j
            if ok:
                assert _current(tracker, k, j) == _current(ref, k, j)
            if ok and j == k - 1:
                assert tracker.full_det() == ref.full_det()
            elif j != k - 1:
                for t in (tracker, ref):
                    with pytest.raises(ValueError):
                        t.full_det()

    check()


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_no_hook_rejects_as_a_hook_that_always_says_zero(k):
    # a tracker without a hook rejects every non-unit minor with no call:
    # the same verdicts, minors and determinant as one whose hook says
    # every non-unit minor is zero, over depth-first writes as in a search
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["x^8+x^2+1", "x^4+x+1", "x^8+x^4+x^3+x+1"]),
           st.integers(1, 40), st.randoms(use_true_random=False))
    def check(modulus, nwrites, rnd):
        r = ring(modulus)
        top = (1 << r.n) - 1
        bare, hooked = MinorTracker(r, k), MinorTracker(r, k, lambda rowmask, colmask: True)
        accepted = 0
        for _ in range(nwrites):
            j = min(accepted if rnd.random() < 0.7 else rnd.randrange(accepted + 1), k - 1)
            row = tuple(0 if rnd.random() < 0.06 else rnd.randint(1, top) for _ in range(k))
            ok = bare.add_row(row, j)
            assert ok == hooked.add_row(row, j)
            accepted = j + 1 if ok else j
            if ok:
                assert _current(bare, k, j) == _current(hooked, k, j)
                if j == k - 1:
                    assert bare.full_det() == hooked.full_det()

    check()


def test_row_kernels_are_built_on_first_write():
    # a check that stops at row 0 generates no kernel for the rows above it,
    # so an input of large k rejected early costs no compile
    blockmat._row_kernel.cache_clear()
    r = ring("x^8+x^4+x^3+x+1")
    assert not is_mds(BlockMatrix(r, [[0] + [1] * 8] + [[1] * 9] * 8))
    assert blockmat._row_kernel.cache_info().currsize == 1
    blockmat._row_kernel(9, 0)
    assert blockmat._row_kernel.cache_info().hits == 1


@pytest.fixture
def one_minor_pieces(monkeypatch):
    """Row kernels of one minor per piece, built for this test only."""
    monkeypatch.setattr(blockmat, "_PIECE", 1)
    blockmat._row_kernel.cache_clear()
    yield
    blockmat._row_kernel.cache_clear()


def test_row_kernels_run_their_pieces_in_a_loop(one_minor_pieces):
    # one minor per piece: row 6 of a 7x7 matrix runs 1,716 pieces, more
    # than the recursion limit would allow as a chain of calls
    r = ring("x^8+x^4+x^3+x+1")
    cauchy = [[r.inv(i ^ (7 + j)) for j in range(7)] for i in range(7)]
    rng = random.Random(3)
    for last in [cauchy[6]] + [[rng.randrange(256) for _ in range(7)] for _ in range(5)]:
        rows = cauchy[:6] + [last]
        tracker, ref = MinorTracker(r, 7), _ReferenceTracker(r, 7)
        ok = all(tracker.add_row(row, j) for j, row in enumerate(rows))
        assert ok == all(ref.add_row(row, j) for j, row in enumerate(rows))
        assert ok == (last is cauchy[6])
        if ok:
            assert tracker.full_det() == ref.full_det()


def test_packed_rows_match_ring_mul():
    # every ring width, 1 to 8 bits an entry, in one byte each
    rng = random.Random(7)
    for modulus in ("x+1", "x^3+x+1", "x^4+x+1", "x^8+x^2+1"):
        r = ring(modulus)
        scale, unpack, units = packed_rows(r, 4)
        assert len(set(units)) == 4
        assert all(u > 0 and u & (u - 1) == 0 for u in units)
        for _ in range(50):
            row = tuple(rng.randrange(1 << r.n) for _ in range(4))
            packed = sum(e * u for e, u in zip(row, units))
            s = rng.randrange(1 << r.n)
            assert unpack(packed) == bytes(row)
            assert unpack(scale(packed, s)) == bytes(r.mul(s, e) for e in row)


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


def _canonical_key_reference(m):
    """canonical_key by flattening every candidate: for each column
    permutation, permute every row, sort the rows and flatten them; the
    least flattening."""
    best = None
    for cperm in permutations(range(m.k)):
        permuted = sorted(tuple(row[c] for c in cperm) for row in m.rows)
        flat = tuple(v for row in permuted for v in row)
        if best is None or flat < best:
            best = flat
    return best


@st.composite
def _square_matrices(draw):
    """A k x k matrix over x^4+x+1, k = 1..6; a small entry range makes
    equal rows and columns, whose ties the sort must break the same way."""
    k = draw(st.integers(1, 6))
    top = draw(st.sampled_from([1, 2, 15]))
    rows = draw(st.lists(st.lists(st.integers(0, top), min_size=k, max_size=k),
                         min_size=k, max_size=k))
    return BlockMatrix(ring("x^4+x+1"), rows)


@settings(max_examples=150, deadline=None)
@given(_square_matrices())
def test_canonical_key_matches_the_flattening_reference(m):
    assert canonical_key(m) == _canonical_key_reference(m)


def test_involutory_reference_entries(r8):
    cat = catalogs.load_catalog("involutory_4x4")
    assert len(cat) == 18
    for e in cat:
        assert is_involutory(e.matrix) and is_mds(e.matrix)
    assert is_involutory(BlockMatrix.identity(r8, 4))


def test_permute_and_scale():
    # row i of the result is scalar_i times row perm[i], scaled as packed rows
    r = ring("x^8+x^2+1")
    entry = catalogs.load_catalog("cost67_4x4")[0]
    m = entry.matrix
    scale, unpack, units = packed_rows(r, 4)

    def permute_and_scale(perm, scalars):
        packed = [sum(e * u for e, u in zip(row, units)) for row in m.rows]
        return BlockMatrix(r, tuple(unpack(scale(packed[p], s)) for p, s in zip(perm, scalars)))

    assert permute_and_scale((0, 1, 2, 3), (1, 1, 1, 1)) == m
    shuffled = permute_and_scale((2, 3, 0, 1), (2, 1, 1, r.inv(2)))
    assert shuffled.rows[0] == tuple(r.mul(2, e) for e in m.rows[2])
    assert is_mds(shuffled)
    # a row scalar that is not a unit has no inverse and breaks MDS
    zd = r.parse_element("a^4+a+1")
    with pytest.raises(NonUnitError):
        r.inv(zd)
    assert not is_mds(permute_and_scale((0, 1, 2, 3), (zd, 1, 1, 1)))


def test_squares_to_identity_matches_matrix_product():
    rng = random.Random(5)
    for modulus in ("x^2+x+1", "x^4+x+1"):
        r = ring(modulus)
        mul = r.mul_rows()
        for k in (1, 2, 3):
            for _ in range(300):
                rows = tuple(tuple(rng.randrange(1 << r.n) for _ in range(k))
                             for _ in range(k))
                square = tuple(tuple(_dot(r, rows[i], [row[l] for row in rows])
                                     for l in range(k)) for i in range(k))
                identity = BlockMatrix.identity(r, k).rows
                assert squares_to_identity(rows, mul) == (square == identity)
                assert is_involutory(BlockMatrix(r, rows)) == (square == identity)
    # swapping rows of the identity gives an involution
    r = ring("x^4+x+1")
    assert squares_to_identity(((0, 1, 0), (1, 0, 0), (0, 0, 1)), r.mul_rows())


def _dot(r, u, v) -> int:
    acc = 0
    for a, b in zip(u, v):
        acc ^= r.mul(a, b)
    return acc


def test_matrix_text_round_trip():
    m = matrix_from_text(AES_TEXT)
    assert matrix_to_text(m) == AES_TEXT
    assert matrix_from_text(matrix_to_text(m)) == m
