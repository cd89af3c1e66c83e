import pickle
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from mdsforge.gf2 import (
    MAX_DEGREE,
    BitMatrix,
    FormatError,
    NonUnitError,
    QuotientRing,
    companion,
    is_invertible,
    poly_parse,
    poly_text,
    rank,
    ring,
    xor_count,
)


def _from_bits(bits) -> BitMatrix:
    """BitMatrix from 0/1 row lists, entry (i, j) at bit j of row i."""
    return BitMatrix(tuple(sum(v << j for j, v in enumerate(row)) for row in bits),
                     len(bits[0]))


def _xor(*ms: BitMatrix) -> BitMatrix:
    """Entrywise sum over GF(2) of equally shaped matrices."""
    rows = [0] * ms[0].nrows
    for m in ms:
        rows = [r ^ s for r, s in zip(rows, m.rows)]
    return BitMatrix(tuple(rows), ms[0].cols)


def test_companion_x8_x2_1_matches_reference():
    C = companion(poly_parse("x^8+x^2+1"))
    # subdiagonal of ones; last column set in rows 1 and 3 (1-based)
    expected = _from_bits([
        [0, 0, 0, 0, 0, 0, 0, 1],
        [1, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 1],
        [0, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 0],
    ])
    assert C == expected
    assert xor_count(C) == 1


def test_companion_degree_one():
    assert companion(poly_parse("x+1")) == BitMatrix((1,), 1)


def test_degree_one_ring_has_no_alpha():
    # F2 = F2[x]/(x+1) carries bit-level programs; alpha, the residue x,
    # would be the int 2, which is no residue there
    assert poly_parse("x+1") == 3 and poly_text(3) == "x+1"
    r = ring("x+1")
    assert r.n == 1 and r.parse_element("1+0") == 1
    for text in ("a", "a^2", "1+a^-1"):
        with pytest.raises(FormatError, match="no alpha in a ring of degree 1"):
            r.parse_element(text)
    for call in (r.alpha_order, lambda: r.alpha_pow(1), lambda: r.alpha_pow(0)):
        with pytest.raises(ValueError, match="no alpha in a ring of degree 1"):
            call()
    assert r.power_of_alpha(1) == 0 and r.power_of_alpha(0) is None


def test_degree_above_limit_is_refused():
    # every ring builds 2^n x 2^n tables, so x^9+x^4+1 would build 512 x 512
    assert MAX_DEGREE == 8
    with pytest.raises(ValueError, match="modulus degree 9 exceeds the degree limit 8"):
        ring(0x211)
    with pytest.raises(FormatError, match="exceeds the degree limit 8"):
        poly_parse("x^9+x^4+1")
    assert ring(poly_parse("x^8+x^4+x^3+x+1")).n == 8


def test_companion_satisfies_modulus():
    p = poly_parse("x^4+x+1")
    C = companion(p)
    z = _xor(C * C * C * C, C, BitMatrix.identity(4))
    assert all(r == 0 for r in z.rows)
    assert is_invertible(C)


def test_companion_rejects_even_constant_term():
    with pytest.raises(ValueError):
        companion(poly_parse("x^3+x"))


def test_xor_count_basics():
    assert xor_count(BitMatrix.identity(8)) == 0
    assert xor_count(companion(poly_parse("x^8+x^4+x^3+x+1"))) == 3
    m = companion(poly_parse("x^8+x^2+1"))
    shuffled = BitMatrix(tuple(m.rows[::-1]), 8)
    assert xor_count(shuffled) == xor_count(m)


def test_rank_and_invertibility():
    assert rank(BitMatrix((0, 0, 0), 3)) == 0
    assert not is_invertible(BitMatrix((0, 0, 0), 3))
    assert rank(BitMatrix.identity(8)) == 8
    assert is_invertible(companion(poly_parse("x^8+x^2+1")))


def test_ring_relation_and_zero_divisor(ring_pow):
    r = ring("x^8+x^2+1")
    a8 = ring_pow(r, 2, 8)
    assert a8 == r.parse_element("a^2+1")
    zd = r.parse_element("a^4+a+1")
    assert not r.is_unit(zd)
    with pytest.raises(NonUnitError):
        r.inv(zd)
    assert r.mul(r.inv(2), 2) == 1


def test_inverse_of_alpha_over_x4():
    r = ring("x^4+x+1")
    inv = r.inv(2)
    assert inv == r.parse_element("a^3+1")
    assert r.scalar_xor_count(inv) == 1


def test_element_matrix_is_homomorphism():
    rng = random.Random(7)
    for modulus in ("x^8+x^2+1", "x^4+x+1", "x^3+x+1"):
        r = ring(modulus)
        for _ in range(50):
            a = rng.randrange(1 << r.n)
            b = rng.randrange(1 << r.n)
            ma, mb = r.element_matrix_int(a), r.element_matrix_int(b)
            assert r.element_matrix_int(r.mul(a, b)) == ma * mb
            assert r.element_matrix_int(a ^ b) == _xor(ma, mb)


def test_unit_iff_gcd_one():
    r = ring("x^8+x^2+1")
    for a in range(1, 256):
        assert r.is_unit(a) == is_invertible(r.element_matrix_int(a))


def test_element_matrix_alpha_is_companion():
    for modulus in ("x^8+x^2+1", "x^4+x+1"):
        r = ring(modulus)
        assert r.element_matrix_int(2) == companion(r.modulus)
        assert r.element_matrix_int(1) == BitMatrix.identity(r.n)


def test_ring_pow_negative(ring_pow):
    r = ring("x^4+x+1")
    assert r.alpha_pow(-3) == r.inv(r.alpha_pow(3)) == ring_pow(r, 2, -3)


def test_poly_text_round_trip():
    for s in ("x^8+x^2+1", "x^4+x+1", "x+1", "1", "0", "x^8+x^6+x^5+x^3+1"):
        assert poly_text(poly_parse(s)) == s


def test_element_text_round_trip_and_sugar():
    r = ring("x^8+x^2+1")
    for v in range(256):
        assert r.parse_element(r.element_text(v)) == v
    assert r.parse_element("a^-1") == r.inv(2)
    assert r.parse_element("a^-1+1+a^2") == r.inv(2) ^ 1 ^ 4


def test_custom_representation_and_chained_cost(ring_pow):
    rep = BitMatrix((0x82, 0x01, 0x12, 0x04, 0x08, 0x10, 0x20, 0x40), 8)
    r = QuotientRing(poly_parse("x^8+x^6+x^5+x^3+1"), rep=rep,
                     scalar_cost_model="chained")
    assert xor_count(rep) == 2
    for e in (1, -1, 2, -2, 3, -3):
        assert r.scalar_xor_count(ring_pow(r, 2, e)) == 2 * abs(e)
    # alpha has order 255: a^17 is a power of alpha past the chained
    # model's reach, priced by its row weight
    assert r.alpha_order() == 255
    assert r.scalar_xor_count(r.alpha_pow(16)) == 32
    a17 = r.alpha_pow(17)
    assert r.power_of_alpha(a17) == 17
    assert r.scalar_xor_count(a17) == xor_count(r.element_matrix_int(a17)) == 14
    with pytest.raises(ValueError):
        QuotientRing(poly_parse("x^8+x^2+1"), rep=rep)  # wrong minimal polynomial


def _min_poly(m: BitMatrix) -> int:
    """Reference: the minimal polynomial of a square GF(2) matrix, the
    least d with I, m, .., m^d dependent and the combination that vanishes."""
    n = m.nrows
    powers = [BitMatrix.identity(n)]
    for _ in range(n):
        powers.append(powers[-1] * m)
    flat = [sum(p.rows[i] << (i * n) for i in range(n)) for p in powers]
    basis: list[tuple[int, int]] = []  # (reduced vector, combination bitmask)
    for d, v in enumerate(flat):
        comb = 1 << d
        for bv, bc in basis:
            if (v ^ bv).bit_length() < v.bit_length():
                v ^= bv
                comb ^= bc
        if v == 0:
            return comb
        basis.append((v, comb))
        basis.sort(key=lambda t: -t[0])
    raise AssertionError("minimal polynomial search failed")


@st.composite
def _reps(draw):
    """(rows of a random n x n matrix, n from 1 to 6, and a random modulus
    of degree n with constant term 1)."""
    n = draw(st.integers(1, 6))
    rows = tuple(draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)))
    return rows, 1 << n | draw(st.integers(0, (1 << n - 1) - 1)) << 1 | 1


@settings(max_examples=300, deadline=None)
@given(_reps())
# block diagonal with two copies of the companion of x^4+x+1: x^8+x^2+1 =
# (x^4+x+1)^2 annihilates it, but its minimal polynomial is x^4+x+1
@example(((0x08, 0x09, 0x02, 0x04, 0x80, 0x90, 0x20, 0x40), poly_parse("x^8+x^2+1")))
def test_rep_is_accepted_iff_the_modulus_is_its_minimal_polynomial(case):
    rows, modulus = case
    rep = BitMatrix(rows, len(rows))
    n = len(rows)
    own = _min_poly(rep)
    for p in {modulus, own}:
        if p.bit_length() - 1 != n or not p & 1:
            continue  # another size, or no ring: rejected before the rep is read
        try:
            QuotientRing(p, rep)
        except ValueError as e:
            assert str(e) == "representation matrix does not satisfy the modulus"
            assert own != p
        else:
            assert own == p


def test_rings_pickle_as_their_shared_instance():
    from mdsforge.blockmat import parse_ring_header
    from mdsforge.catalogs import HIGHER_REP_ROWS, higher_order_ring

    rep_text = ",".join(f"{v:02x}" for v in HIGHER_REP_ROWS)
    parsed = parse_ring_header(["x^8+x^6+x^5+x^3+1", "rep", rep_text, "cost", "chained"])
    for r in (ring("x^8+x^2+1"), higher_order_ring(), parsed):
        assert pickle.loads(pickle.dumps(r)) is r
    assert parsed is higher_order_ring()
    # the companion matrix given explicitly is the default representation
    r8 = ring("x^8+x^2+1")
    assert ring(r8.modulus, r8.rep.rows) is r8 is ring(poly_parse("x^8+x^2+1"))
    assert r8.key == (poly_parse("x^8+x^2+1"), None, "rowweight")


def test_cached_ring_methods_match_a_recomputation():
    # a ring's method caches are keyed by the ring: one that served a table
    # or a price of one ring to another, such as the higher-order ring's
    # other cost model, fails here
    from mdsforge.catalogs import HIGHER_REP_ROWS, RING_HIGHER

    rings = [ring(m) for m in ("x+1", "x^4+x+1", "x^8+x^2+1", "x^8+x^4+x^3+x+1")]
    rings += [ring(RING_HIGHER, HIGHER_REP_ROWS, cost) for cost in ("chained", "rowweight")]
    for r in rings:
        assert r.mul_bytes() == QuotientRing.mul_bytes.__wrapped__(r)
        assert r.unit_flags() == QuotientRing.unit_flags.__wrapped__(r)
        for a in range(1 << r.n):
            assert r.element_matrix_int(a) == QuotientRing.element_matrix_int.__wrapped__(r, a)
            assert r.scalar_xor_count(a) == QuotientRing.scalar_xor_count.__wrapped__(r, a)
    chained, rowweight = rings[-2:]
    assert any(chained.scalar_xor_count(a) != rowweight.scalar_xor_count(a) for a in range(256))


def _poly_mul(a: int, b: int) -> int:
    """Reference: the product of GF(2) polynomials a and b, shift and add."""
    c = 0
    while b:
        if b & 1:
            c ^= a
        a <<= 1
        b >>= 1
    return c


def _poly_mod(a: int, m: int) -> int:
    """Reference: a modulo the nonzero GF(2) polynomial m, by long division."""
    dm = m.bit_length()
    while a.bit_length() >= dm:
        a ^= m << (a.bit_length() - dm)
    return a


@pytest.mark.parametrize("modulus", ["x^8+x^2+1", "x^4+x+1", "x^8+x^6+x^5+x^3+1"])
def test_mul_table_matches_polynomial_product(modulus):
    p = poly_parse(modulus)
    n = p.bit_length() - 1
    want = [[_poly_mod(_poly_mul(a, b), p) for b in range(1 << n)] for a in range(1 << n)]
    assert ring(modulus).mul_rows() == want


@pytest.mark.parametrize("modulus", ["x^8+x^2+1", "x^4+x+1", "x^2+1", "x^4+x^3+x^2+x+1",
                                     "higher-order"])
def test_ring_facts_match_the_arithmetic(modulus, ring_pow):
    # every element fact read from the ring's tables against square and
    # multiply (ring_pow) and a brute-force least-|e| scan
    from mdsforge.catalogs import higher_order_ring

    r = higher_order_ring() if modulus == "higher-order" else ring(modulus)
    for e in range(-40, 41):
        assert r.alpha_pow(e) == ring_pow(r, 2, e)
    order = next(e for e in range(1, 1 << r.n) if ring_pow(r, 2, e) == 1)
    assert r.alpha_order() == order
    least = {}  # value: its exponent of least |e|, the positive one on a tie
    for m in range(order):
        for e in (m, -m):
            least.setdefault(ring_pow(r, 2, e), e)
    for v in range(1 << r.n):
        assert r.power_of_alpha(v) == least.get(v), v
        if r.is_unit(v):
            assert r.mul(v, r.inv(v)) == 1
        else:
            with pytest.raises(NonUnitError):
                r.inv(v)
