import pickle
import random
from itertools import combinations, permutations

import pytest

from mdsforge.blockmat import BlockMatrix, is_mds, packed_rows
from mdsforge.gf2 import (
    BitMatrix,
    FormatError,
    NonUnitError,
    QuotientRing,
    companion,
    is_invertible,
    poly_gcd,
    poly_mod,
    poly_mul,
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


def test_ring_relation_and_zero_divisor():
    r = ring("x^8+x^2+1")
    a8 = r.pow(2, 8)
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


def test_ring_pow_negative():
    r = ring("x^4+x+1")
    assert r.pow(2, -3) == r.inv(r.pow(2, 3))


def test_poly_text_round_trip():
    for s in ("x^8+x^2+1", "x^4+x+1", "x+1", "1", "0", "x^8+x^6+x^5+x^3+1"):
        assert poly_text(poly_parse(s)) == s


def test_element_text_round_trip_and_sugar():
    r = ring("x^8+x^2+1")
    for v in range(256):
        assert r.parse_element(r.element_text(v)) == v
    assert r.parse_element("a^-1") == r.inv(2)
    assert r.parse_element("a^-1+1+a^2") == r.inv(2) ^ 1 ^ 4


def test_custom_representation_and_chained_cost():
    rep = BitMatrix((0x82, 0x01, 0x12, 0x04, 0x08, 0x10, 0x20, 0x40), 8)
    r = QuotientRing(poly_parse("x^8+x^6+x^5+x^3+1"), rep=rep,
                     scalar_cost_model="chained")
    assert xor_count(rep) == 2
    for e in (1, -1, 2, -2, 3, -3):
        assert r.scalar_xor_count(r.pow(2, e)) == 2 * abs(e)
    with pytest.raises(ValueError):
        QuotientRing(poly_parse("x^8+x^2+1"), rep=rep)  # wrong minimal polynomial


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


@pytest.mark.parametrize("modulus", ["x^8+x^2+1", "x^4+x+1", "x^8+x^6+x^5+x^3+1"])
def test_mul_table_matches_polynomial_product(modulus):
    p = poly_parse(modulus)
    n = p.bit_length() - 1
    want = [[poly_mod(poly_mul(a, b), p) for b in range(1 << n)] for a in range(1 << n)]
    assert ring(modulus).mul_rows() == want


def _minors_are_units(r, rows) -> bool:
    """All-minors check by Leibniz determinants in polynomial arithmetic."""
    k = len(rows)
    for size in range(1, k + 1):
        for ri in combinations(range(k), size):
            for ci in combinations(range(k), size):
                det = 0
                for perm in permutations(ci):
                    term = 1
                    for i, c in zip(ri, perm):
                        term = poly_mod(poly_mul(term, rows[i][c]), r.modulus)
                    det ^= term
                if det == 0 or poly_gcd(det, r.modulus) != 1:
                    return False
    return True


@pytest.mark.parametrize("modulus", ["x^9+x^4+1", "x^9+1"])
def test_wide_ring_computes_products_and_units_on_use(modulus):
    # n = 9 is past the widest ring with built tables; x^9+x^4+1 is
    # irreducible, x^9+1 has zero divisors
    r = ring(modulus)
    p = r.modulus
    rng = random.Random(9)
    rows = r.mul_rows()
    for _ in range(200):
        a, b = rng.randrange(512), rng.randrange(512)
        assert rows[a][b] == r.mul(a, b) == poly_mod(poly_mul(a, b), p)
    flags = r.unit_flags()
    for a in range(512):
        assert flags[a] == r.is_unit(a) == (a != 0 and poly_gcd(a, p) == 1)
    scale, unpack = packed_rows(r, 3)
    for _ in range(50):
        row = tuple(rng.randrange(512) for _ in range(3))
        packed = sum(e << (9 * c) for c, e in enumerate(row))
        s = rng.randrange(512)
        assert unpack(packed) == row
        assert unpack(scale(packed, s)) == tuple(poly_mod(poly_mul(s, e), p) for e in row)


def test_wide_ring_is_mds():
    r = ring("x^9+x^4+1")
    rng = random.Random(9)
    verdicts = set()
    for _ in range(20):
        rows = [[rng.choice((1, 2, 3, rng.randrange(512))) for _ in range(3)] for _ in range(3)]
        mds = is_mds(BlockMatrix(r, rows))
        assert mds == _minors_are_units(r, rows)
        verdicts.add(mds)
    assert verdicts == {True, False}
