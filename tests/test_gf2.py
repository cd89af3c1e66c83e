import pickle
import random

import pytest

from mdsforge.gf2 import (
    BitMatrix,
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


def test_companion_x8_x2_1_matches_reference():
    C = companion(poly_parse("x^8+x^2+1"))
    # subdiagonal of ones; last column set in rows 1 and 3 (1-based)
    expected = BitMatrix.from_rows([
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


def test_companion_satisfies_modulus():
    p = poly_parse("x^4+x+1")
    C = companion(p)
    z = C.matpow(4) + C + BitMatrix.identity(4)
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
    assert rank(BitMatrix.zero(3, 3)) == 0
    assert not is_invertible(BitMatrix.zero(3, 3))
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
            assert r.element_matrix_int(a ^ b) == ma + mb


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
