import pytest

from mdsforge import catalogs
from mdsforge.gf2 import ring
from mdsforge.instantiate import involutory_search
from mdsforge.treesearch import search_at_capacity


def _ring_pow(r, a: int, e: int) -> int:
    """Reference: a^e in ring r by square and multiply, a^-e as the inverse's."""
    if e < 0:
        a = r.inv(a)
        e = -e
    acc = 1
    while e:
        if e & 1:
            acc = r.mul(acc, a)
        a = r.mul(a, a)
        e >>= 1
    return acc


@pytest.fixture(scope="session")
def ring_pow():
    return _ring_pow


@pytest.fixture(scope="session")
def r8():
    return ring("x^8+x^2+1")


@pytest.fixture(scope="session")
def r4():
    return ring("x^4+x+1")


@pytest.fixture(scope="session")
def r56():
    return catalogs.higher_order_ring()


@pytest.fixture(scope="session")
def trees8():
    return list(catalogs.simplest_trees_4x4())


@pytest.fixture(scope="session")
def cap7_classes():
    return search_at_capacity(4, 7)


@pytest.fixture(scope="session")
def cap8_classes():
    return search_at_capacity(4, 8)


@pytest.fixture(scope="session")
def cap9_depth3_classes():
    return search_at_capacity(4, 9, max_depth=3)


@pytest.fixture(scope="session")
def involutory_hits(trees8, r8):
    return involutory_search(trees8, r8, max_s=6, max_t=8, threads=2)
