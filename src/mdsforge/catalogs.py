"""Access to the bundled reference data (trees, catalogs, example programs)."""

from __future__ import annotations

import os
from functools import cache

from .gf2 import QuotientRing, ring
from .instantiate import CatalogEntry, catalog_from_text
from .slp import Slp, slp_from_text
from .treesearch import ImplTree, tree_from_text

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

RING_HIGHER = "x^8+x^6+x^5+x^3+1"

# 2-XOR representation of alpha used by the 5x5/6x6 constructions
HIGHER_REP_ROWS = (0x82, 0x01, 0x12, 0x04, 0x08, 0x10, 0x20, 0x40)


def data_path(*parts: str) -> str:
    return os.path.join(DATA_DIR, *parts)


def list_data_files() -> list[str]:
    out = []
    for root, _, files in os.walk(DATA_DIR):
        for f in sorted(files):
            out.append(os.path.join(root, f))
    return sorted(out)


def higher_order_ring() -> QuotientRing:
    return ring(RING_HIGHER, HIGHER_REP_ROWS, "chained")


@cache
def simplest_trees_4x4() -> tuple[ImplTree, ...]:
    """Trees 1..8; 1-5 of type (3,3,1,1), 6-8 of type (4,2,1,1).

    Trees 3 and 4 are the involution-capable skeletons.
    """
    return tuple(
        tree_from_text(_read(data_path("trees", f"4x4_tree{i}.txt")))
        for i in range(1, 9)
    )


@cache
def tree_5x5() -> ImplTree:
    return tree_from_text(_read(data_path("trees", "5x5_tree.txt")))


@cache
def load_catalog(name: str) -> tuple[CatalogEntry, ...]:
    """Bundled catalog by base name, e.g. "cost67_4x4"; parsing re-validates
    every stated header value against recomputation."""
    return tuple(catalog_from_text(_read(data_path("catalogs", name + ".catalog"))))


@cache
def load_slp(name: str) -> Slp:
    return slp_from_text(_read(data_path("slp", name + ".slp")))


def _read(path: str) -> str:
    with open(path, "r") as f:
        return f.read()
