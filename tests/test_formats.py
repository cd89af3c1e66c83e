"""Bit-exact round trips for every text format."""

import pytest

from mdsforge import catalogs
from mdsforge.gf2 import FormatError
from mdsforge.blockmat import matrix_from_text, matrix_to_text
from mdsforge.instantiate import catalog_from_text, catalog_to_text
from mdsforge.slp import slp_from_text, slp_to_text
from mdsforge.treesearch import tree_from_text, tree_to_text


def test_slp_round_trip_all_bundled():
    import os
    for name in ("demo_cost49", "aes_mixcolumns", "bitlevel_balanced", "bitlevel_sequential"):
        text = open(catalogs.data_path("slp", name + ".slp")).read()
        p = slp_from_text(text)
        emitted = slp_to_text(p)
        assert slp_from_text(emitted) == p
        assert slp_to_text(slp_from_text(emitted)) == emitted


def test_matrix_round_trip_from_catalogs():
    for e in catalogs.load_catalog("cost67_4x4")[:3]:
        text = matrix_to_text(e.matrix)
        assert matrix_from_text(text) == e.matrix
        assert matrix_to_text(matrix_from_text(text)) == text


def test_matrix_with_rep_and_cost_model_round_trip():
    e = catalogs.load_catalog("construction_5x5")[0]
    text = matrix_to_text(e.matrix)
    assert "rep " in text and "cost chained" in text
    m = matrix_from_text(text)
    assert m == e.matrix
    assert m.ring.scalar_cost_model == "chained"


def test_tree_round_trip():
    for name in [f"4x4_tree{i}.txt" for i in range(1, 9)] + ["5x5_tree.txt", "6x6_tree.txt"]:
        text = open(catalogs.data_path("trees", name)).read()
        t = tree_from_text(text)
        assert tree_to_text(t) == text


def test_catalog_round_trip_all():
    for name in ("cost67_4x4", "cost67_4x4_conjugates", "cost35_4x4",
                 "involutory_4x4", "depth4_4x4", "depth3_4x4",
                 "construction_5x5", "construction_6x6"):
        entries = catalogs.load_catalog(name)
        text = catalog_to_text(entries)
        assert list(catalog_from_text(text)) == list(entries)
        assert catalog_to_text(catalog_from_text(text)) == text


def test_matrix_parse_errors_carry_line_numbers():
    with pytest.raises(FormatError) as e:
        matrix_from_text("ring x^4+x+1 k 2\na,1\n")
    assert "line" in str(e.value)
    with pytest.raises(FormatError):
        matrix_from_text("ring x^4+x+1 k 2\na,1\nb,1\n")
    with pytest.raises(FormatError):
        slp_from_text("ring x^4+x+1 inputs 2\nt1 = x1 + x5\nout y1 = t1\nout y2 = x2\n")
