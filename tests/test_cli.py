import os

import pytest

from mdsforge import catalogs
from mdsforge.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_search_trees_k2(capsys):
    code, out, _ = run(capsys, "search-trees", "--k", "2")
    assert code == 0
    assert "min capacity 2" in out and "(1,1)" in out


def test_search_trees_not_found(capsys):
    code, out, _ = run(capsys, "search-trees", "--k", "4", "--capacity", "7")
    assert code == 2
    assert "no tree found" in out


def test_search_trees_usage(capsys):
    code, _, err = run(capsys, "search-trees", "--k", "9")
    assert code == 64 and "usage error" in err


def test_cost_depth_canon(capsys):
    demo = catalogs.data_path("slp", "demo_cost49.slp")
    assert run(capsys, "cost", demo)[:2] == (0, "49\n")
    aes = catalogs.data_path("slp", "aes_mixcolumns.slp")
    assert run(capsys, "cost", aes)[:2] == (0, "108\n")
    bal = catalogs.data_path("slp", "bitlevel_balanced.slp")
    assert run(capsys, "depth", bal)[:2] == (0, "2\n")
    seq = catalogs.data_path("slp", "bitlevel_sequential.slp")
    assert run(capsys, "depth", seq)[:2] == (0, "3\n")
    code, out, _ = run(capsys, "canon", demo)
    assert code == 0 and out.startswith("ring x^8+x^2+1 k 4\n")


def test_verify_bundled_catalogs(capsys):
    for name in ("cost67_4x4", "cost35_4x4", "involutory_4x4",
                 "depth4_4x4", "depth3_4x4",
                 "construction_5x5", "construction_6x6"):
        code, out, _ = run(capsys, "verify", catalogs.data_path("catalogs", name + ".catalog"))
        assert code == 0, name
        assert "FAIL" not in out


def test_verify_reports_tampering(tmp_path, capsys):
    text = open(catalogs.data_path("catalogs", "depth3_4x4.catalog")).read()
    bad = text.replace("\ncost 77", "\ncost 76", 1)
    path = tmp_path / "bad.catalog"
    path.write_text(bad)
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "FAIL" in out


def test_verify_detects_broken_scalar(tmp_path, capsys):
    # swapping a scalar for the zero divisor must surface as an MDS failure
    text = open(catalogs.data_path("catalogs", "depth3_4x4.catalog")).read()
    entry = text.split("\n\n")[1]
    tampered = entry.replace("a^7+a*", "a^4+a+1*", 1)
    assert tampered != entry
    path = tmp_path / "tampered.catalog"
    path.write_text(tampered + "\n")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "mds" in out or "matrix" in out


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "junk.slp"
    path.write_text("ring x^8+x^2+1 inputs 4\nt1 = x1 +\n")
    code, _, err = run(capsys, "cost", str(path))
    assert code == 65
    assert "parse error" in err


def test_missing_file_is_parse_error(capsys):
    code, _, err = run(capsys, "verify", "/no/such/file")
    assert code == 65


def test_catalog_lists_data(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert "cost67_4x4.catalog" in out


def test_assign_small(tmp_path, capsys):
    tree = catalogs.data_path("trees", "4x4_tree1.txt")
    out_file = tmp_path / "cat.catalog"
    code, out, _ = run(capsys, "assign", "--tree", tree, "--ring", "x^8+x^2+1",
                       "--values", "a^-3..a^3", "--cost-bound", "67",
                       "--out", str(out_file))
    assert code == 0
    code, out, _ = run(capsys, "verify", str(out_file))
    assert code == 0


def test_assign_bound_too_low(capsys):
    tree = catalogs.data_path("trees", "4x4_tree1.txt")
    code, out, _ = run(capsys, "assign", "--tree", tree, "--ring", "x^8+x^2+1",
                       "--cost-bound", "66")
    assert code == 2


def test_threads_env(capsys, monkeypatch):
    monkeypatch.setenv("MDSFORGE_THREADS", "2")
    code, out, _ = run(capsys, "search-trees", "--k", "3")
    assert code == 0 and "min capacity 5" in out


def test_cli_determinism(capsys):
    a = run(capsys, "search-trees", "--k", "3")
    b = run(capsys, "search-trees", "--k", "3", "--threads", "2")
    assert a[1] == b[1]


@pytest.mark.parametrize("header", [
    "ring x^8+x^2+1 rep k 4",
    "ring x^8+x^2+1 cost k 4",
    "ring x^8+x^2+1 rep zz k 4",
    "ring x^y k 4",
])
def test_verify_bad_ring_header_is_parse_error(tmp_path, capsys, header):
    path = tmp_path / "bad.matrix"
    path.write_text(header + "\n" + "1,1,1,1\n" * 4)
    code, _, err = run(capsys, "verify", str(path))
    assert code == 65
    assert "parse error: line 1:" in err


def test_bad_ring_modulus_is_usage_error(capsys):
    code, _, err = run(capsys, "involutory", "--ring", "x^8")
    assert code == 64
    assert "usage error" in err and "x^8" in err


@pytest.mark.parametrize("value", ["0", "-2"])
def test_threads_below_one_is_usage_error(capsys, monkeypatch, value):
    code, _, err = run(capsys, "search-trees", "--k", "2", "-j", value)
    assert code == 64 and "usage error" in err
    monkeypatch.setenv("MDSFORGE_THREADS", value)
    code, _, err = run(capsys, "search-trees", "--k", "2")
    assert code == 64 and "usage error" in err


def test_verify_bundled_trees(capsys):
    for i in range(1, 9):
        path = catalogs.data_path("trees", f"4x4_tree{i}.txt")
        code, out, _ = run(capsys, "verify", path)
        assert code == 0, path
        assert out.startswith("tree k 4: capacity 8 type (") and out.endswith(".. ok\n")
    code, out, _ = run(capsys, "verify", catalogs.data_path("trees", "4x4_tree1.txt"))
    assert out == "tree k 4: capacity 8 type (3,3,1,1) depth 6 symbolic mds 1 .. ok\n"
    for name in ("5x5_tree.txt", "6x6_tree.txt"):
        assert run(capsys, "verify", catalogs.data_path("trees", name))[0] == 0


def test_verify_tree_with_cancelling_minor_fails(tmp_path, capsys):
    # y1 and y2 both combine x3 with u = T1, which spans x1 and x2: the 2x2
    # minor of y1, y2 on x1, x2 is p4*p6*(p1*p2 + p2*p1) = 0 mod 2
    path = tmp_path / "bad_tree.txt"
    path.write_text("type (2,1,1)\nT1 = T-1 + T0\nT2 = T-2 + T1\nout y1 = T2\n"
                    "T3 = T-2 + T1\nout y2 = T3\nT4 = T2 + T3\nout y3 = T4\n")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert out.startswith("tree k 3: capacity 4 type (2,1,1) depth 3 symbolic mds 0 .. FAIL")


@pytest.mark.parametrize("body", [
    "type (3,3,1,1)\nT1 = Tx + T0\n",
    "type (a,1)\nT1 = T-1 + T0\n",
])
def test_tree_file_bad_integer_is_parse_error(tmp_path, capsys, body):
    path = tmp_path / "bad_tree.txt"
    path.write_text(body)
    code, _, err = run(capsys, "assign", "--tree", str(path), "--ring", "x^8+x^2+1",
                       "--cost-bound", "67")
    assert code == 65
    assert "parse error: line " in err


def test_assign_threads(capsys):
    argv = ["assign", "--all-trees", "--ring", "x^8+x^2+1", "--cost-bound", "67"]
    serial = run(capsys, *argv, "-j", "1")
    assert serial[0] == 0 and "60 equivalence classes" in serial[1]
    assert run(capsys, *argv, "-j", "2") == serial
    code, _, err = run(capsys, *argv, "-j", "0")
    assert code == 64 and "usage error" in err
