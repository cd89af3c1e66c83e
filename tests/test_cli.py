import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mdsforge import catalogs
from mdsforge.cli import main
from mdsforge.treesearch import tree_from_text, tree_to_text


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


def test_missing_subcommand_or_tree_is_usage_error(capsys):
    code, out, err = run(capsys)
    assert (code, out) == (64, "")
    assert err == "usage error: the following arguments are required: COMMAND\n"
    code, out, err = run(capsys, "assign", "--ring", "x^4+x+1", "--cost-bound", "40")
    assert (code, out, err) == (64, "", "usage error: need --tree FILE or --all-trees\n")


def test_search_trees_out_writes_the_listed_trees(tmp_path, capsys):
    listing = run(capsys, "search-trees", "--k", "3")[1]
    head, _, body = listing.partition("\n")
    code, out, _ = run(capsys, "search-trees", "--k", "3", "--out", str(tmp_path))
    assert (code, out) == (0, f"{head}\nwrote 33 tree files to {tmp_path}\n")
    assert len(os.listdir(tmp_path)) == 33
    files = [(tmp_path / f"3x3_cap5_tree{i}.txt").read_text() for i in range(1, 34)]
    assert body == "".join("\n" + text for text in files)
    assert all(tree_to_text(tree_from_text(text)) == text for text in files)


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


@pytest.mark.parametrize("name, line", [
    ("aes_mixcolumns", "slp: cost 108 depth 4 mds 1 involutory 0"),
    ("bitlevel_balanced", "slp: cost 4 depth 2 mds 0 involutory 0"),
    ("bitlevel_sequential", "slp: cost 3 depth 3 mds 0 involutory 0"),
    ("demo_cost49", "slp: cost 49 depth 2 mds 0 involutory 0"),
])
def test_verify_bundled_programs(capsys, name, line):
    path = catalogs.data_path("slp", name + ".slp")
    assert run(capsys, "verify", path) == (0, line + "\n", "")


def test_verify_reports_tampering(tmp_path, capsys):
    text = Path(catalogs.data_path("catalogs", "depth3_4x4.catalog")).read_text()
    bad = text.replace("\ncost 77", "\ncost 76", 1)
    path = tmp_path / "bad.catalog"
    path.write_text(bad)
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "FAIL" in out


def test_verify_detects_broken_scalar(tmp_path, capsys):
    # swapping a scalar for the zero divisor must surface as an MDS failure
    text = Path(catalogs.data_path("catalogs", "depth3_4x4.catalog")).read_text()
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


def test_zero_scalar_is_parse_error(tmp_path, capsys):
    text = Path(catalogs.data_path("slp", "demo_cost49.slp")).read_text()
    path = tmp_path / "zero.slp"
    path.write_text(text.replace("t3 = t1 + a*x2", "t3 = t1 + 0*x2"))
    for cmd in ("cost", "verify"):
        code, _, err = run(capsys, cmd, str(path))
        assert code == 65
        assert "parse error: line 4: zero scalar" in err


def test_parse_errors_name_the_file_line(tmp_path, capsys):
    lines = Path(catalogs.data_path("catalogs", "depth3_4x4.catalog")).read_text().splitlines()
    assert lines[49] == "a^7+a,a,1,a^7+a"
    lines[49] = "zza,1,1,1"
    path = tmp_path / "bad.catalog"
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 65
    assert "parse error: line 50: bad element monomial 'zza'" in err
    # comments and blank lines count in matrix and program files too
    path = tmp_path / "bad.matrix"
    path.write_text("# comment\n\nring x^8+x^2+1 k 2\n1,1\n1,zz\n")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 65 and "parse error: line 5:" in err
    path = tmp_path / "bad.slp"
    path.write_text("# comment\nring x^8+x^2+1 inputs 2\n\nt1 = x1 + zz*x2\n")
    code, _, err = run(capsys, "cost", str(path))
    assert code == 65 and "parse error: line 4:" in err


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


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    # the path is checked by writing it, before any line reaches stdout
    taken = tmp_path / "taken"
    taken.write_text("")
    missing = tmp_path / "missing" / "x.catalog"
    for argv, path, reason in (
        (("search-trees", "--k", "2"), taken, "File exists"),
        (("assign", "--all-trees", "--ring", "x^4+x+1", "--cost-bound", "35"), missing,
         "No such file or directory"),
    ):
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert (code, out) == (64, "")
        assert err == f"usage error: cannot write {path}: {reason}\n"


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


@pytest.mark.parametrize("argv, digest, size", [
    (("--k", "4"),
     "d9853711c9f07437f98ef0030bc3a02fc5da0ba96d559ecf92da24cd8179a04e", 1447),
    (("--k", "3", "--capacity", "5"),
     "753021e41df41ced31db38a222be716f6925b02713c398aabe43963f1f02a0d9", 3963),
    (("--k", "3", "--capacity", "6"),
     "fa7b4ea6d6cf7573d941c422c54eea71af9aed62cc6b5d1660eb3056d1d1100d", 384493),
    (("--k", "4", "--capacity", "9", "--max-depth", "3"),
     "54b21fbba44513dc381632f4dcb997a5225027e01484d9077bf75abf4ef47475", 32062),
])
def test_search_trees_output_is_pinned(capsys, argv, digest, size):
    # the tree classes and their text, byte for byte and at any thread count:
    # SHA-256 and length of the whole stdout, the first three recorded before
    # the zero masks took in the entries, the last before ties between nodes
    # on the same operands went to the lower node number
    for threads in ("1", "2"):
        code, out, _ = run(capsys, "search-trees", *argv, "-j", threads)
        data = out.encode()
        assert (code, len(data), hashlib.sha256(data).hexdigest()) == (0, size, digest), threads


@pytest.mark.parametrize("argv, digest, size", [
    (("involutory", "--ring", "x^8+x^2+1", "--max-t", "5"),
     "adbd3e5bfbfe4aa1c830405eaccc6213824a95ae6c9fa024b6ad93a3e0372190", 3027),
    (("assign", "--all-trees", "--ring", "x^8+x^2+1", "--values", "a^-3..a^3",
      "--cost-bound", "68"),
     "6d48019d2747e5943c838f49118fa011799f4e1a15dc1f48a5f98208870b1fbc", 337253),
    (("assign", "--all-trees", "--ring", "x^4+x+1", "--cost-bound", "37", "--depth-bound", "4"),
     "0b4b5d4ce1fc544b5f98dad5b9dc0414ec8b0014000e84fb4be11132098b13bf", 1306),
])
def test_assignment_outputs_are_pinned(capsys, argv, digest, size):
    # the assignment scans' hits and entries, byte for byte and at any
    # thread count: SHA-256 and length of the whole stdout, recorded before
    # the scans kept per-term tables of scaled rows
    for threads in ("1", "2"):
        code, out, _ = run(capsys, *argv, "-j", threads)
        data = out.encode()
        assert (code, len(data), hashlib.sha256(data).hexdigest()) == (0, size, digest), threads


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


@pytest.mark.parametrize("flag", ["--max-s", "--max-t"])
def test_negative_involutory_bound_is_usage_error(capsys, flag):
    code, out, err = run(capsys, "involutory", "--ring", "x^8+x^2+1", flag, "-1")
    assert (code, out) == (64, "")
    assert err == f"usage error: {flag} must be at least 0, got -1\n"


def test_involutory_with_no_scalar_finds_nothing(capsys):
    # with every scalar 1 no tree is MDS
    argv = ("involutory", "--ring", "x^8+x^2+1", "--max-s", "0", "--max-t", "0")
    assert run(capsys, *argv) == (2, "no involutory MDS matrix found\n", "")


@pytest.mark.parametrize("argv, flag", [
    (("search-trees", "--k", "3", "--capacity", "-2"), "--capacity"),
    (("search-trees", "--k", "3", "--max-capacity", "-1"), "--max-capacity"),
    (("search-trees", "--k", "3", "--capacity", "5", "--max-depth", "-1"), "--max-depth"),
    (("assign", "--all-trees", "--ring", "x^8+x^2+1", "--cost-bound", "-5"), "--cost-bound"),
    (("assign", "--all-trees", "--ring", "x^8+x^2+1", "--cost-bound", "70",
      "--depth-bound", "-1"), "--depth-bound"),
])
def test_negative_bound_is_usage_error(capsys, argv, flag):
    # a negative count, cost or depth is a usage error, not "not found"
    code, out, err = run(capsys, *argv)
    assert (code, out) == (64, "")
    assert err == f"usage error: {flag} must be at least 0, got {argv[argv.index(flag) + 1]}\n"


@pytest.mark.parametrize("argv", [
    ("assign", "--all-trees", "--ring", "x^y", "--cost-bound", "10"),
    ("assign", "--all-trees", "--ring", "x+1", "--cost-bound", "10"),
    ("involutory", "--ring", "x+1", "--max-t", "1"),
    ("involutory", "--ring", "x^9+x^4+1", "--max-t", "1"),
    ("involutory", "--ring", "x^65+x^2+1", "--max-t", "1"),
    ("involutory", "--ring", "x^10000000000+1", "--max-t", "1"),
])
def test_bad_ring_polynomial_is_usage_error(capsys, argv):
    # a malformed polynomial, a degree-1 modulus, where alpha = x is no
    # residue, and degrees above the limit
    code, out, err = run(capsys, *argv)
    assert code == 64 and out == ""
    assert "usage error: bad --ring " + repr(argv[argv.index("--ring") + 1]) in err


def test_ring_degree_above_limit_is_parse_error_with_its_line(tmp_path, capsys):
    # a ring of degree n builds 2^n x 2^n tables; words have at most 8 bits
    path = tmp_path / "big.matrix"
    path.write_text("ring x^9+x^4+1 k 1\n1\n")
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (65, "")
    assert err == "parse error: line 1: exponent in 'x^9' exceeds the degree limit 8\n"
    path.write_text("# a wide ring\nring x^10000000000+x^2+1 k 1\n1\n")
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (65, "")
    assert err.startswith("parse error: line 2: exponent in 'x^10000000000' exceeds")
    path.write_text("ring x^8+x^4+x^3+x+1 k 1\n1\n")
    assert run(capsys, "verify", str(path))[:2] == (0, "matrix k 1: mds 1 involutory 1\n")


def test_degree_one_ring_is_parse_error_where_alpha_is_needed(tmp_path, capsys):
    path = tmp_path / "x1.matrix"
    path.write_text("ring x+1 k 2\n1,1\n1,0\n")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 65 and out == ""
    assert "parse error: line 1: a matrix ring needs a modulus of degree >= 2" in err
    # bit-level programs over x+1 stay, as long as they use no alpha
    path = tmp_path / "x1.slp"
    path.write_text("ring x+1 inputs 2\nt1 = x1 + x2\nout y1 = t1\nout y2 = x2\n")
    assert run(capsys, "cost", str(path))[:2] == (0, "1\n")
    path.write_text("ring x+1 inputs 2\nt1 = a*x1 + x2\nout y1 = t1\nout y2 = x2\n")
    code, out, err = run(capsys, "cost", str(path))
    assert code == 65 and out == ""
    assert "parse error: line 2: no alpha in a ring of degree 1: 'a'" in err


@pytest.mark.parametrize("value", ["0", "-2", "abc"])
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


def test_trailing_lines_are_parse_errors(tmp_path, capsys):
    slp_text = Path(catalogs.data_path("slp", "demo_cost49.slp")).read_text()
    n_slp = len(slp_text.splitlines())
    path = tmp_path / "trailing.slp"
    path.write_text(slp_text + "bogus line here\n")
    for cmd in ("cost", "verify"):
        code, out, err = run(capsys, cmd, str(path))
        assert code == 65 and out == ""
        assert f"parse error: line {n_slp + 1}: unexpected line after the block" in err
    path = tmp_path / "trailing.matrix"
    path.write_text("ring x^8+x^2+1 k 2\n1,1\n1,a\n\n# note\nbogus\n")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 65 and "parse error: line 6: unexpected line after the block: 'bogus'" in err
    # a catalog entry is one blank-line separated block
    lines = Path(catalogs.data_path("catalogs", "depth3_4x4.catalog")).read_text().splitlines()
    end = lines.index("", lines.index("out y4 = t9"))
    lines.insert(end, "bogus")
    path = tmp_path / "trailing.catalog"
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 65 and f"parse error: line {end + 1}: unexpected line" in err


@pytest.mark.parametrize("spec", ["a^x..a^3", "a^-3..a^3x", "0,a", "a^4+a+1", "zz", ""])
def test_bad_value_spec_is_usage_error(capsys, spec):
    tree = catalogs.data_path("trees", "4x4_tree1.txt")
    code, out, err = run(capsys, "assign", "--tree", tree, "--ring", "x^8+x^2+1",
                         "--values", spec, "--cost-bound", "67")
    assert code == 64 and out == ""
    assert err.startswith("usage error: ") and "value spec" in err


def test_program_missing_an_output_is_parse_error_for_canon(tmp_path, capsys):
    lines = Path(catalogs.data_path("slp", "bitlevel_balanced.slp")).read_text().splitlines()
    assert lines[-1] == "out y4 = t4"
    path = tmp_path / "three_outputs.slp"
    path.write_text("\n".join(lines[:-1]) + "\n")
    code, out, err = run(capsys, "canon", str(path))
    assert (code, out) == (65, "")
    assert err == "parse error: line 1: 3 outputs for 4 inputs; only square layers extract\n"


def test_catalog_entry_missing_an_output_is_parse_error(tmp_path, capsys):
    lines = Path(catalogs.data_path("catalogs", "cost35_4x4.catalog")).read_text().splitlines()
    assert lines[9].endswith(" inputs 4") and lines[21] == "out y4 = t8"
    del lines[21]
    path = tmp_path / "three_outputs.catalog"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (65, "")
    assert err == "parse error: line 10: 3 outputs for 4 inputs; only square layers extract\n"


@pytest.mark.parametrize("text, message", [
    ("ring x^8+x^2+1 k 0\n", "k must be at least 1, got 0"),
    ("ring x^8+x^2+1 k -2\n", "k must be at least 1, got -2"),
    ("ring x^8+x^2+1 k 1 1\n1\n", "bad k value in matrix header"),
    ("ring x^8+x^2+1 inputs 0\nout y1 = x1\n", "inputs must be at least 1, got 0"),
])
def test_block_count_below_one_is_parse_error(tmp_path, capsys, text, message):
    path = tmp_path / "empty.txt"
    path.write_text(text)
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (65, "")
    assert err == f"parse error: line 1: {message}\n"


@pytest.mark.parametrize("head", [
    "cost 35 mds 1 involutory 0",
    "cost 35 depth 8 mds 1 involutory 0 foo 3",
    "cost 35 depth 8 mds 1 mds 1",
    "depth 8 cost 35 mds 1 involutory 0",
])
def test_catalog_header_states_exactly_its_four_keys(tmp_path, capsys, head):
    # the second entry: a file must start with 'cost ' to be read as a catalog
    lines = Path(catalogs.data_path("catalogs", "cost35_4x4.catalog")).read_text().splitlines()
    assert lines[24] == "cost 35 depth 8 mds 1 involutory 0"
    lines[24] = head
    path = tmp_path / "header.catalog"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (65, "")
    assert err.startswith("parse error: line 25: catalog entry header must read 'cost <c> depth")


def test_tree_output_labels_are_read(tmp_path, capsys):
    path = tmp_path / "labels.txt"
    path.write_text("type (1,1)\nT1 = T-1 + T0\nout zz = T1\nT2 = T0 + T1\nout bogus = T2\n")
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (65, "")
    assert err == "parse error: line 3: output line must read 'out y<i> = <term>'\n"


def test_tree_with_a_dead_node_is_parse_error(tmp_path, capsys):
    # T3 follows the last output: its word XOR would be charged to every
    # program, 13 instead of 9 for the cheapest over x^4+x+1
    body = "type (1,1)\nT1 = T-1 + T0\nout y1 = T1\nT2 = T-1 + T1\nout y2 = T2\n"
    path = tmp_path / "k2.tree"
    argv = ("assign", "--tree", str(path), "--ring", "x^4+x+1", "--cost-bound", "20")
    path.write_text(body)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "\ncost 9 depth 2 mds 1" in out
    path.write_text(body + "T3 = T1 + T2\n")
    err = "parse error: line 6: node T3 comes after the last output\n"
    assert run(capsys, *argv) == (65, "", err)
    assert run(capsys, "verify", str(path)) == (65, "", err)


def test_capacity_is_reported_as_given(capsys):
    # capacity 3 is not the least at k = 2, so the line must not call it so
    code, out, _ = run(capsys, "search-trees", "--k", "2", "--capacity", "3")
    assert code == 0 and out.startswith("k 2: capacity 3; 10 tree classes;")
    code, out, err = run(capsys, "search-trees", "--k", "2", "--capacity", "3",
                         "--max-capacity", "2")
    assert (code, out) == (64, "")
    assert err == "usage error: --max-capacity and --capacity exclude each other\n"


def test_max_depth_needs_capacity(capsys):
    code, out, err = run(capsys, "search-trees", "--k", "3", "--max-depth", "2")
    assert (code, out) == (64, "")
    assert err == "usage error: --max-depth needs --capacity\n"
    code, out, _ = run(capsys, "search-trees", "--k", "3", "--capacity", "5", "--max-depth", "2")
    assert code == 0 and "2 tree classes" in out


def test_value_range_keeps_its_bounds(capsys):
    # a^2..a^3 scans 1, a^2 and a^3 only: no a or a^-1 = a^3+1 scalar
    tree = catalogs.data_path("trees", "4x4_tree1.txt")
    code, out, _ = run(capsys, "assign", "--tree", tree, "--ring", "x^4+x+1",
                       "--values", "a^2..a^3", "--cost-bound", "40")
    assert code == 0 and "mds 1" in out
    assert set(re.findall(r"([^ ]+)\*", out)) == {"a^2", "a^3"}


def test_value_range_reads_1_and_a_as_powers(capsys):
    tree = catalogs.data_path("trees", "4x4_tree1.txt")
    argv = ("assign", "--tree", tree, "--ring", "x^4+x+1", "--cost-bound", "40", "--values")
    for spec, powers in (("1..a^2", "a^0..a^2"), ("a..a^2", "a^1..a^2")):
        result = run(capsys, *argv, spec)
        assert result[0] == 0 and result == run(capsys, *argv, powers)
    assert run(capsys, *argv, "a^3..a^-3") == (64, "", "usage error: empty value range\n")


def test_repeated_values_are_scanned_once(capsys):
    # alpha has order 15 over x^4+x+1: a^-15..a^15 repeats every value
    tree = catalogs.data_path("trees", "4x4_tree1.txt")
    argv = ("assign", "--tree", tree, "--ring", "x^4+x+1", "--cost-bound", "36", "--values")
    code, out, err = run(capsys, *argv, "a^-7..a^7")
    assert code == 0 and out
    assert run(capsys, *argv, "a^-15..a^15") == (code, out, err)
    once = run(capsys, *argv, "1,a,a^-1")
    assert once[0] == 0 and run(capsys, *argv, "1,a,a^-1,a,1") == once


def _square_program(k: int) -> str:
    return (f"ring x^8+x^2+1 inputs {k}\nt1 = x1 + x2\nout y1 = t1\n"
            + "".join(f"out y{i} = x{i}\n" for i in range(2, k + 1)))


def _identity_matrix(k: int) -> str:
    return f"ring x^8+x^2+1 k {k}\n" + "".join(
        ",".join("1" if j == i else "0" for j in range(k)) + "\n" for i in range(k))


def _chain_tree(k: int) -> str:
    outs = "".join(f"T{p} = T{-(p - 1)} + T{p - 1}\nout y{p} = T{p}\n" for p in range(2, k + 1))
    return f"type ({','.join(['1'] * k)})\nT1 = T-1 + T0\nout y1 = T1\n" + outs


@pytest.mark.parametrize("name, text, line", [
    ("big.matrix", "# nine rows\n" + _identity_matrix(9), 2),
    ("big.slp", "# nine outputs\n" + _square_program(9), 2),
    ("big.catalog", "cost 1 depth 1 mds 0 involutory 0\n" + _identity_matrix(9)
     + _square_program(9), 2),
    ("mixed.catalog", "cost 1 depth 1 mds 0 involutory 0\n" + _identity_matrix(2)
     + _square_program(9), 5),
    ("big.tree", "\n" + _chain_tree(9), 2),
])
def test_k_above_limit_is_parse_error_on_its_header(tmp_path, capsys, name, text, line):
    # an all-minors check at k covers C(2k, k) - 1 minors: about 1 s at
    # k = 8, and each step in k multiplies time and memory by 3-5
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (65, "")
    assert err == f"parse error: line {line}: k 9 is above the limit 8 of the all-minors check\n"
    if name.endswith((".matrix", ".slp")):
        assert run(capsys, "canon", str(path)) == (65, "", err)


def test_k_at_limit_and_wide_programs_are_read(tmp_path, capsys):
    path = tmp_path / "eight.matrix"
    path.write_text(_identity_matrix(8))
    assert run(capsys, "verify", str(path))[:2] == (0, "matrix k 8: mds 0 involutory 1\n")
    # a program with more inputs than outputs builds no matrix, so no limit
    path = tmp_path / "wide.slp"
    path.write_text("ring x^8+x^2+1 inputs 13\nt1 = x1 + x13\nout y1 = t1\n")
    assert run(capsys, "verify", str(path))[:2] == (0, "slp: cost 8 depth 1 (not square)\n")
    path = tmp_path / "eight.tree"
    path.write_text(_chain_tree(8))
    assert run(capsys, "verify", str(path))[0] == 1  # a minor vanishes


def test_python_dash_m_runs_the_command_line(capsys):
    # a checkout runs as `python -m mdsforge` with src/ on the import path
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "mdsforge", "catalog"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == run(capsys, "catalog")[1]
