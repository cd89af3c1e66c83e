"""Mutation fuzz of every input file kind through the command line.

Each bundled catalog, program and tree file, and one matrix file, is mutated
by deleting, inserting or replacing characters and whitespace-separated
tokens and by dropping or duplicating lines.  Whatever the mutant says, the
command must end in a documented exit code, and a parse error must name a
line of the file.
"""

import contextlib
import io
import os
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from mdsforge import catalogs
from mdsforge.blockmat import matrix_to_text
from mdsforge.cli import main

TREE_ARGS = ("--ring", "x^4+x+1", "--cost-bound", "20")  # a negative scalar budget
COMMANDS = {
    "catalogs": [("verify",)],
    "slp": [("verify",), ("cost",), ("canon",)],
    "trees": [("verify",), ("assign",) + TREE_ARGS + ("--tree",)],
    "matrix": [("verify",), ("canon",)],
}
DOCUMENTED_EXITS = {0, 1, 2, 64, 65}
# parse errors about the file as a whole, which no line can be blamed for
WHOLE_FILE = ("cannot read", "unrecognized file format", "canon expects a matrix or SLP file")

CHARS = "0123456789 -+^*=,()#\nxatyTkr"
TOKENS = ("0", "1", "-1", "2", "4", "99", "a", "a^-1", "a^2+1", "x1", "x9", "t1", "t99",
          "T0", "T-9", "T99", "y1", "y9", "*", "+", "=", ",", "#", "out", "ring", "inputs",
          "k", "rep", "cost", "chained", "type", "(1,1)", "x^8+x^2+1", "x+1", "depth", "mds",
          "involutory")


def _inputs() -> dict[str, str]:
    files = {f"{d}/{name}": open(catalogs.data_path(d, name)).read()
             for d in ("catalogs", "slp", "trees")
             for name in sorted(os.listdir(catalogs.data_path(d)))}
    files["matrix/cost67_first.matrix"] = matrix_to_text(
        catalogs.load_catalog("cost67_4x4")[0].matrix)
    return files


INPUTS = _inputs()

MUTATIONS = st.one_of(
    st.tuples(st.just("char"), st.sampled_from(("delete", "insert", "replace")),
              st.integers(0, 1 << 16), st.sampled_from(CHARS)),
    st.tuples(st.just("token"), st.sampled_from(("delete", "insert", "replace")),
              st.integers(0, 1 << 16), st.sampled_from(TOKENS)),
    st.tuples(st.just("line"), st.sampled_from(("delete", "duplicate")),
              st.integers(0, 1 << 16), st.just("")),
)


def mutate(text: str, mutations) -> str:
    """Apply (unit, action, position, new text) mutations in turn; positions
    wrap around the number of units."""
    for unit, action, pos, new in mutations:
        if unit == "char":
            parts, stride = list(text), 1
        elif unit == "line":
            parts, stride = text.splitlines(keepends=True), 1
        else:  # tokens at even indices, the whitespace runs between them at odd
            parts, stride, new = re.split(r"(\s+)", text), 2, new + " "
        if not parts:
            continue
        i = pos % ((len(parts) + stride - 1) // stride) * stride
        if action == "delete":
            del parts[i]
        elif action == "insert":
            parts.insert(i, new)
        elif action == "replace":
            parts[i] = new
        else:
            parts.insert(i, parts[i])
        text = "".join(parts)
    return text


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(sorted(INPUTS)), st.lists(MUTATIONS, min_size=1, max_size=3))
# each pinned input exited 70 before: a program with one output dropped, in
# a program file and in a catalog entry, and a matrix header with k 0
@example("slp/bitlevel_balanced.slp", [("line", "delete", 8, "")])
@example("catalogs/cost35_4x4.catalog", [("line", "delete", 21, "")])
@example("matrix/cost67_first.matrix", [("token", "replace", 3, "0")])
# a modulus of degree 400 took seconds to set up; above degree 64 it is
# a parse error
@example("matrix/cost67_first.matrix", [("token", "replace", 1, "x^400+x^2+1")])
def test_mutated_input_ends_in_a_documented_exit_code(workdir, name, mutations):
    text = mutate(INPUTS[name], mutations)
    path = workdir / os.path.basename(name)
    path.write_text(text)
    n_lines = len(text.splitlines())
    for argv in COMMANDS[name.split("/")[0]]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, str(path)])
        err = err.getvalue()
        assert code in DOCUMENTED_EXITS, (argv, err)
        for n in map(int, re.findall(r"\bline (\d+)", err)):
            assert 1 <= n <= n_lines + 1, (argv, err)
        if code == 65 and not any(m in err for m in WHOLE_FILE):
            assert re.search(r"\bline \d+", err), (argv, err)
