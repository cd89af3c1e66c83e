"""Command-line frontend.

Subcommands: search-trees, assign, verify, cost, depth, canon, involutory,
catalog.  Exit codes: 0 success, 2 nothing found, 64 usage error, 65 parse
error, 70 internal invariant breach.  No randomness anywhere: identical
invocations produce byte-identical output at any --threads value.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import catalogs
from .gf2 import FormatError, QuotientRing, numbered_lines, poly_parse, ring as _ring
from . import blockmat
from .blockmat import canonical_form, is_involutory, is_mds, matrix_to_text
from . import slp as slpmod
from . import instantiate
from .instantiate import CatalogEntry, catalog_records, catalog_to_text, record_problems
from . import treesearch
from .treesearch import tree_from_text, tree_to_text

EX_OK = 0
EX_NOTFOUND = 2
EX_USAGE = 64
EX_PARSE = 65
EX_INTERNAL = 70


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _threads(args) -> int:
    n, name, shown = args.threads, "--threads", args.threads
    if n is None:
        env = os.environ.get("MDSFORGE_THREADS")
        if not env:
            return 1
        try:
            n = int(env)
        except ValueError:
            raise UsageError(f"bad MDSFORGE_THREADS value {env!r}")
        name, shown = "MDSFORGE_THREADS", repr(env)
    if n < 1:
        raise UsageError(f"{name} must be at least 1, got {shown}")
    return n


def _at_least_zero(*bounds) -> None:
    """Raise UsageError at the first (flag, value) with a negative value."""
    for flag, value in bounds:
        if value is not None and value < 0:
            raise UsageError(f"{flag} must be at least 0, got {value}")


def _parse_ring(text: str) -> QuotientRing:
    try:
        r = _ring(poly_parse(text))
    except ValueError as e:
        raise UsageError(f"bad --ring {text!r}: {e}") from None
    if r.n < 2:  # the scalars are powers of alpha, the residue x
        raise UsageError(f"bad --ring {text!r}: modulus must have degree >= 2")
    return r


def _parse_values(ring: QuotientRing, spec: str) -> list[int]:
    """Value-set spec: "a^-3..a^3" (powers, 1 included) or a comma list of
    units."""
    spec = spec.strip()
    if ".." in spec:
        lo_s, hi_s = spec.split("..", 1)

        def power(s):
            s = s.strip()
            if s == "1":
                return 0
            if s == "a":
                return 1
            if s.startswith("a^"):
                try:
                    return int(s[2:])
                except ValueError:
                    pass
            raise UsageError(f"bad power {s!r} in value spec")

        lo, hi = power(lo_s), power(hi_s)
        if lo > hi:
            raise UsageError("empty value range")
        return instantiate.alpha_powers(ring, lo, hi)
    try:
        vals = [ring.parse_element(s.strip()) for s in spec.split(",")]
        instantiate.check_units(ring, vals)
    except ValueError as e:  # FormatError included
        raise UsageError(f"bad value spec {spec!r}: {e}") from None
    return vals


def _sniff(text: str) -> str:
    """File kind, from the first line that is neither blank nor a comment."""
    lines = numbered_lines(text)
    head = lines[0][1].strip() if lines else ""
    if head.startswith("cost "):
        return "catalog"
    if head.startswith("type"):
        return "tree"
    if head.split()[:1] == ["ring"]:
        return "slp" if "inputs" in head.split() else "matrix"
    return "unknown"


def _read_file(path: str) -> str:
    try:
        with open(path, "r") as f:
            return f.read()
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e.strerror}")


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as e:
        raise UsageError(f"cannot write {path}: {e.strerror}") from None


# ---------------------------------------------------------------------------
# subcommands


def cmd_search_trees(args) -> int:
    k = args.k
    if not 2 <= k <= 6:
        raise UsageError("--k must be between 2 and 6")
    _at_least_zero(("--capacity", args.capacity), ("--max-capacity", args.max_capacity),
                   ("--max-depth", args.max_depth))
    threads = _threads(args)
    if args.capacity is not None:
        if args.max_capacity is not None:
            raise UsageError("--max-capacity and --capacity exclude each other")
        cap = args.capacity
        trees = treesearch.search_at_capacity(k, cap, max_depth=args.max_depth,
                                              threads=threads)
        label = "capacity"
    elif args.max_depth is not None:
        raise UsageError("--max-depth needs --capacity")
    else:
        cap, trees = treesearch.search_simplest(k, max_capacity=args.max_capacity,
                                                threads=threads)
        label = "min capacity"
    if not trees:
        print(f"k {k}: no tree found")
        return EX_NOTFOUND
    types = sorted(set(t.type_vector for t in trees))
    types_s = ",".join("(" + ",".join(map(str, tv)) + ")" for tv in types)
    if args.out:  # files first: a path that cannot be written prints nothing
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as e:
            raise UsageError(f"cannot write {args.out}: {e.strerror}") from None
        for i, t in enumerate(trees, start=1):
            _write_file(os.path.join(args.out, f"{k}x{k}_cap{cap}_tree{i}.txt"), tree_to_text(t))
    print(f"k {k}: {label} {cap}; {len(trees)} tree classes; types {types_s}")
    if args.out:
        print(f"wrote {len(trees)} tree files to {args.out}")
    else:
        for t in trees:
            sys.stdout.write("\n" + tree_to_text(t))
    return EX_OK


def _trees_for_assign(args):
    if args.all_trees:
        return list(catalogs.simplest_trees_4x4())
    if not args.tree:
        raise UsageError("need --tree FILE or --all-trees")
    return [tree_from_text(_read_file(args.tree))]


def cmd_assign(args) -> int:
    _at_least_zero(("--cost-bound", args.cost_bound), ("--depth-bound", args.depth_bound))
    threads = _threads(args)
    ring = _parse_ring(args.ring)
    values = (_parse_values(ring, args.values) if args.values is not None
              else instantiate.default_value_set(ring))
    jobs = [(tree, ring, args.cost_bound, values, args.depth_bound)
            for tree in _trees_for_assign(args)]
    entries = [e for batch in treesearch.pool_map(instantiate.assign_parameters, jobs, threads)
               for e in batch]
    result = instantiate.pmq_classes(entries)
    if not result:
        print("no assignment found")
        return EX_NOTFOUND
    text = catalog_to_text(result, comments=[
        f"assignments with cost <= {args.cost_bound}"
        + (f", depth <= {args.depth_bound}" if args.depth_bound is not None else ""),
        f"{len(result)} equivalence classes",
    ])
    if args.out:
        _write_file(args.out, text)
        print(f"wrote {len(result)} entries to {args.out}")
    else:
        sys.stdout.write(text)
    return EX_OK


def cmd_verify(args) -> int:
    text = _read_file(args.file)
    kind = _sniff(text)
    failures = 0
    if kind == "catalog":
        for idx, (fields, matrix, slp, lineno) in enumerate(catalog_records(text), 1):
            entry = CatalogEntry.from_slp(slp)
            probs = record_problems(fields, matrix, entry)
            status = "ok" if not probs else "FAIL " + "; ".join(probs)
            print(f"entry {idx} (line {lineno}): cost {entry.cost} depth {entry.depth} "
                  f"mds {int(entry.mds)} involutory {int(entry.involutory)} .. {status}")
            failures += bool(probs)
    elif kind == "tree":
        t = tree_from_text(text)
        ok = instantiate._symbolic_subset_ok(t, range(t.scalar_positions()))
        tv = ",".join(map(str, t.type_vector))
        print(f"tree k {t.k}: capacity {t.capacity} type ({tv}) depth {t.skeleton_depth()} "
              f"symbolic mds {int(ok)} .. {'ok' if ok else 'FAIL some minor is identically zero'}")
        failures += not ok
    elif kind == "matrix":
        m = blockmat.matrix_from_text(text)
        print(f"matrix k {m.k}: mds {int(is_mds(m))} involutory {int(is_involutory(m))}")
    elif kind == "slp":
        p = slpmod.slp_from_text(text)
        if len(p.outputs) != p.k_in:
            print(f"slp: cost {slpmod.cost(p)} depth {slpmod.depth(p)} (not square)")
        else:
            blockmat.check_k(p.k_in, numbered_lines(text)[0][0])
            entry = CatalogEntry.from_slp(p)
            print(f"slp: cost {entry.cost} depth {entry.depth} mds {int(entry.mds)} "
                  f"involutory {int(entry.involutory)}")
    else:
        raise FormatError(f"unrecognized file format for {args.file}")
    if failures:
        print(f"{failures} entries failed verification")
        return 1
    return EX_OK


def cmd_measure(args) -> int:
    """cost or depth, the subcommand's name, of an SLP file."""
    p = slpmod.slp_from_text(_read_file(args.file))
    print(getattr(slpmod, args.command)(p))
    return EX_OK


def cmd_canon(args) -> int:
    text = _read_file(args.file)
    kind = _sniff(text)
    if kind == "slp":
        p = slpmod.slp_from_text(text)
        head_no = numbered_lines(text)[0][0]
        slpmod.check_square(p, head_no)
        blockmat.check_k(p.k_in, head_no)
        m = slpmod.extract_matrix(p)
    elif kind == "matrix":
        m = blockmat.matrix_from_text(text)
    else:
        raise FormatError("canon expects a matrix or SLP file")
    sys.stdout.write(matrix_to_text(canonical_form(m)))
    return EX_OK


def cmd_involutory(args) -> int:
    _at_least_zero(("--max-s", args.max_s), ("--max-t", args.max_t))
    ring = _parse_ring(args.ring)
    trees = list(catalogs.simplest_trees_4x4()) if not args.tree \
        else [tree_from_text(_read_file(args.tree))]
    hits = instantiate.involutory_search(trees, ring, max_s=args.max_s,
                                         max_t=args.max_t, threads=_threads(args))
    if not hits:
        print("no involutory MDS matrix found")
        return EX_NOTFOUND
    seen = {}  # the first hit of each class; hits come sorted
    for h in hits:
        seen.setdefault(h.entry.canonical, h)
    comments = [
        f"involutory MDS search: s <= {args.max_s}, exponent heuristic t <= {args.max_t}",
        "trees hit: " + ",".join(map(str, sorted(set(h.tree_index for h in hits)))),
    ]
    sys.stdout.write(catalog_to_text([h.entry for h in seen.values()], comments=comments))
    return EX_OK


def cmd_catalog(args) -> int:
    for path in catalogs.list_data_files():
        print(path)
    return EX_OK


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    ap = _Parser(prog="mdsforge",
                 description="search, instantiate and verify lightweight MDS matrices")
    sub = ap.add_subparsers(dest="command", metavar="COMMAND")

    def add_threads(p):
        p.add_argument("--threads", "-j", type=int, default=None,
                       help="worker count (default: MDSFORGE_THREADS or 1)")

    p = sub.add_parser("search-trees", help="enumerate simplest implementation trees")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--capacity", type=int, default=None)
    p.add_argument("--max-capacity", type=int, default=None)
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--out", default=None, help="directory for tree files")
    add_threads(p)
    p.set_defaults(func=cmd_search_trees)

    p = sub.add_parser("assign", help="assign ring values to a tree under a cost bound")
    p.add_argument("--tree", default=None, help="tree file")
    p.add_argument("--all-trees", action="store_true",
                   help="use the bundled 4x4 simplest trees")
    p.add_argument("--ring", required=True, help='modulus, e.g. "x^8+x^2+1"')
    p.add_argument("--values", default=None, help='value set, e.g. "a^-3..a^3"')
    p.add_argument("--cost-bound", type=int, required=True)
    p.add_argument("--depth-bound", type=int, default=None)
    p.add_argument("--out", default=None)
    add_threads(p)
    p.set_defaults(func=cmd_assign)

    p = sub.add_parser("verify", help="recompute and check a catalog, matrix, SLP or tree file")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    for measure in ("cost", "depth"):
        p = sub.add_parser(measure, help=f"{measure} of an SLP file")
        p.add_argument("file")
        p.set_defaults(func=cmd_measure)

    p = sub.add_parser("canon", help="canonical form of a matrix or SLP file")
    p.add_argument("file")
    p.set_defaults(func=cmd_canon)

    p = sub.add_parser("involutory", help="involutory MDS search over the simplest trees")
    p.add_argument("--ring", required=True)
    p.add_argument("--tree", default=None, help="restrict to one tree file")
    p.add_argument("--max-s", type=int, default=6)
    p.add_argument("--max-t", type=int, default=8)
    add_threads(p)
    p.set_defaults(func=cmd_involutory)

    p = sub.add_parser("catalog", help="print bundled data file paths")
    p.set_defaults(func=cmd_catalog)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        if not getattr(args, "command", None):
            ap.print_help()
            return EX_USAGE
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EX_USAGE
    except FormatError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EX_PARSE
    except (ValueError, AssertionError) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EX_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
