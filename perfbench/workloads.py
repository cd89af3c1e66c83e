"""The four workloads: set-up, the timed job, and the checks of its outputs.

Each workload is a search a user runs, called in-process through the public
library or through `cli.main`, always at one worker (`-j 1`).  The job's
inputs are fixed by the paper's setting; the seed only drives the checks'
random evaluation points and relabelings.

`setup(lib)` receives one fresh import of the package (module name ->
module) and returns the context the job needs; `job(lib, ctx)` returns an
Outcome; `check(lib, ctx, outcome, refs, rng)` returns a list of problems.
"""

from __future__ import annotations

import contextlib
import io
import os
from collections import Counter
from dataclasses import dataclass, field

import checks

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "src", "mdsforge", "data")

R8, R4, EVAL = "x^8+x^2+1", "x^4+x+1", "x^8+x^4+x^3+x+1"
TREE_TYPES_K4 = {(3, 3, 1, 1), (4, 2, 1, 1)}
# recorded class counts; README.md gives the commands that regenerate them
K3_CAP6_CLASSES = 2915
ASSIGN68_CLASSES = 989
ASSIGN68_ARGS = ["assign", "--all-trees", "--ring", R8, "--values", "a^-3..a^3",
                 "--cost-bound", "68", "-j", "1"]
K3_CAP6_ARGS = ["search-trees", "--k", "3", "--capacity", "6", "-j", "1"]
CATALOG_REFS = ("cost67_4x4", "cost67_4x4_conjugates", "cost35_4x4", "depth4_4x4")


@dataclass
class Outcome:
    attempted: int
    failed: int
    result: dict
    tree_classes: int = 0
    catalog_classes: int = 0
    fingerprint: dict = field(default_factory=dict)


def cli_call(lib, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = lib["cli"].main(argv)
    return rc, out.getvalue(), err.getvalue()


def data_files() -> list[str]:
    """Every bundled tree, catalog and program file (the inputs of verify)."""
    return [os.path.join(DATA, d, f) for d in ("trees", "catalogs", "slp")
            for f in sorted(os.listdir(os.path.join(DATA, d)))]


# ---------------------------------------------------------------------------
# reference data, parsed by the checker's own code (not timed)


class Refs:
    def __init__(self):
        self.rings: dict[int, checks.Ring] = {}
        self.catalogs = {}
        for name in CATALOG_REFS + ("involutory_4x4",):
            with open(os.path.join(DATA, "catalogs", name + ".catalog")) as f:
                self.catalogs[name] = checks.parse_catalog(f.read(), self.rings)
        self.trees = []
        for i in range(1, 9):
            with open(os.path.join(DATA, "trees", f"4x4_tree{i}.txt")) as f:
                self.trees.extend(checks.parse_trees(f.read()))
        checks.eval_field()

    def ring(self, text: str) -> checks.Ring:
        m = checks.parse_poly(text)
        if m not in self.rings:
            self.rings[m] = checks.Ring(m)
        return self.rings[m]

    def keys(self, name: str) -> set:
        return {checks.class_key(e["rows"]) for e in self.catalogs[name]}


def canonicalizer(lib):
    ts = lib["treesearch"]
    return lambda k, nodes, outs: ts.canonical_tree(ts.ImplTree(k, tuple(nodes), tuple(outs)))


def tree_tuples(trees) -> list[tuple]:
    return [(t.k, t.nodes, t.outs) for t in trees]


def loaded_catalog_problems(lib, refs, names) -> list[str]:
    """The catalogs loaded in set-up must match the checker's own parse."""
    problems = []
    for name in names:
        got = [(e.cost, e.depth, e.matrix.rows) for e in lib["catalogs"].load_catalog(name)]
        want = [(e["cost"], e["depth"], e["rows"]) for e in refs.catalogs[name]]
        if got != want:
            problems.append(f"load_catalog({name!r}) differs from the file")
    return problems


def loaded_trees_problems(lib, refs) -> list[str]:
    got = tree_tuples(lib["catalogs"].simplest_trees_4x4())
    return [] if got == refs.trees else ["simplest_trees_4x4() differs from the tree files"]


# ---------------------------------------------------------------------------
# trees-k4: search_simplest(4) as its two capacities


def setup_trees_k4(lib):
    lib["gf2"].ring(EVAL).mul_rows()
    return {"trees": lib["catalogs"].simplest_trees_4x4()}


def job_trees_k4(lib, ctx) -> Outcome:
    ts = lib["treesearch"]
    cap7 = ts.search_at_capacity(4, 7)
    cap8 = ts.search_at_capacity(4, 8)
    return Outcome(2, 0, {"cap7": cap7, "cap8": cap8}, tree_classes=len(cap7) + len(cap8),
                   fingerprint={"cap7_classes": len(cap7), "cap8_classes": len(cap8)})


def check_trees_k4(lib, ctx, out, refs, rng) -> list[str]:
    problems = loaded_trees_problems(lib, refs)
    if out.result["cap7"]:
        problems.append(f"capacity 7 gave {len(out.result['cap7'])} classes, expected none")
    cap8 = tree_tuples(out.result["cap8"])
    canon = canonicalizer(lib)
    want = {canon(*t) for t in refs.trees}
    got = {checks.tree_key(nodes, outs) for _, nodes, outs in cap8}
    if got != want or len(cap8) != 8:
        problems.append(f"capacity 8 classes differ from the 8 bundled trees ({len(cap8)} found)")
    types = {checks.type_vector(outs) for _, _, outs in cap8}
    if types != TREE_TYPES_K4:
        problems.append(f"capacity 8 types {sorted(types)}")
    return problems + checks.tree_class_problems(cap8, rng, canon)


# ---------------------------------------------------------------------------
# trees-k3-cap6: mdsforge search-trees --k 3 --capacity 6


def setup_trees_k3(lib):
    lib["gf2"].ring(EVAL).mul_rows()
    return {}


def job_trees_k3(lib, ctx) -> Outcome:
    rc, text, err = cli_call(lib, K3_CAP6_ARGS)
    n = int(text.split(";")[1].split()[0]) if rc == 0 else 0
    return Outcome(1, int(rc != 0), {"rc": rc, "text": text, "err": err},
                   tree_classes=n, fingerprint={"classes": n})


def check_trees_k3(lib, ctx, out, refs, rng) -> list[str]:
    r = out.result
    if r["rc"] != 0:
        return [f"search-trees exited {r['rc']}: {r['err'].strip()}"]
    trees = checks.parse_trees(r["text"])
    problems = []
    if len(trees) != K3_CAP6_CLASSES or out.tree_classes != K3_CAP6_CLASSES:
        problems.append(f"{len(trees)} classes printed, summary says {out.tree_classes}, "
                        f"recorded {K3_CAP6_CLASSES}")
    return problems + checks.tree_class_problems(trees, rng, canonicalizer(lib))


# ---------------------------------------------------------------------------
# catalog-k4: four lowest-cost catalogs, the <= 68 scan, verify every file


def setup_catalog_k4(lib):
    gf2 = lib["gf2"]
    rings = {}
    for text in (R8, R4):
        r = rings[text] = gf2.ring(text)
        r.mul_rows()
        r.unit_flags()
    for name in CATALOG_REFS:
        lib["catalogs"].load_catalog(name)
    return {"rings": rings, "trees": lib["catalogs"].simplest_trees_4x4(),
            "files": data_files()}


def job_catalog_k4(lib, ctx) -> Outcome:
    inst = lib["instantiate"]
    searches = {}
    for text in (R8, R4):
        for bound in (None, 4):
            searches[(text, bound)] = inst.search_lowest_cost(
                4, ctx["rings"][text], trees=list(ctx["trees"]), depth_bound=bound)
    assign = cli_call(lib, ASSIGN68_ARGS)
    verify = [(path,) + cli_call(lib, ["verify", path]) for path in ctx["files"]]
    failed = sum(1 for _, rc, _, _ in verify if rc != 0) + int(assign[0] != 0)
    classes = sum(len(v) for v in searches.values())
    n68 = int(assign[1].split("\n")[1].split()[1]) if assign[0] == 0 else 0
    fingerprint = {f"{text} depth<={bound}": [len(v), v[0].cost if v else None]
                   for (text, bound), v in searches.items()}
    fingerprint["assign<=68"] = n68
    return Outcome(5 + len(verify), failed,
                   {"searches": searches, "assign": assign, "verify": verify},
                   catalog_classes=classes + n68, fingerprint=fingerprint)


def check_catalog_k4(lib, ctx, out, refs, rng) -> list[str]:
    problems = loaded_catalog_problems(lib, refs, CATALOG_REFS)
    r = out.result
    sixty = refs.keys("cost67_4x4") | refs.keys("cost67_4x4_conjugates")
    expect = {  # (ring, depth bound): (cost, reference key set, must equal it)
        (R8, None): (67, sixty, True),
        (R8, 4): (69, refs.keys("depth4_4x4"), True),
        (R4, None): (35, refs.keys("cost35_4x4"), False),
        (R4, 4): (37, set(), False),
    }
    for (text, bound), (cost, ref, exact) in expect.items():
        entries = r["searches"][(text, bound)]
        ring = refs.ring(text)
        label = f"{text} depth<={bound}"
        costs = {e.cost for e in entries}
        if costs != {cost}:
            problems.append(f"{label}: costs {sorted(costs)}, expected {cost}")
        keys = [checks.class_key(e.matrix.rows) for e in entries]
        if len(set(keys)) != len(keys):
            problems.append(f"{label}: duplicate classes")
        if (set(keys) != ref) if exact else not ref <= set(keys):
            problems.append(f"{label}: classes differ from the reference catalog")
        for e in entries:
            problems += [f"{label}: {p}" for p in checks.mds_problems(ring, e.matrix.rows)]

    rc, text, err = r["assign"]
    if rc != 0:
        problems.append(f"assign exited {rc}: {err.strip()}")
    else:
        entries = checks.parse_catalog(text, refs.rings)
        ring = refs.ring(R8)
        keys = [checks.class_key(e["rows"]) for e in entries]
        at67 = {k for k, e in zip(keys, entries) if e["cost"] == 67}
        if len(entries) != ASSIGN68_CLASSES or len(set(keys)) != len(keys):
            problems.append(f"assign <= 68: {len(entries)} entries, {len(set(keys))} classes, "
                            f"recorded {ASSIGN68_CLASSES}")
        if min(e["cost"] for e in entries) != 67 or max(e["cost"] for e in entries) > 68:
            problems.append("assign <= 68: costs outside 67..68")
        if at67 != sixty:
            problems.append(f"assign <= 68: {len(at67)} classes at 67 differ from the sixty")
        for e in entries:
            problems += [f"assign <= 68: {p}" for p in checks.mds_problems(ring, e["rows"])]

    for path, rc, text, err in r["verify"]:
        name = os.path.relpath(path, DATA)
        if rc == 0 and "FAIL" in text:
            problems.append(f"verify {name}: {text.strip().splitlines()[-1]}")
        # a tree file fails today (no tree branch in verify); any other
        # failure is a wrong result
        if rc != 0 and not name.startswith("trees" + os.sep):
            problems.append(f"verify {name} exited {rc}: {err.strip()}")
    return problems


# ---------------------------------------------------------------------------
# involutory-k4: involutory_search over the eight trees, s <= 6, t <= 5


def setup_involutory_k4(lib):
    r8 = lib["gf2"].ring(R8)
    r8.mul_rows()
    r8.unit_flags()
    lib["catalogs"].load_catalog("involutory_4x4")
    return {"ring": r8, "trees": lib["catalogs"].simplest_trees_4x4()}


def job_involutory_k4(lib, ctx) -> Outcome:
    hits = lib["instantiate"].involutory_search(list(ctx["trees"]), ctx["ring"],
                                                max_s=6, max_t=5)
    costs = Counter(h.entry.cost for h in hits)
    return Outcome(1, 0, {"hits": hits}, fingerprint={
        "hits": len(hits), "min_cost": min(costs) if costs else None,
        "costs": {str(c): n for c, n in sorted(costs.items())}})


def check_involutory_k4(lib, ctx, out, refs, rng) -> list[str]:
    problems = loaded_catalog_problems(lib, refs, ("involutory_4x4",))
    hits = out.result["hits"]
    ring = refs.ring(R8)
    per_tree = Counter(h.tree_index for h in hits)
    assignments = {t: {h.assignment for h in hits if h.tree_index == t} for t in per_tree}
    if {t: len(a) for t, a in assignments.items()} != {3: 6, 4: 12} or len(hits) != 18:
        problems.append(f"hits per tree {dict(per_tree)}, expected 6 from tree 3, 12 from tree 4")
    if {h.heuristic_t for h in hits} != {5}:
        problems.append(f"heuristic t values {sorted({h.heuristic_t for h in hits})}")
    matrices = {h.entry.matrix.rows for h in hits}
    missing = [i for i, e in enumerate(refs.catalogs["involutory_4x4"], 1)
               if e["rows"] not in matrices]
    if missing:
        problems.append(f"bundled involutory entries {missing} not found")
    if Counter(h.entry.cost for h in hits) != {68: 6, 69: 12}:
        problems.append(f"costs {dict(Counter(h.entry.cost for h in hits))}, expected six 68s")
    for h in hits:
        rows = h.entry.matrix.rows
        for p in checks.involution_problems(ring, rows) + checks.mds_problems(ring, rows):
            problems.append(f"tree {h.tree_index} {h.assignment}: {p}")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    job: object
    check: object


WORKLOADS = {w.name: w for w in (
    Workload("trees-k4", setup_trees_k4, job_trees_k4, check_trees_k4),
    Workload("trees-k3-cap6", setup_trees_k3, job_trees_k3, check_trees_k3),
    Workload("catalog-k4", setup_catalog_k4, job_catalog_k4, check_catalog_k4),
    Workload("involutory-k4", setup_involutory_k4, job_involutory_k4, check_involutory_k4),
)}
