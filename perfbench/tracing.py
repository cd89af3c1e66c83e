"""Per-layer tracing by wrapping the library's functions from outside.

A wrapper is installed on every module attribute (or class attribute) that
holds the wrapped function, i.e. at each name where a caller looks it up, so
nothing in the library changes.  Spans live in memory: coarse layer calls
are kept one record each (name, start, end, parent span); hot functions are
aggregated by name (calls and self time only); the hottest are only counted.
A layer's self time is its duration minus the time of wrapped calls nested
inside it.
"""

from __future__ import annotations

import time

KEEP = "keep"          # timed, one span record per call
AGGREGATE = "agg"      # timed, totals by name only
COUNT = "count"        # call count only, no timing


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        # frames: [start, time of wrapped children, enclosing kept span id]
        self.stack: list[list] = [[0.0, 0.0, None]]
        self.spans: list[list] = []   # [name, start, end, parent span id]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.items: dict[str, int] = {}  # summed len() of results, by name
        self._installed: list[tuple] = []

    # -- wrappers -------------------------------------------------------------

    def _timed(self, name: str, fn, kind: str, outermost: bool, result_len: bool):
        stack, spans, clock = self.stack, self.spans, self.clock
        calls, self_s, items = self.calls, self.self_s, self.items
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)
        if result_len:
            items.setdefault(name, 0)
        active = [0]

        def wrapper(*args, **kwargs):
            if outermost and active[0]:
                return fn(*args, **kwargs)
            active[0] += 1
            parent = stack[-1][2]
            t0 = clock()
            if kind == KEEP:
                sid = len(spans)
                spans.append([name, t0, None, parent])
                frame = [t0, 0.0, sid]
            else:
                frame = [t0, 0.0, parent]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[0] -= 1
                dur = t1 - t0
                stack[-1][1] += dur
                self_s[name] += dur - frame[1]
                calls[name] += 1
                if kind == KEEP:
                    spans[frame[2]][2] = t1
            if result_len:
                items[name] += len(out)
            return out

        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls
        calls.setdefault(name, 0)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    # -- installation ---------------------------------------------------------

    def wrap_function(self, modules, fn, name: str, kind: str = AGGREGATE,
                      outermost: bool = False, result_len: bool = False):
        """Replace `fn` on every module in `modules` that binds it."""
        w = self._counted(name, fn) if kind == COUNT else \
            self._timed(name, fn, kind, outermost, result_len)
        hit = False
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._installed.append((mod, attr, val))
                    setattr(mod, attr, w)
                    hit = True
        if not hit:
            raise LookupError(f"{name}: function not bound in any traced module")

    def wrap_method(self, cls, attr: str, name: str, kind: str = AGGREGATE):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            w = classmethod(self._timed(name, raw.__func__, kind, False, False))
        elif kind == COUNT:
            w = self._counted(name, raw)
        else:
            w = self._timed(name, raw, kind, False, False)
        self._installed.append((cls, attr, raw))
        setattr(cls, attr, w)

    def uninstall(self):
        for owner, attr, val in reversed(self._installed):
            setattr(owner, attr, val)
        self._installed.clear()

    def span_records(self) -> list[dict]:
        return [{"id": i, "name": n, "start": s, "end": e, "parent": p}
                for i, (n, s, e, p) in enumerate(self.spans)]


def install_layers(tracer: Tracer, lib) -> None:
    """Wrap the public functions of each layer of the library `lib`.

    `lib` maps module names ("gf2", "blockmat", ...) to the imported modules
    of one fresh import of the package.
    """
    mods = list(lib.values())
    gf2, sympoly, blockmat = lib["gf2"], lib["sympoly"], lib["blockmat"]
    slp, treesearch, instantiate = lib["slp"], lib["treesearch"], lib["instantiate"]
    catalogs, cli = lib["catalogs"], lib["cli"]

    tracer.wrap_method(gf2.QuotientRing, "_build_table", "gf2.ring_tables", KEEP)
    tracer.wrap_method(gf2.QuotientRing, "mul", "gf2.mul", COUNT)
    # the exact symbolic fallback recurses through its own module name;
    # only the outermost call is one determinant
    tracer.wrap_function(mods, sympoly._det, "sympoly.exact_det", outermost=True)
    tracer.wrap_method(blockmat.MinorTracker, "add_row", "blockmat.tracker_add_row")
    tracer.wrap_method(blockmat.MinorTracker, "clone", "blockmat.tracker_clone")
    tracer.wrap_function(mods, blockmat.canonical_key, "blockmat.canonical_key")
    tracer.wrap_function(mods, blockmat.is_mds, "blockmat.is_mds")
    tracer.wrap_function(mods, slp.extract_matrix, "slp.extract_matrix")
    tracer.wrap_function(mods, slp.cost, "slp.cost")
    tracer.wrap_function(mods, slp.depth, "slp.depth")
    tracer.wrap_function(mods, treesearch.search_at_capacity, "treesearch.generate", KEEP)
    tracer.wrap_function(mods, treesearch.canonical_tree, "treesearch.canonical_tree")
    tracer.wrap_function(mods, instantiate.assign_parameters,
                         "instantiate.assign_parameters", KEEP, result_len=True)
    tracer.wrap_method(instantiate.CatalogEntry, "from_slp", "instantiate.catalog_entry")
    tracer.wrap_function(mods, instantiate.involutory_search,
                         "instantiate.involutory_search", KEEP)
    tracer.wrap_function(mods, instantiate.catalog_records, "instantiate.catalog_parse", KEEP)
    tracer.wrap_function(mods, catalogs.load_catalog, "catalogs.load", KEEP)
    tracer.wrap_function(mods, cli.main, "cli", KEEP)


def layer_metrics(tracer: Tracer, tree_classes: int, catalog_classes: int) -> dict:
    """Per-layer metric values (name -> number) from one traced round."""
    c, s = tracer.calls, tracer.self_s

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "gf2.ring_tables.count": c["gf2.ring_tables"],
        "gf2.ring_tables.s": s["gf2.ring_tables"],
        "gf2.mul.calls": c["gf2.mul"],
        "sympoly.exact_det.calls": c["sympoly.exact_det"],
        "sympoly.exact_det.s": s["sympoly.exact_det"],
        "blockmat.tracker_add_row.calls": c["blockmat.tracker_add_row"],
        "blockmat.tracker_add_row.s": s["blockmat.tracker_add_row"],
        "blockmat.tracker_clone.calls": c["blockmat.tracker_clone"],
        "blockmat.tracker_clone.s": s["blockmat.tracker_clone"],
        "blockmat.canonical_key.calls": c["blockmat.canonical_key"],
        "blockmat.canonical_key.s": s["blockmat.canonical_key"],
        "blockmat.is_mds.s": s["blockmat.is_mds"],
        "slp.extract_matrix.s": s["slp.extract_matrix"],
        "slp.cost.s": s["slp.cost"],
        "slp.depth.s": s["slp.depth"],
        "treesearch.generate.s": s["treesearch.generate"],
        "treesearch.canonical_tree.calls": c["treesearch.canonical_tree"],
        "treesearch.canonical_tree.s": s["treesearch.canonical_tree"],
        "treesearch.raw_per_class": ratio(c["treesearch.canonical_tree"], tree_classes),
        "instantiate.assign_parameters.calls": c["instantiate.assign_parameters"],
        "instantiate.assign_parameters.s": s["instantiate.assign_parameters"],
        "instantiate.catalog_entry.calls": c["instantiate.catalog_entry"],
        "instantiate.catalog_entry.s": s["instantiate.catalog_entry"],
        "instantiate.entries_per_class": ratio(
            tracer.items["instantiate.assign_parameters"], catalog_classes),
        "instantiate.involutory_search.s": s["instantiate.involutory_search"],
        "instantiate.catalog_parse.s": s["instantiate.catalog_parse"],
        "catalogs.load.s": s["catalogs.load"],
        "cli.self_s": s["cli"],
    }
