"""The benchmark's per-layer tracer (`perfbench/tracing.py`) wraps library
names from outside the package: each name it wraps must stay bound, and
uninstalling must put every attribute back."""

import importlib
import importlib.util
from pathlib import Path

from mdsforge import blockmat, gf2, instantiate

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
# the modules the benchmark imports and hands to install_layers
MODULES = ("gf2", "sympoly", "blockmat", "slp", "treesearch", "instantiate", "catalogs", "cli")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_layer_and_restores_it():
    tracing = _load_tracing()
    lib = {name: importlib.import_module("mdsforge." + name) for name in MODULES}
    owners = list(lib.values()) + [gf2.QuotientRing, blockmat.MinorTracker,
                                   instantiate.CatalogEntry]
    before = [dict(vars(owner)) for owner in owners]
    det, clone = lib["sympoly"]._det, blockmat.MinorTracker.__dict__["clone"]
    tracer = tracing.Tracer()
    try:
        # raises if a name it wraps is no longer bound
        tracing.install_layers(tracer, lib)
        assert lib["sympoly"]._det is not det
        assert blockmat.MinorTracker.__dict__["clone"] is not clone
    finally:
        tracer.uninstall()
    for owner, old in zip(owners, before):
        now = dict(vars(owner))
        assert now.keys() == old.keys(), owner
        assert all(now[attr] is value for attr, value in old.items()), owner
