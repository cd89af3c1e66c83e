"""Time-to-result benchmark for mdsforge's searches.

    python3 perfbench/run.py --workload catalog-k4 --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all

Runs from the root of a source checkout and imports the package from
`src/`.  With --trace 0 a run repeats whole rounds (fresh import and set-up,
then the job, then the checks), at least two and until --seconds have
passed, and reports the end-to-end metrics as medians over rounds.  With --trace 1 it runs one
untraced round, then one round with every layer wrapped, and reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
LIB_MODULES = ("gf2", "sympoly", "blockmat", "slp", "treesearch", "instantiate",
               "catalogs", "cli")
# The machine's speed drifts over tens of seconds; the mean of two rounds
# varies 20-40% less between runs than a single round does.
MIN_ROUNDS = 2
# set-up is short and noisy: every run takes at least this many samples,
# half of the extra ones before the rounds and half after, so that their
# median spans the whole run
MIN_SETUPS = 9

sys.path.insert(0, HERE)
import tracing  # noqa: E402
from workloads import WORKLOADS, Refs  # noqa: E402


def fresh_import() -> dict:
    """Import the package from scratch, so every round pays the same set-up
    and starts with the library's caches empty, as a new process would."""
    for name in [n for n in sys.modules if n == "mdsforge" or n.startswith("mdsforge.")]:
        del sys.modules[name]
    return {m: importlib.import_module("mdsforge." + m) for m in LIB_MODULES}


def timed_setup(wl, tracer=None):
    gc.collect()
    t0 = time.perf_counter()
    lib = fresh_import()
    if tracer is not None:
        tracing.install_layers(tracer, lib)
    ctx = wl.setup(lib)
    return lib, ctx, time.perf_counter() - t0


def timed_job(wl, lib, ctx):
    gc.collect()
    w0, c0 = time.perf_counter(), time.process_time()
    out = wl.job(lib, ctx)
    return out, time.perf_counter() - w0, time.process_time() - c0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    rng = random.Random(seed)
    refs = Refs()
    setups, walls, cpus, fingerprints = [], [], [], []
    attempted = failed = 0
    problems: list[str] = []
    rss = 0.0
    for _ in range((MIN_SETUPS - MIN_ROUNDS) // 2):
        setups.append(timed_setup(wl)[2])
    started = time.perf_counter()
    while True:
        lib, ctx, dt = timed_setup(wl)
        setups.append(dt)
        out, wall, cpu = timed_job(wl, lib, ctx)
        rss = peak_rss_mb()  # before the checks allocate anything
        walls.append(wall)
        cpus.append(cpu)
        attempted += out.attempted
        failed += out.failed
        fingerprints.append(out.fingerprint)
        problems += wl.check(lib, ctx, out, refs, rng)
        del lib, ctx, out
        if trace or (len(walls) >= MIN_ROUNDS
                     and time.perf_counter() - started >= seconds):
            break
    while len(setups) < MIN_SETUPS:
        setups.append(timed_setup(wl)[2])

    record = {"workload": name, "seed": seed, "trace": int(trace),
              "python": platform.python_version(), "nproc": os.cpu_count(),
              "setup_samples": setups, "job_samples": walls, "cpu_samples": cpus}
    if trace:
        tracer = tracing.Tracer()
        lib, ctx, _ = timed_setup(wl, tracer)
        out, wall, _ = timed_job(wl, lib, ctx)
        tracer.uninstall()
        attempted += out.attempted
        failed += out.failed
        fingerprints.append(out.fingerprint)
        problems += wl.check(lib, ctx, out, refs, rng)
        metrics = tracing.layer_metrics(tracer, out.tree_classes, out.catalog_classes)
        metrics["trace.overhead_pct"] = 100.0 * (wall / walls[0] - 1.0)
        record["traced_job_s"] = wall
        write_json(f"trace-{name}-seed{seed}.json", {
            "workload": name, "seed": seed, "calls": tracer.calls,
            "self_s": tracer.self_s, "spans": tracer.span_records()})
    else:
        metrics = {"setup_s": statistics.median(setups),
                   "job_s": statistics.median(walls),
                   "job_cpu_s": statistics.median(cpus),
                   "peak_rss_mb": rss}
    if any(f != fingerprints[0] for f in fingerprints):
        problems.append("rounds disagree on the result fingerprint")
    record.update(correct=not problems, attempted=attempted, failed=failed,
                  fingerprint=fingerprints[0], problems=problems[:20], metrics=metrics)
    write_json(f"{name}-seed{seed}-trace{int(trace)}.json", record)
    return record


def write_json(filename: str, obj) -> None:
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, filename), "w") as f:
        json.dump(obj, f, indent=1)


UNITS = {"setup_s": "s", "job_s": "s", "job_cpu_s": "s", "peak_rss_mb": "MB"}


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    if metric.endswith("_pct"):
        return "%"
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith("_per_class"):
        return "ratio"
    return "count"


def report(record: dict) -> None:
    print(f"== {record['workload']} (seed {record['seed']}, trace {record['trace']})")
    for metric, value in record["metrics"].items():
        print(f"{metric:40s} {value:>14.6g} {unit_of(metric)}")
    print(f"{'attempted':40s} {record['attempted']:>14d}")
    print(f"{'failed':40s} {record['failed']:>14d}")
    print(f"fingerprint {json.dumps(record['fingerprint'], sort_keys=True)}")
    for p in record["problems"]:
        print(f"PROBLEM: {p}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mdsforge", "__init__.py")):
        print(f"no mdsforge sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # set-up should read compiled modules, as an installed package does,
    # whatever PYTHONDONTWRITEBYTECODE says; the first import writes them
    sys.dont_write_bytecode = False

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for r in records:
        report(r)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": v for r in records for m, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {m: {"value": v, "unit": unit_of(m.split(".", 1)[1] if len(records) > 1 else m)}
                    for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
