"""Repeat benchmark runs over seeds and compare two sets of runs.

    python3 perfbench/compare.py sweep base --seeds 1-10
    python3 perfbench/compare.py sweep base --seeds 1-5 --workloads catalog-k4
    python3 perfbench/compare.py sweep parent --root ../parent-checkout --seeds 1
    python3 perfbench/compare.py diff base change

`sweep` runs perfbench/run.py once per workload and seed, one process at a
time, in this checkout or the one named by --root, keeps each run's result
line and record under perfbench/out/<label>/ of this checkout and prints
each end-to-end metric's median, quartiles and spread (interquartile
distance over the median) next to its bound from BENCHMARK.json.  `diff`
compares two labels: a metric regresses when the second median is worse
than the first by more than its bound, and is unresolved when either side's
spread exceeds the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def label_dir(label: str) -> str:
    """A label names perfbench/out/<label>; an existing directory is used as is."""
    return label if os.path.isdir(label) else os.path.join(HERE, "out", label)


def sweep(label: str, workloads: list[str], seeds: list[int], seconds: int, root: str):
    os.makedirs(label_dir(label), exist_ok=True)
    for w in workloads:
        for s in seeds:
            argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", w,
                    "--seed", str(s), "--seconds", str(seconds), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
            took = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {s}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                continue
            result = json.loads(lines[-1])
            with open(os.path.join(root, "perfbench", "out", f"{w}-seed{s}-trace0.json")) as f:
                result["record"] = json.load(f)
            result["run_wall_s"] = took
            with open(os.path.join(label_dir(label), f"{w}-seed{s}.json"), "w") as f:
                json.dump(result, f)
            print(f"{w} seed {s}: {took:.1f} s, correct {result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)


def load_runs(label: str, workload: str) -> list[dict]:
    d = label_dir(label)
    runs = []
    for f in sorted(os.listdir(d)):
        if f.startswith(workload + "-seed"):
            with open(os.path.join(d, f)) as fh:
                runs.append(json.load(fh))
    return runs


def stats(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def summary(label: str, workloads: list[str], spec: dict):
    for w in workloads:
        runs = load_runs(label, w)
        if len(runs) < 2:
            continue
        shares = {(r["failed"], r["attempted"]) for r in runs}
        ok = all(r["correct"] for r in runs)
        walls = [r["run_wall_s"] for r in runs]
        print(f"== {w}: {len(runs)} runs, all correct {ok}, failed/attempted {sorted(shares)}, "
              f"run wall {min(walls):.1f}-{max(walls):.1f} s")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med, q1, q3, spread = stats(values)
            print(f"  {m['name']:12s} median {med:10.4f} {m['unit']:3s} q1 {q1:10.4f} "
                  f"q3 {q3:10.4f} spread {100 * spread:5.1f}% (bound {100 * m['bound']:.0f}%)")


def diff(a: str, b: str, workloads: list[str], spec: dict) -> int:
    worse = 0
    for w in workloads:
        ra, rb = load_runs(a, w), load_runs(b, w)
        if len(ra) < 2 or len(rb) < 2:
            continue
        share_a = {r["failed"] / r["attempted"] for r in ra}
        share_b = {r["failed"] / r["attempted"] for r in rb}
        print(f"== {w}: failed share {sorted(share_a)} -> {sorted(share_b)}")
        for m in spec["end_to_end"]:
            sa = stats([r["metrics"][m["name"]]["value"] for r in ra])
            sb = stats([r["metrics"][m["name"]]["value"] for r in rb])
            change = (sb[0] - sa[0]) / sa[0]
            if m["better"] == "higher":
                change = -change
            if change > m["bound"]:
                verdict = "WORSE"
                worse += 1
            elif max(sa[3], sb[3]) > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"  {m['name']:12s} {sa[0]:10.4f} -> {sb[0]:10.4f} {m['unit']:3s} "
                  f"({100 * change:+.1f}% worse, bound {100 * m['bound']:.0f}%) {verdict}")
    return 1 if worse else 0


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("sweep")
    p.add_argument("label")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--root", default=ROOT,
                   help="checkout to measure (default: this one); results stay here")
    p = sub.add_parser("summary")
    p.add_argument("label")
    p.add_argument("--workloads", default=",".join(names))
    p = sub.add_parser("diff")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--workloads", default=",".join(names))
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    if args.cmd == "sweep":
        sweep(args.label, workloads, seed_list(args.seeds), args.seconds,
              os.path.abspath(args.root))
        summary(args.label, workloads, spec)
        return 0
    if args.cmd == "summary":
        summary(args.label, workloads, spec)
        return 0
    return diff(args.a, args.b, workloads, spec)


if __name__ == "__main__":
    sys.exit(main())
