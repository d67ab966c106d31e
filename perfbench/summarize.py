#!/usr/bin/env python3
"""Summarize saved outputs of perfbench/run.py.

Usage:
    python3 perfbench/summarize.py OUTPUT [OUTPUT ...]

Each OUTPUT is the saved stdout of one run. Runs are grouped by workload
and mode (--trace 0 or 1) and put in run order by their manifest
timestamps. For every metric the summary prints the median, the first and
third quartiles (statistics.quantiles, n=4), the spread (q3 - q1) /
median against the metric's bound in BENCHMARK.json, the drift (median of
the second half of the runs over that of the first half, minus 1), and
the values in run order, so a host that slowed down mid-sequence shows.

It also checks that runs with the same seed agree on the stats digest,
traced or not, and on every sim_* metric, which are exact.
"""

import json
import statistics
import sys
from pathlib import Path


def load(path):
    manifest = result = None
    for line in Path(path).read_text().splitlines():
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "manifest" in obj:
            manifest = obj["manifest"]
        elif "metrics" in obj:
            result = obj
    if manifest is None or result is None:
        raise ValueError(f"{path}: no manifest or result line")
    return manifest, result


def bounds():
    spec = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    try:
        data = json.loads(spec.read_text())
    except (OSError, ValueError):
        return {}
    return {m["name"]: m["bound"] for m in data.get("end_to_end", [])}


def summarize(key, runs, bound_of):
    workload, trace = key
    seeds = [m["seed"] for m, _ in runs]
    print(f"{workload}  trace={trace}  runs={len(runs)}  "
          f"seeds={','.join(map(str, seeds))}")
    failed = [m["seed"] for m, r in runs if not r["correct"]]
    if failed:
        print(f"  FAILED output checks at seeds {failed}")
    print(f"  {'metric':<28}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>8}{'bound':>7}{'drift':>8}  values in run order")
    names = list(runs[0][1]["metrics"])
    for name in names:
        vals = [r["metrics"][name]["value"] for _, r in runs
                if name in r["metrics"]]
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0],) * 3)
        spread = (q3 - q1) / med if med else 0.0
        half = len(vals) // 2
        drift = (statistics.median(vals[half:]) /
                 statistics.median(vals[:half]) - 1.0
                 if half and statistics.median(vals[:half]) else 0.0)
        bound = bound_of.get(name) if not trace else None
        flag = ""
        if bound is not None:
            flag = " OVER" if spread > bound else \
                ("" if spread < bound / 3 else " >1/3")
        print(f"  {name:<28}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}"
              f"{spread:>8.1%}{'' if bound is None else f'{bound:.0%}':>7}"
              f"{drift:>+8.1%}  "
              + " ".join(f"{v:.5g}" for v in vals) + flag)
    print()


def check_exact(workload, runs):
    """Runs of one seed must agree on the digest (traced or not) and on
    every sim_* end-to-end value."""
    by_seed = {}
    for m, r in runs:
        exact = {k: v["value"] for k, v in r["metrics"].items()
                 if not m["trace"] and k.startswith("sim_")}
        by_seed.setdefault(m["seed"], []).append((m["digest"], exact))
    split = []
    for seed, outs in sorted(by_seed.items()):
        sims = [e for _, e in outs if e]
        if len({d for d, _ in outs}) > 1 or \
                any(e != sims[0] for e in sims):
            split.append(seed)
    repeated = len(runs) - len(by_seed)
    if split:
        print(f"{workload}: EXACT OUTPUTS DIFFER at seeds {split}")
    elif repeated:
        print(f"{workload}: digest and sim_* identical across the "
              f"{repeated} repeated-seed run(s)")


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    groups = {}
    for path in argv[1:]:
        try:
            manifest, result = load(path)
        except (OSError, ValueError) as e:
            print(f"summarize: {e}", file=sys.stderr)
            return 2
        key = (manifest["workload"], manifest["trace"])
        groups.setdefault(key, []).append((manifest, result))
    bound_of = bounds()
    for key in sorted(groups):
        # Stable sort: same-second runs keep their argument order.
        runs = sorted(groups[key], key=lambda mr: mr[0]["timestamp"])
        summarize(key, runs, bound_of)
    for workload in sorted({w for w, _ in groups}):
        check_exact(workload, [run for (w, _), runs in groups.items()
                               if w == workload for run in runs])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
