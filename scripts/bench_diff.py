#!/usr/bin/env python3
"""Compare two BENCH_*.json artifacts.

Usage:
    bench_diff.py OLD.json NEW.json [--threshold FRAC]

Matches `rows` entries between the two files by their identity fields
(label / system / workload / queueDepth / banks / design / pagePolicy /
load / cubes / router) and compares the perf metrics:

  - *StepsPerSec, speedup        higher is better
  - *Seconds                     lower is better
  - *P99Ns, *P999Ns              lower is better (serving tail latency)

A metric counts as regressed when it moved against its direction by more
than FRAC (default 0.15 — bench runners are noisy). Top-level metrics of
the same names are compared too. Exit status: 0 clean, 1 regressions
found, 2 usage/parse error.
"""

import json
import sys

HIGHER_IS_BETTER = ("stepspersec", "speedup")
# p999ns before p99ns is irrelevant (suffix match), but keep tail-latency
# percentiles distinct: latencyP99Ns / latencyP999Ns from the serving rows.
LOWER_IS_BETTER = ("seconds", "p99ns", "p999ns")
# Reliability counters are descriptive, not perf: a row with more CEs is a
# row that injected more faults, while latencyP99Ns on the same row stays a
# real lower-is-better metric (retries inflate it honestly). Sweep
# wall-clock columns (serialSweepSeconds / shardedSweepSeconds) are
# machine-load-sensitive, so they display but never gate — checked before
# the generic "seconds" suffix would make them lower-is-better. The
# telemetry overhead percentage is gated by the bench binary itself
# (hard <10% exit gate), so here it is informational. fanOutPeak is
# host-memory evidence (requests the stream fan-out held), not perf.
INFORMATIONAL = ("cecount", "duecount", "retrycount", "scrubcount",
                 "sparedrows", "poisonedrequests", "schedsteps",
                 "sweepseconds", "telemetryoverheadpct", "fanoutpeak")
IDENTITY_FIELDS = ("label", "system", "workload", "queueDepth", "banks",
                   "design", "pagePolicy", "load", "cubes", "router")


def metric_direction(key):
    """+1 higher-better, -1 lower-better, 0 not a perf metric."""
    k = key.lower()
    if k.endswith(INFORMATIONAL):
        return 0
    if k.endswith(HIGHER_IS_BETTER):
        return 1
    if k.endswith(LOWER_IS_BETTER):
        return -1
    return 0


def row_identity(row):
    return tuple((f, row[f]) for f in IDENTITY_FIELDS if f in row)


def compare_metrics(ident, old, new, threshold, report):
    regressions = 0
    for key, old_val in old.items():
        direction = metric_direction(key)
        if direction == 0 or not isinstance(old_val, (int, float)):
            continue
        new_val = new.get(key)
        if not isinstance(new_val, (int, float)) or old_val == 0:
            continue
        change = (new_val - old_val) / abs(old_val)
        regressed = direction * change < -threshold
        if regressed:
            regressions += 1
            report.append(
                f"REGRESSION {ident}: {key} {old_val:.4g} -> "
                f"{new_val:.4g} ({change:+.1%})")
    return regressions


def main(argv):
    args = []
    threshold = 0.15
    rest = argv[1:]
    while rest:
        a = rest.pop(0)
        if a == "--threshold" and rest:
            a = "--threshold=" + rest.pop(0)
        if a.startswith("--threshold="):
            try:
                threshold = float(a.split("=", 1)[1])
            except ValueError:
                print("bad --threshold value", file=sys.stderr)
                return 2
        elif a.startswith("--"):
            print(f"unknown option {a}", file=sys.stderr)
            return 2
        else:
            args.append(a)
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2

    try:
        with open(args[0]) as f:
            old = json.load(f)
        with open(args[1]) as f:
            new = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"cannot load artifacts: {e}", file=sys.stderr)
        return 2

    report = []
    regressions = compare_metrics("(top level)", old, new, threshold,
                                  report)

    old_rows = {row_identity(r): r for r in old.get("rows", [])}
    matched = 0
    for r in new.get("rows", []):
        base = old_rows.get(row_identity(r))
        if base is None:
            continue
        matched += 1
        ident = " ".join(str(v) for _, v in row_identity(r))
        regressions += compare_metrics(ident, base, r, threshold, report)

    bench = new.get("bench", "?")
    print(f"bench_diff: {bench}: {matched} matched rows, "
          f"{regressions} regression(s) beyond {threshold:.0%}")
    for line in report:
        print(line)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
