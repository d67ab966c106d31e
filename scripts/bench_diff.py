#!/usr/bin/env python3
"""Compare BENCH_*.json artifacts and track perf across runs.

Usage:
    bench_diff.py OLD.json NEW.json [--threshold FRAC]
    bench_diff.py append-history HISTORY.jsonl BENCH.json... [--sha SHA]
    bench_diff.py history-table HISTORY.jsonl [--last N]

Diff mode matches `rows` entries between the two files by their identity
fields (label / system / workload / queueDepth / banks / design /
pagePolicy) and compares the perf metrics:

  - *StepsPerSec, speedup        higher is better
  - *Seconds                     lower is better
  - *P99Ns, *P999Ns              lower is better (serving tail latency)

A metric counts as regressed when it moved against its direction by more
than FRAC (default 0.15 — bench runners are noisy). Top-level metrics of
the same names are compared too. Exit status: 0 clean, 1 regressions
found, 2 usage/parse error.

append-history extracts every *StepsPerSec metric (top level and per
row) from the given bench files and appends one JSON line — tagged with
--sha — to HISTORY.jsonl, creating it if needed. history-table renders
the last N history lines (default 8) as a markdown table, one metric per
row and one run per column, so a PR comment can show the throughput
trajectory across runs, not just one pairwise diff.

Intended CI use: download the base branch's bench-json and bench-history
artifacts, diff the PR's fresh bench JSON against the former, append the
fresh numbers to the latter, post diff + trajectory table as the sticky
PR comment, and re-upload the extended history.
"""

import json
import os
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
                 "memoffsteps", "fffraction", "sweepseconds",
                 "telemetryoverheadpct", "fanoutpeak")
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


def steps_metrics(data):
    """Every *StepsPerSec metric of a bench file as {'ident key': value}.

    Top-level *SweepSeconds wall-clock columns ride along for the
    trajectory table: informational only — the history is display-only
    and the row diff never sees top-level keys, so they cannot gate.
    """
    out = {}
    for key, val in data.items():
        if key.lower().endswith(("stepspersec", "sweepseconds")) and \
                isinstance(val, (int, float)):
            out[key] = val
    for row in data.get("rows", []):
        ident = " ".join(str(v) for _, v in row_identity(row))
        for key, val in row.items():
            if key.lower().endswith("stepspersec") and \
                    isinstance(val, (int, float)):
                out[f"{ident} {key}"] = val
    return out


def human(value):
    for scale, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(value) >= scale:
            return f"{value / scale:.3g}{suffix}"
    return f"{value:.3g}"


def append_history(argv):
    sha = ""
    paths = []
    rest = argv
    while rest:
        a = rest.pop(0)
        if a == "--sha" and rest:
            sha = rest.pop(0)
        elif a.startswith("--sha="):
            sha = a.split("=", 1)[1]
        elif a.startswith("--"):
            print(f"unknown option {a}", file=sys.stderr)
            return 2
        else:
            paths.append(a)
    if not paths:
        print(__doc__, file=sys.stderr)
        return 2
    history, benches = paths[0], paths[1:]
    entry = {"sha": sha, "benches": {}}
    for path in benches:
        try:
            with open(path) as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            # A missing bench artifact must not wipe the trajectory of
            # the others: record what exists, note what does not.
            print(f"append-history: skipping {path}: {e}",
                  file=sys.stderr)
            continue
        entry["benches"][data.get("bench", os.path.basename(path))] = \
            steps_metrics(data)
    parent = os.path.dirname(history)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(history, "a") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")
    n = sum(len(m) for m in entry["benches"].values())
    print(f"append-history: {history}: recorded {n} trajectory metric(s) "
          f"from {len(entry['benches'])} bench(es)")
    return 0


def history_table(argv):
    last = 8
    paths = []
    rest = argv
    while rest:
        a = rest.pop(0)
        if a == "--last" and rest:
            a = "--last=" + rest.pop(0)
        if a.startswith("--last="):
            try:
                last = int(a.split("=", 1)[1])
            except ValueError:
                print("bad --last value", file=sys.stderr)
                return 2
        elif a.startswith("--"):
            print(f"unknown option {a}", file=sys.stderr)
            return 2
        else:
            paths.append(a)
    if len(paths) != 1 or last < 1:
        print(__doc__, file=sys.stderr)
        return 2
    entries = []
    try:
        with open(paths[0]) as f:
            for line in f:
                line = line.strip()
                if line:
                    entries.append(json.loads(line))
    except (OSError, json.JSONDecodeError) as e:
        print(f"cannot load history: {e}", file=sys.stderr)
        return 2
    entries = entries[-last:]
    if not entries:
        print("history is empty")
        return 0

    def col(entry):
        sha = entry.get("sha", "")
        return sha[:9] if sha else "?"

    print(f"throughput and sweep wall-clock across the last "
          f"{len(entries)} run(s), oldest first:")
    print()
    print("| metric | " + " | ".join(col(e) for e in entries) + " |")
    print("|---" * (len(entries) + 1) + "|")
    names = []
    seen = set()
    for e in entries:
        for bench, metrics in sorted(e.get("benches", {}).items()):
            for key in metrics:
                if (bench, key) not in seen:
                    seen.add((bench, key))
                    names.append((bench, key))
    for bench, key in names:
        cells = []
        for e in entries:
            val = e.get("benches", {}).get(bench, {}).get(key)
            cells.append(human(val) if isinstance(val, (int, float))
                         else "—")
        print(f"| {bench}: {key} | " + " | ".join(cells) + " |")
    return 0


def main(argv):
    if len(argv) > 1 and argv[1] == "append-history":
        return append_history(argv[2:])
    if len(argv) > 1 and argv[1] == "history-table":
        return history_table(argv[2:])
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
