#!/usr/bin/env python3
"""Line coverage of src/*.cc from a gcov-instrumented build.

Usage: python3 scripts/coverage_report.py BUILD_DIR

Configure BUILD_DIR with -DCMAKE_CXX_FLAGS="--coverage -O0", build it and
run ctest there first. The report reads the .gcda counters of the
rome_core library through `gcov --json-format` and prints:

  - per-file line coverage of every src/**/*.cc, lowest first;
  - every unexecuted line outside a fatal() or panic() call (those arms
    exist to stop a run, and a passing suite never reaches them), leaving
    out lines that hold only a closing brace.

It only prints; there is no threshold and the exit status is 0 unless
gcov itself fails.
"""

import json
import pathlib
import subprocess
import sys


def line_counts(build: pathlib.Path, root: pathlib.Path):
    """{source path relative to root: {line number: execution count}}."""
    counts = {}
    objdir = build / "CMakeFiles" / "rome_core.dir"
    for gcda in sorted(objdir.rglob("*.gcda")):
        out = subprocess.run(
            ["gcov", "--json-format", "--stdout", str(gcda)],
            cwd=build, capture_output=True, text=True, check=True).stdout
        for doc in out.splitlines():
            for f in json.loads(doc)["files"]:
                path = pathlib.Path(f["file"])
                if not path.is_absolute():
                    path = (build / path).resolve()
                if path.suffix != ".cc" or root / "src" not in path.parents:
                    continue
                lines = counts.setdefault(str(path.relative_to(root)), {})
                for ln in f["lines"]:
                    n = ln["line_number"]
                    lines[n] = lines.get(n, 0) + ln["count"]
    return counts


def stop_lines(text):
    """Line numbers of fatal()/panic() statements, continuations included."""
    out = set()
    inside = False
    for n, line in enumerate(text, start=1):
        code = line.split("//")[0].strip()
        inside = inside or "fatal(" in code or "panic(" in code
        if inside:
            out.add(n)
            inside = not code.endswith(";")
    return out


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    build = pathlib.Path(sys.argv[1]).resolve()
    root = pathlib.Path(__file__).resolve().parent.parent
    counts = line_counts(build, root)
    if not counts:
        sys.exit(f"no rome_core coverage data under {build}")

    rows = []
    for path, lines in counts.items():
        hit = sum(1 for c in lines.values() if c > 0)
        rows.append((hit / len(lines), path, hit, len(lines)))
    rows.sort()
    total_hit = sum(r[2] for r in rows)
    total = sum(r[3] for r in rows)
    print("line coverage of src/*.cc, lowest first")
    for frac, path, hit, n in rows:
        print(f"{100 * frac:6.1f}%  {hit:5d} / {n:5d}  {path}")
    print(f"{100 * total_hit / total:6.1f}%  {total_hit:5d} / {total:5d}  "
          "total")

    print("\nunexecuted lines, fatal() and panic() calls left out")
    for _, path, _, _ in rows:
        text = (root / path).read_text().splitlines()
        stops = stop_lines(text)
        for n in sorted(counts[path]):
            src = text[n - 1].strip()
            if counts[path][n] > 0 or n in stops or src in ("}", "};"):
                continue
            print(f"{path}:{n}: {src}")


if __name__ == "__main__":
    main()
