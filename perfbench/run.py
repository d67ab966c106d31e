#!/usr/bin/env python3
"""Run one benchmark workload of the RoMe simulator and report its metrics.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

The first run builds the simulator and the benchmark driver from source
into .bench_build/ (CMake, Release, oracles off). Each run then executes
one workload in its own process and prints:

  - a table of metrics by name and unit, the latency sample count, the
    output checks and the stats digest;
  - a manifest line, {"manifest": {...}}: git rev (when the checkout is a
    git repository), source digest, timestamp, build type, ROME_ORACLES,
    compiler, nproc, engine threads, seed and the stream's size and
    checksum;
  - as the last line, the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (and writes a Chrome trace-event file under
.bench_build/out/). The exit status is 0 when every output check passed,
1 when one failed, 2 when the benchmark could not run.
"""

import argparse
import datetime
import fcntl
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
STREAM = ROOT / "tests" / "data" / "serving.trace"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{cmd[0]} timed out after {timeout} s")
    return proc.returncode, out


def build():
    """Configure once, then bring the build up to date (a no-op when it is)."""
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(BUILD / ".lock", "w") as lock, open(log, "w") as out:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
        for cmd in steps:
            code, _ = run_group(cmd, BUILD_TIMEOUT_S, stdout=out,
                                stderr=subprocess.STDOUT)
            if code != 0:
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build failed ({' '.join(cmd[:2])}); see {log}")
    return BUILD / "perfbench"


def git_rev():
    """HEAD of the checkout when it is a git repository itself; the
    ceiling keeps git from reporting an enclosing repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def source_digest():
    """sha256 over the simulator and benchmark sources, path-ordered."""
    h = hashlib.sha256()
    files = [p for d in (ROOT / "src", HERE) for p in d.rglob("*")
             if p.is_file() and "__pycache__" not in p.parts]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="measuring budget; the work per workload is fixed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    if not 0 <= args.seed < 2**64:
        fail("--seed must be in [0, 2^64)")
    seconds = args.seconds if args.seconds is not None \
        else spec["run_seconds"]
    if not (src_dir := ROOT / "src").is_dir() or not STREAM.is_file():
        fail(f"no simulator checkout around {HERE} "
             f"(need {src_dir} and {STREAM})")

    binary = build()
    out_dir = BUILD / "out"
    out_dir.mkdir(exist_ok=True)
    trace_out = out_dir / f"{args.workload}-seed{args.seed}.trace.json"
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--stream", str(STREAM),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(trace_out)]
    started = datetime.datetime.now(datetime.timezone.utc)
    code, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                          text=True)
    report = parse_report(out)
    if code not in (0, 1) or "digest" not in report:
        fail(f"the benchmark driver failed (status {code})")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    got = report["metrics"]
    correct = code == 0 and all(report["checks"].values())
    metrics = {}
    for m in wanted:
        have = got.get(m["name"])
        if have is None or have["unit"] != m["unit"]:
            print(f"perfbench: metric {m['name']} missing or not in "
                  f"{m['unit']}", file=sys.stderr)
            correct = False
            continue
        metrics[m["name"]] = {"value": have["value"], "unit": m["unit"]}

    mode = "traced run: per-layer metrics" if args.trace \
        else "end-to-end metrics"
    print(f"perfbench {args.workload} seed={args.seed} ({mode})")
    for name, m in got.items():
        print(f"  {name:<28} {m['value']:>16.6g} {m['unit']}")
    samples = int(report["latency_samples"])
    print(f"  latency samples {samples} ({samples // 1000} beyond p99.9)")
    for name, ok in report["checks"].items():
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}")
    print(f"  stats digest {report['digest']}")
    if args.trace:
        print_layer_shares(got, report)
        print(f"  spans: {trace_out.relative_to(ROOT)}")

    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_rev": git_rev(),
        "source_digest": source_digest(),
        "timestamp": started.isoformat(timespec="seconds"),
        "build_type": report["build_type"],
        "rome_oracles": int(report["rome_oracles"]),
        "compiler": report["compiler"],
        "nproc": len(os.sched_getaffinity(0)),
        "engine_threads": int(report["engine_threads"]),
        "channels": int(report["channels"]),
        "offered_mrps": float(report["offered_mrps"]),
        "stream_file": (Path(report["stream_file"]).relative_to(ROOT)
                        .as_posix() if "stream_file" in report else None),
        "stream_file_bytes": (int(report["stream_file_bytes"])
                              if "stream_file_bytes" in report else None),
        "stream_file_fnv1a64": report.get("stream_file_fnv1a64"),
        "stream_requests": int(report["stream_requests"]),
        "latency_samples": samples,
        "setups": int(report["setups"]),
        "budget_s": seconds,
        "elapsed_s": round((datetime.datetime.now(datetime.timezone.utc)
                            - started).total_seconds(), 3),
        "digest": report["digest"],
    }
    print(json.dumps({"manifest": manifest}))
    attempted = int(report["attempted"])
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": 0 if correct else attempted,
                      "metrics": metrics}))
    return 0 if correct else 1


def parse_report(out):
    """Read the driver's report: key/value lines, checks and metrics."""
    report = {"checks": {}, "metrics": {}}
    for line in out.splitlines():
        key, _, rest = line.partition(" ")
        if key == "check":
            verdict, _, name = rest.partition(" ")
            report["checks"][name] = verdict == "ok"
        elif key == "metric":
            name, value, unit = rest.split()
            report["metrics"][name] = {"value": float(value), "unit": unit}
        elif rest:
            report[key] = rest
    return report


def print_layer_shares(got, report):
    """Where the traced run's CPU went, against the predicted layer map."""
    cpu = float(report["traced_cpu_s"])
    if cpu <= 0:
        return
    share = {k: got[k]["value"] / cpu for k in
             ("source.self_s", "stream.self_s", "mc.self_s", "rome.self_s")}
    stream_share = share["source.self_s"] + share["stream.self_s"]
    print(f"  traced cpu {cpu:.3f} s: source+stream "
          f"{stream_share:.1%}, mc {share['mc.self_s']:.1%}, "
          f"rome {share['rome.self_s']:.1%}, "
          f"overhead {got['trace.overhead_frac']['value']:.1%}")


if __name__ == "__main__":
    sys.exit(main())
