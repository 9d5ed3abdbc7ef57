"""doublecrystal benchmark: one command for every workload and metric.

    python3 bench/run.py --workload crystal --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from anywhere inside a checkout; it reads the package from src/ and
writes only under .bench_run/.  A run is a sequence of sessions, each a
fresh interpreter (bench/session.py) started after the previous one ended,
until --seconds of wall time are used.  The last line of output is one JSON
object {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer metrics.

Times are CPU seconds (user + system) of the process doing the work, and
of its children for the cli workload: on this single-threaded, CPU-bound
program they equal wall time on an idle core, and they do not count time
other tenants of a shared machine hold the core.  Such a machine also runs
the same code up to twice as slow, switching within seconds, so end-to-end
times are scaled to full speed: each session times a fixed reference
between ops (a pure-Python loop kept in the benchmark; for cli ops, a bare
interpreter), and each op's time is divided by the median reference time
around it over the reference's full-speed time.  The summary line shows
each session's median slowdown.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("crystal", "growth", "sums", "cli")
SESSIONS = 3  # an untraced run has at least 3 sessions, each given a third of the time
SESSION_TIMEOUT = 170


def session(workload, seed, index, budget, trace):
    cmd = [sys.executable, str(BENCH / "session.py"), "--workload", workload,
           "--seed", str(seed), "--session", str(index), "--budget", str(budget),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=SESSION_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"session {workload}/{index} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def scaled(run):
    """A session's op times, each divided by the slowdown around it."""
    return [t / f for t, f in zip(run["op_times"], run["op_slowdowns"])]


def measure(workload, seed, seconds):
    """Untraced sessions until the time is used; end-to-end metrics."""
    runs = []
    start = time.monotonic()
    while len(runs) < SESSIONS or (
            time.monotonic() - start) * (len(runs) + 1) / len(runs) <= seconds:
        runs.append(session(workload, seed, len(runs), seconds / SESSIONS, 0))
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] / r["setup_slowdown"] for r in runs), "s"),
        "ops_per_s": (statistics.median(len(r["op_times"]) / sum(scaled(r)) for r in runs),
                      "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(t for r in runs for t in scaled(r)), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] for r in runs) / 1024, "MB"),
    }
    return runs, metrics


def measure_traced(workload, seed, seconds):
    """An untraced and a traced session on the same inputs: per-layer
    metrics from the traced one, and the tracing overhead from both."""
    # a third of the time each, as the traced session then runs the others
    base = session(workload, seed, 0, seconds / 3, 0)
    traced = session(workload, seed, 0, seconds / 3, 1)
    n = min(len(base["op_times"]), len(traced["op_times"]))
    metrics = dict(traced.pop("layers"))
    metrics["trace.overhead_ratio"] = (sum(scaled(traced)[:n]) / sum(scaled(base)[:n]), "1")
    return [base, traced], metrics


def summary_line(workload, runs, metrics):
    """Human-readable end-to-end figures, with sample counts."""
    ops = sorted(t for r in runs for t in scaled(r))
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    parts = [f"{name}={value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    # the highest percentile with at least ten samples beyond it
    p90 = (f"{1e3 * ops[math.ceil(0.9 * len(ops)) - 1]:.6g} ms" if len(ops) >= 100
           else "n/a (needs 100 ops)")
    parts += [f"ops={len(ops)}", f"sessions={len(runs)}", f"latency_p90_ms={p90}",
              "slowdown=[" + ", ".join(f"{statistics.median(r['op_slowdowns']):.3f}"
                                       for r in runs) + "]",
              f"failed_ratio={failed / attempted:.6g} ({failed}/{attempted})"]
    return f"{workload}: " + "  ".join(parts)


def declared(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result(runs, metrics):
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "doublecrystal" / "__init__.py").is_file():
        print(f"bench: no doublecrystal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # compile the package once, so that no session's set-up pays for it
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", "import doublecrystal.cli, doublecrystal.verify"],
                   env=env, check=True, timeout=SESSION_TIMEOUT)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    want = declared(args.trace)
    every = {}
    all_runs = []
    for name in names:
        if args.trace:
            runs, metrics = measure_traced(name, args.seed, args.seconds)
        else:
            runs, metrics = measure(name, args.seed, args.seconds)
        got = {k: unit for k, (_, unit) in metrics.items()}
        if got != want or not all(math.isfinite(v) for v, _ in metrics.values()):
            print(f"bench: {name} metrics do not match BENCHMARK.json or are not finite: "
                  f"{sorted(set(got) ^ set(want))}", file=sys.stderr)
            return 1
        for r in runs:
            for line in r["failures"]:
                print(f"failed: {line}")
        print(summary_line(name, runs, metrics))
        all_runs += runs
        every.update({k if len(names) == 1 else f"{name}.{k}": v for k, v in metrics.items()})
    print(json.dumps(result(all_runs, every)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
