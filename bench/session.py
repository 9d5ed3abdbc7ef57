"""One benchmark session: a fresh interpreter that imports doublecrystal,
makes its seeded inputs and runs rounds of one workload's ops.

Started by run.py, one session at a time; prints one JSON report as its
last line of output.  A traced session also records spans, then runs one
small round of each other workload so that every per-layer metric is
measured, and writes the spans under .bench_run/trace/ when it ends.

    python3 bench/session.py --workload crystal --seed 1 --session 0 --budget 5 --trace 0
"""

import argparse
import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the source tree on sys.path)
from tracing import NullTracer, Tracer, median, slowdowns  # noqa: E402


def new_stats():
    return {"attempted": 0, "failed": 0, "failures": [], "op_times": [],
            "op_spans": [], "refs": []}


def run_rounds(wl, rounds, tr, budget, stats):
    """Run whole rounds until the next one would overrun the budget (wall
    seconds); at least one round.  Each op: untimed prepare, timed run,
    untimed check.  The workload's reference runs at the start, between ops
    every ref_every_s, and at the end.  Returns [(op id, op)] of the ops run."""
    done = []
    refs = stats["refs"]
    refs += [(time.monotonic(), wl.reference()) for _ in range(wl.ref_batch)]
    start = time.monotonic()
    last = 0.0
    r = 0
    while r == 0 or (time.monotonic() - start + last <= budget
                     and (wl.max_rounds is None or r < wl.max_rounds)):
        t_round = time.monotonic()
        for op in rounds[r % len(rounds)]:
            stats["attempted"] += 1
            tr.op_id = oid = stats["attempted"]
            done.append((oid, op))
            t0 = dt = None
            wall = time.monotonic()
            try:
                wl.prepare(op, tr)
                t0 = wl.clock()
                res = tr.call("op." + wl.name, wl.run, op, tr)
                dt = wl.clock() - t0
                ok = bool(wl.check(op, res))
                reason = "check rejected the output"
            except Exception as exc:  # an op that raises is a failed op
                if dt is None:
                    dt = 0.0 if t0 is None else wl.clock() - t0
                ok, reason = False, f"{type(exc).__name__}: {exc}"
            stats["op_times"].append(dt)
            stats["op_spans"].append((wall, time.monotonic()))
            if time.monotonic() - refs[-1][0] >= wl.ref_every_s:
                refs.append((time.monotonic(), wl.reference()))
            if not ok:
                stats["failed"] += 1
                if len(stats["failures"]) < 5:
                    stats["failures"].append(f"{wl.name} op {oid}: {reason}"[:300])
        last = time.monotonic() - t_round
        r += 1
    refs += [(time.monotonic(), wl.reference()) for _ in range(wl.ref_batch)]
    return done


def measure_others(traced, seed, report):
    """One small round of every other workload, traced, for the per-layer
    metrics they own.  Returns {workload: tracer}."""
    traces = {}
    for name, cls in workloads.WORKLOADS.items():
        if name == traced:
            continue
        wl = cls(ROOT, seed)
        try:
            rounds = wl.inputs(random.Random(f"{seed}:{name}:mini"), "mini")
            tr = traces[name] = Tracer(wl.clock)
            stats = new_stats()
            done = run_rounds(wl, rounds, tr, 0.0, stats)
            report["layers"].update(wl.layers(tr, rounds, done))
        finally:
            wl.close()
        report["attempted"] += stats["attempted"]
        report["failed"] += stats["failed"]
        report["failures"] += stats["failures"]
    return traces


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--session", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    rounds = wl.inputs(random.Random(f"{args.seed}:{wl.name}:{args.session}"), "full")
    setup_s = time.process_time()
    stats = new_stats()
    tr = Tracer(wl.clock) if args.trace else NullTracer(wl.clock)
    try:
        done = run_rounds(wl, rounds, tr, args.budget, stats)
        first = [cpu for _, cpu in stats["refs"][:wl.ref_batch]]
        report = {"setup_s": setup_s, "peak_rss_kb": wl.peak_rss_kb(),
                  "setup_slowdown": median(first) / wl.ref_nominal_s,
                  "op_slowdowns": slowdowns(stats["op_spans"], stats["refs"],
                                            wl.ref_nominal_s), **stats}
        if args.trace:
            report["layers"] = wl.layers(tr, rounds, done)
    finally:
        wl.close()
    if args.trace:
        traces = {wl.name: tr, **measure_others(wl.name, args.seed, report)}
        counts = {k: v for k, (v, unit) in report["layers"].items() if unit == "count"}
        path = ROOT / ".bench_run" / "trace" / f"{wl.name}-seed{args.seed}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "workload": wl.name, "seed": args.seed, "counts": counts,
            "traces": {name: t.export() for name, t in traces.items()},
        }) + "\n")
    print(json.dumps(report))


if __name__ == "__main__":
    main()
