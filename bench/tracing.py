"""Spans around the benchmark's own calls into doublecrystal, and the small
statistics the benchmark reports.

A span is (name, start, end, parent, op): `parent` is the index of the
enclosing span or -1, `op` the id of the op that caused it.  Spans stay in
memory and are written once, when the run ends.  Nothing inside the
package is instrumented; the spans wrap the benchmark's calls only.
"""

import math
import statistics
import time


REF_NOMINAL_S = 0.002  # CPU time of reference() when the machine runs at full speed
_WORD = tuple((i * 7919) % 23 for i in range(400))


def cpu_clock():
    """CPU seconds of this process (user + system)."""
    return time.process_time()


def reference():
    """A fixed piece of pure-Python work in the style of the package: row
    insertion of a fixed word, recording trimmed shapes.  It lives here,
    not in the package, so that no change to the package moves it.
    Returns the CPU seconds it took."""
    t0 = time.process_time()
    rows = []
    shapes = {}
    for x in _WORD:
        for row in rows:
            for j, y in enumerate(row):
                if y > x:
                    row[j], x = x, y
                    break
            else:
                row.append(x)
                break
        else:
            rows.append([x])
        shape = tuple(len(r) for r in rows)
        shapes[shape] = shapes.get(shape, 0) + 1
    return time.process_time() - t0


def slowdowns(op_spans, refs, nominal, window=0.25):
    """Per op, how much slower than full speed the machine ran around it:
    the median reference time within `window` wall seconds of the op, or
    within the op's own duration if longer (at least the three nearest),
    over the reference's full-speed time.

    op_spans: [(wall start, wall end)]; refs: [(wall time, CPU seconds)]."""
    out = []
    for a, b in op_spans:
        w = max(window, b - a)
        near = [cpu for t, cpu in refs if a - w <= t <= b + w]
        if len(near) < 3:
            near = [cpu for _, cpu in sorted(refs, key=lambda r: abs(r[0] - (a + b) / 2))[:3]]
        out.append(statistics.median(near) / nominal)
    return out


class NullTracer:
    """Untraced runs: calls go straight through."""

    op_id = -1

    def __init__(self, clock=cpu_clock):
        self.clock = clock

    def call(self, name, fn, *args):
        return fn(*args)


class Tracer(NullTracer):
    """Records one span per call, nested under the span open at the time."""

    def __init__(self, clock=cpu_clock):
        super().__init__(clock)
        self.spans = []
        self._stack = []

    def call(self, name, fn, *args):
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op_id]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = self.clock()
        try:
            return fn(*args)
        finally:
            span[2] = self.clock()
            self._stack.pop()

    def durations(self, name):
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def by_op(self, name):
        """{op id: total duration} of the spans with this name."""
        out = {}
        for s in self.spans:
            if s[0] == name:
                out[s[4]] = out.get(s[4], 0.0) + s[2] - s[1]
        return out

    def self_times(self):
        """Per span: its duration minus the part covered by its children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def summary(self):
        """{name: {count, total_s, self_s}} over all spans."""
        out = {}
        for s, own in zip(self.spans, self.self_times()):
            row = out.setdefault(s[0], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += s[2] - s[1]
            row["self_s"] += own
        return out

    def export(self):
        keys = ("name", "start", "end", "parent", "op")
        return {"layers": self.summary(), "spans": [dict(zip(keys, s)) for s in self.spans]}


def median(values):
    return statistics.median(values) if values else float("nan")


def loglog_slope(points):
    """Least-squares slope of log(y) over log(x)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    den = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den if den else float("nan")


def per_call(fn, args_list, repeats=5):
    """Median over repeats of the mean wall time of one call, in seconds."""
    if not args_list:
        return float("nan")
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for args in args_list:
            fn(*args)
        times.append((time.perf_counter() - t0) / len(args_list))
    return statistics.median(times)


def each_call(fn, args_list, repeats=3):
    """Median wall time of single calls over every argument tuple, in seconds."""
    times = []
    clock = time.perf_counter
    for _ in range(repeats):
        for args in args_list:
            t0 = clock()
            fn(*args)
            times.append(clock() - t0)
    return median(times)
