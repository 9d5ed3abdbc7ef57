"""The benchmark's four workloads.

Each workload builds its inputs from a seeded random generator, runs them
as ops in rounds, and checks every op against an independent route outside
the op's timed interval:

- crystal: decompose, compose, normal_form and the Schutzenberger dual of
  random square matrices, checked against the insertion oracles;
- growth: growth diagrams in all four orientations, checked against the
  insertion oracles at the full corner and at one seeded inner point;
- sums: the alternating sums, LR counts, pictures and LR involutions of
  ordered pairs of equal-weight skew shapes, checked by agreement;
- cli: `python -m doublecrystal.cli` subprocesses, checked against the
  in-process library results.

`layers` turns a traced session's spans, plus direct calls into single
layers, into the per-layer metrics the workload owns.  The caller puts
the source tree on `sys.path` before importing this module.
"""

import contextlib
import io
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from types import SimpleNamespace as Op

import doublecrystal as dc
from doublecrystal import cancellation as C
from doublecrystal import crystal_binary, crystal_integral
from doublecrystal.crystal_binary import DIRECTIONS
from doublecrystal.growth import NE, NW, ORIENTATIONS, ROW_INSERTION, SE, SW
from doublecrystal.matrices import BINARY, INTEGRAL, LR, matrix_type
from doublecrystal.shapes import HORIZONTAL, SST, Tableau, conjugate, format_partition, part, trim

from tracing import (
    REF_NOMINAL_S,
    NullTracer,
    cpu_clock,
    each_call,
    loglog_slope,
    median,
    per_call,
    reference,
)

MODES = (BINARY, INTEGRAL)
POOL_ROUNDS = 4  # rounds of inputs made per session; a long session cycles
CRYSTAL_SIZES = {"full": (8, 16, 24), "mini": (4, 8, 12)}
GROWTH_SIZES = {"full": (24, 32, 40), "mini": (8, 12, 16)}
SUMS_WEIGHTS = {"full": (2, 3, 4), "mini": (2,)}
CLI_SIDES = {"full": (6, 12), "mini": (3, 6)}
BOX = (6, 6)
CHILD_TIMEOUT_S = 60
NULL = NullTracer()


def random_matrix(rng, mode, h, w):
    """Binary entries of density 1/2, or integral entries 0..2."""
    cap = 1 if mode == BINARY else 2
    return matrix_type(mode)([[rng.randint(0, cap) for _ in range(w)] for _ in range(h)])


def oracle(m, tr):
    """(insertion tableau, second tableau) by dual RSK (binary) or Burge."""
    if m.binary:
        return tr.call("insertion.dual_rsk_col", dc.insertion.dual_rsk_col, m)
    return tr.call("insertion.burge", dc.insertion.burge, m)


def oracle_pq(m, s, other):
    """The pair (P, Q) from the oracle tableaux, in the relations the
    `oracles` verify suite checks: Q encodes s (binary) and the column
    suffix sums of P give the recording chain; P encodes s and Q is the
    transposed encoding of the recording tableau (integral)."""
    if not m.binary:
        return dc.encode(s, INTEGRAL), dc.encode(other, INTEGRAL).transpose()
    n = m.width
    chain = other.padded_chain(n + 1)
    rows = [[part(chain[j], i) - part(chain[j + 1], i) for j in range(n)]
            for i in range(len(chain[0]))]
    return dc.BinaryMatrix(rows), dc.encode(s, BINARY)


def unit_moves(m, lam):
    """Unit moves decompose(m) makes, from margins alone.

    An upward move at index r takes one unit from row r+1 to row r, so the
    upward moves number sum r * (rowsum_M[r] - rowsum_P[r]); leftward moves
    likewise on columns.  rowsum_P is the normal-form shape lam, colsum_Q
    is lam (integral) or its conjugate (binary)."""
    lam_q = conjugate(lam) if m.binary else lam

    def moment(xs):
        return sum(i * x for i, x in enumerate(xs))

    return moment(m.row_sums()) - moment(lam) + moment(m.col_sums()) - moment(lam_q)


def skew_shapes(max_weight):
    S = dc.shapes
    return [S.SkewShape(o, i) for o in S.partitions_up_to(max_weight) for i in S.subpartitions(o)]


def hstrips(p, t, outer):
    """Partitions q inside outer such that q/p is a horizontal strip of t boxes."""

    def rec(i, left):
        if i == len(outer):
            if left == 0:
                yield ()
            return
        lo = part(p, i)
        hi = min(outer[i], lo + left, part(p, i - 1) if i else outer[0])
        for v in range(lo, hi + 1):
            for rest in rec(i + 1, left - (v - lo)):
                yield (v,) + rest

    for q in rec(0, t):
        yield trim(q)


def tableau_chains(inner, outer, weights):
    """Chains inner <=h ... <=h outer with the given strip sizes: the
    semistandard tableaux of shape outer/inner with that content."""
    chains = [(inner,)]
    for t in weights:
        chains = [ch + (q,) for ch in chains for q in hstrips(ch[-1], t, outer)]
    return [ch for ch in chains if ch[-1] == outer]


class Workload:
    """Inputs, ops, checks and layer metrics of one workload."""

    name = ""
    max_rounds = None
    clock = staticmethod(cpu_clock)
    # the reference timed between ops, to scale op times to full speed
    ref_nominal_s = REF_NOMINAL_S
    ref_every_s = 0.05  # wall seconds between two reference runs
    ref_batch = 5  # reference runs at the start and at the end of a session

    def __init__(self, root, seed):
        self.root = root
        self.seed = seed

    def prepare(self, op, tr):
        """Untimed work an op needs before it runs, cached on the op."""

    def reference(self):
        return reference()

    def peak_rss_kb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def close(self):
        pass


class Crystal(Workload):
    """Full raising (decompose), replayed lowering (compose) and bounded
    lowering (the dual), the n^4 path of the crystal kernels."""

    name = "crystal"

    def inputs(self, rng, scale):
        sizes = CRYSTAL_SIZES[scale]
        # one matrix per mode and size, and a second binary one of the middle
        # size: with an even mix of the six classes the median op lies in
        # the gap between binary and integral middle-size ops, and moves with
        # the two ops at its edges
        classes = [(mode, n) for mode in MODES for n in sizes] + [(BINARY, sizes[1])]
        rounds = []
        for _ in range(POOL_ROUNDS):
            ops = [Op(mode=mode, n=n, m=random_matrix(rng, mode, n, n), oracle=None)
                   for mode, n in classes]
            rng.shuffle(ops)
            rounds.append(ops)
        return rounds

    def prepare(self, op, tr):
        if op.oracle is None:
            s, other = oracle(op.m, tr)
            op.oracle = (s, *oracle_pq(op.m, s, other))

    def run(self, op, tr):
        D = dc.decomposition
        p, q = tr.call("decomposition.decompose", D.decompose, op.m)
        back = tr.call("decomposition.compose", D.compose, p, q)
        lam = tr.call("decomposition.normal_form", D.normal_form, op.m)
        d = tr.call("schutzenberger.dual", dc.schutzenberger.dual, op.oracle[0])
        return p, q, back, lam, d

    def check(self, op, res):
        p, q, back, lam, d = res
        s, p_want, q_want = op.oracle
        return (back == op.m and p == p_want and q == q_want and lam == s.outer
                and dc.schutzenberger.dual(d) == s)

    def layers(self, tr, rounds, done):
        def ms(name):
            return 1e3 * median(tr.durations(name))

        out = {
            "decomposition.decompose_ms": (ms("decomposition.decompose"), "ms"),
            "decomposition.compose_ms": (ms("decomposition.compose"), "ms"),
            "decomposition.normal_form_ms": (ms("decomposition.normal_form"), "ms"),
            "schutzenberger.dual_ms": (ms("schutzenberger.dual"), "ms"),
            "insertion.burge_ms": (ms("insertion.burge"), "ms"),
            "insertion.dual_rsk_col_ms": (ms("insertion.dual_rsk_col"), "ms"),
        }
        pool = [op for ops in rounds for op in ops]
        for op in pool:
            self.prepare(op, NULL)
        out["decomposition.unit_moves"] = (
            sum(unit_moves(op.m, op.oracle[0].outer) for op in pool), "count")
        dec = tr.by_op("decomposition.decompose")
        timed = [(op, dec[oid]) for oid, op in done if oid in dec]
        moves = sum(unit_moves(op.m, op.oracle[0].outer) for op, _ in timed)
        out["decomposition.moves_per_s"] = (moves / sum(t for _, t in timed), "1/s")
        by_size = {}
        for op, t in timed:
            by_size.setdefault(op.n, []).append(t)
        out["decomposition.decompose_exp"] = (
            loglog_slope([(n, median(ts)) for n, ts in sorted(by_size.items())]), "1")
        for mode, mod in ((BINARY, crystal_binary), (INTEGRAL, crystal_integral)):
            calls = [(op.m, d, i) for op in rounds[0] if op.mode == mode
                     for d in DIRECTIONS for i in range(op.n - 1)]
            layer = mod.__name__.rsplit(".", 1)[1]
            out[f"{layer}.potential_us"] = (1e6 * each_call(mod.potential, calls), "us")
            out[f"{layer}.move_us"] = (1e6 * each_call(mod.move, calls), "us")
        return out


CORNER = {NW: lambda h, w: (h, w), NE: lambda h, w: (h, 0),
          SW: lambda h, w: (0, w), SE: lambda h, w: (0, 0)}
CUT = {NW: lambda m, i, j: m.restrict((0, i), (0, j)),
       NE: lambda m, i, j: m.restrict((0, i), (j, None)),
       SW: lambda m, i, j: m.restrict((i, None), (0, j)),
       SE: lambda m, i, j: m.restrict((i, None), (j, None))}


class Growth(Workload):
    """Local rules and shape primitives only: no call reaches the crystal
    modules, so this is the control for crystal-kernel changes."""

    name = "growth"

    def inputs(self, rng, scale):
        sizes = GROWTH_SIZES[scale]
        rounds = []
        for _ in range(POOL_ROUNDS):
            ops = []
            for mode in MODES:
                for n in sizes:
                    mat = Op(m=random_matrix(rng, mode, n, n).trimmed(), shape=None)
                    h, w = mat.m.height, mat.m.width
                    ops += [Op(mode=mode, mat=mat, o=o, sub_shape=None,
                               point=(rng.randint(0, h), rng.randint(0, w)))
                            for o in ORIENTATIONS]
            rng.shuffle(ops)
            rounds.append(ops)
        return rounds

    def prepare(self, op, tr):
        if op.mat.shape is None:
            op.mat.shape = oracle(op.mat.m, tr)[0].outer
        if op.sub_shape is None:
            op.sub_shape = oracle(CUT[op.o](op.mat.m, *op.point), tr)[0].outer

    def run(self, op, tr):
        return tr.call(f"growth.growth_diagram.{op.mode}", dc.growth.growth_diagram,
                       op.mat.m, op.o)

    def check(self, op, gd):
        h, w = op.mat.m.height, op.mat.m.width
        if gd.orientation != op.o or len(gd.grid) != h + 1:
            return False
        if any(len(row) != w + 1 for row in gd.grid):
            return False
        ci, cj = CORNER[op.o](h, w)
        i, j = op.point
        return gd.grid[ci][cj] == op.mat.shape and gd.grid[i][j] == op.sub_shape

    def layers(self, tr, rounds, done):
        G = dc.growth
        out = {}
        for mode in MODES:
            spans = tr.by_op(f"growth.growth_diagram.{mode}")
            cells = sum(op.mat.m.height * op.mat.m.width for oid, op in done if oid in spans)
            out[f"growth.diagram_ms.{mode}"] = (1e3 * median(list(spans.values())), "ms")
            out[f"growth.rules_per_s.{mode}"] = (cells / sum(spans.values()), "1/s")
        out["growth.local_rules"] = (
            sum(op.mat.m.height * op.mat.m.width for ops in rounds for op in ops), "count")
        # replay every cell of the first round's diagrams through its local rule
        rules = {"burge_forward": [], "rsk_forward": [], "dual_forward": []}
        parts, pairs = [], []
        for mat in {id(op.mat): op.mat for op in rounds[0]}.values():
            m = mat.m
            g = G.growth_diagram(m, NW).grid
            cells = [(k, l) for k in range(m.height) for l in range(m.width)]
            nw = [(g[k][l], g[k][l + 1], g[k + 1][l], m[k, l]) for k, l in cells]
            if m.binary:
                rules["dual_forward"] += [a + (ROW_INSERTION,) for a in nw]
            else:
                rules["burge_forward"] += nw
                ne = G.growth_diagram(m, NE).grid
                rules["rsk_forward"] += [(ne[k][l + 1], ne[k][l], ne[k + 1][l + 1], m[k, l])
                                         for k, l in cells]
            parts += [p for row in g for p in row]
            pairs += [(row[l], row[l + 1], HORIZONTAL) for row in g for l in range(len(row) - 1)]
        for rule, calls in rules.items():
            out[f"growth.{rule}_us"] = (1e6 * each_call(getattr(G, rule), calls, repeats=1), "us")
        S = dc.shapes
        out["shapes.trim_ns"] = (1e9 * per_call(S.trim, [(p,) for p in parts]), "ns")
        out["shapes.conjugate_ns"] = (1e9 * per_call(S.conjugate, [(p,) for p in parts]), "ns")
        out["shapes.strip_le_ns"] = (1e9 * per_call(S.strip_le, pairs), "ns")
        return out


class Sums(Workload):
    """The four alternating-sum stages, LR counts, pictures and the LR
    involution.  One pass over all pairs per fresh interpreter and no
    warm-up: the brute stage's cache fill is work every user session pays."""

    name = "sums"
    max_rounds = 1

    def inputs(self, rng, scale):
        weights = SUMS_WEIGHTS[scale]
        shapes = [s for s in skew_shapes(max(weights)) if s.weight in weights]
        pairs = [(a, b) for a in shapes for b in shapes if a.weight == b.weight]
        rng.shuffle(pairs)
        ops = []
        for s1, s2 in pairs:
            content = tuple(part(s2.outer, i) - part(s2.inner, i) for i in range(len(s2.outer)))
            failing = []
            for mode in MODES:
                for chain in tableau_chains(s1.inner, s1.outer, content):
                    m = dc.encode(Tableau(SST, chain), mode)
                    if not dc.condition(m, s2, LR, mode):
                        failing.append(m)
            ops.append(Op(s1=s1, s2=s2, failing=failing, pictures=0))
        return [ops]

    def run(self, op, tr):
        s1, s2 = op.s1, op.s2
        vals = [tr.call(f"cancellation.alternating_sum.{stage}", C.alternating_sum,
                        s1, s2, stage, mode, BOX)
                for mode in MODES for stage in C.STAGES]
        vals += [tr.call("cancellation.lr_count", C.lr_count, s1, s2, mode) for mode in MODES]
        pics = tr.call("pictures.enumerate_pictures", dc.pictures.enumerate_pictures, s1, s2)
        partners = [tr.call("cancellation.involution", C.involution, m, s2, LR)
                    for m in op.failing]
        return vals, pics, partners

    def check(self, op, res):
        vals, pics, partners = res
        op.pictures = len(pics)
        return (len(set(vals)) == 1 and len(pics) == vals[0]
                and len(partners) == len(op.failing)
                and all(C.involution(mp, op.s2, LR) == m
                        for m, mp in zip(op.failing, partners)))

    def layers(self, tr, rounds, done):
        out = {f"cancellation.{stage}_s": (sum(tr.durations(f"cancellation.alternating_sum.{stage}")), "s")
               for stage in C.STAGES}
        out["cancellation.lr_count_ms"] = (1e3 * median(tr.durations("cancellation.lr_count")), "ms")
        out["cancellation.involution_us"] = (
            1e6 * median(tr.durations("cancellation.involution")), "us")
        out["cancellation.involution_calls"] = (sum(len(op.failing) for op in rounds[0]), "count")
        out["pictures.enumerate_ms"] = (
            1e3 * median(tr.durations("pictures.enumerate_pictures")), "ms")
        out["pictures.count"] = (sum(op.pictures for op in rounds[0]), "count")
        return out


def cpu_clock_with_children():
    """CPU seconds of this process and of its waited-for children."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ru.ru_utime + ru.ru_stime


def _matrix_text(text, mode):
    rows = [[int(x) for x in line.split()] for line in text.splitlines() if line.strip()]
    return matrix_type(mode)(rows)


def _tableaux_text(text):
    out = []
    for block in text.strip("\n").split("\n\n"):
        head, *lines = block.splitlines()
        chain = tuple(() if ln == "0" else tuple(int(x) for x in ln.split(",")) for ln in lines)
        out.append((head.removeprefix("# flavor: "), chain))
    return out


def _partition_text(text):
    text = text.strip()
    return () if text == "0" else tuple(int(x) for x in text.split(","))


class Cli(Workload):
    """What a shell user pays: interpreter start, import, argparse and text
    I/O around small computations, one subprocess at a time."""

    name = "cli"
    clock = staticmethod(cpu_clock_with_children)
    # a bare interpreter slows down with the machine the way a CLI process
    # does; in-process Python code slows down more
    ref_nominal_s = 0.045
    ref_every_s = 0.5
    ref_batch = 3

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.work = None
        self.peaks = []
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        # `verify all` draws its cases from DC_SEED; a fixed one keeps the
        # op's work the same for every benchmark seed (it varied by a third)
        self.env["DC_SEED"] = "0"

    def inputs(self, rng, scale):
        self.work = self.root / ".bench_run" / "cli" / f"{self.seed}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        lo, hi = CLI_SIDES[scale]
        rounds = []
        for r in range(POOL_ROUNDS):
            ops = []
            for mode in MODES:
                m = random_matrix(rng, mode, rng.randint(lo, hi), rng.randint(lo, hi))
                s, other = oracle(m, NULL)
                p, q = oracle_pq(m, s, other)
                f = {}
                for key, text in (("M", m.to_text()), ("P", p.to_text()), ("Q", q.to_text()),
                                  ("T", "\n".join(format_partition(c) for c in s.chain))):
                    f[key] = self.work / f"{key}_{mode}_{r}.txt"
                    f[key].write_text(text + "\n")
                M, P, Q, T = (str(f[k]) for k in "MPQT")
                insertion = ("dual-rsk", ["dual-rsk", M]) if m.binary else ("burge", ["burge", M])
                for cmd, argv in (
                    ("decompose", ["decompose", "--mode", mode, M]),
                    ("compose", ["compose", "--mode", mode, "--p", P, "--q", Q]),
                    ("normal-form", ["normal-form", "--mode", mode, M]),
                    ("exhaust", ["exhaust", "--mode", mode, "--directions", "up,left", M]),
                    ("growth", ["growth", "--json", "--mode", mode,
                                "--orientation", rng.choice(ORIENTATIONS), M]),
                    insertion,
                    ("dual", ["dual", T]),
                ):
                    ops.append(Op(cmd=cmd, argv=argv, mode=mode, m=m, s=s, p=p, q=q,
                                  want=None))
            three = [x for x in skew_shapes(3) if x.weight == 3]
            a, b = rng.choice(three), rng.choice(three)
            ops.append(Op(cmd="scalar", argv=["scalar", "--mode", rng.choice(MODES), "--stage",
                                              "brute", "--shape1", str(a), "--shape2", str(b)],
                          s1=a, s2=b, want=None))
            w = rng.choice((3, 4))
            same = [x for x in skew_shapes(w) if x.weight == w]
            a, b = rng.choice(same), rng.choice(same)
            ops.append(Op(cmd="pictures", argv=["pictures", "enumerate", "--dom", str(a),
                                                "--cod", str(b)], s1=a, s2=b, want=None))
            ops.append(Op(cmd="verify", argv=["verify", "all"], want=None))
            rng.shuffle(ops)
            rounds.append(ops)
        return rounds

    def _spawn(self, argv):
        """Run one process to its end and record its peak RSS."""
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.work)
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise TimeoutError(f"{argv[3:]} ran over {CHILD_TIMEOUT_S} s")
            time.sleep(0.002)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peaks.append(usage.ru_maxrss)
        return subprocess.CompletedProcess(argv, proc.returncode, out_path.read_text(),
                                           err_path.read_text())

    def run(self, op, tr):
        return tr.call(f"cli.{op.cmd}", self._spawn,
                       [sys.executable, "-m", "doublecrystal.cli", *op.argv])

    def _want(self, op):
        """The library's in-process answer, in the form parsed from stdout."""
        import doublecrystal.verify

        cmd = op.cmd
        if cmd == "decompose":
            return [op.p, op.q]
        if cmd == "compose":
            return op.m
        if cmd == "normal-form":
            return op.s.outer
        if cmd == "exhaust":
            return dc.diagram(op.s.outer) if op.m.binary else dc.diagon(op.s.outer)
        if cmd == "growth":
            o = op.argv[op.argv.index("--orientation") + 1]
            gd = dc.growth.growth_diagram(op.m, o)
            return {"orientation": o, "grid": [[list(s) for s in row] for row in gd.grid]}
        if cmd in ("burge", "dual-rsk"):
            fn = dc.insertion.burge if cmd == "burge" else dc.insertion.dual_rsk_col
            return [(t.flavor, t.chain) for t in fn(op.m)]
        if cmd == "dual":
            d = dc.schutzenberger.dual(op.s)
            return [(d.flavor, d.chain)]
        if cmd == "scalar":
            return C.lr_count(op.s1, op.s2, op.argv[op.argv.index("--mode") + 1])
        if cmd == "pictures":
            return C.lr_count(op.s1, op.s2, INTEGRAL)
        if cmd == "verify":
            return [f"{name}: PASS" for name in dc.verify.SUITES]
        raise ValueError(f"unknown command {cmd!r}")

    def _got(self, op, out):
        cmd = op.cmd
        if cmd == "decompose":
            return [_matrix_text(b, op.mode) for b in out.strip("\n").split("\n\n")]
        if cmd in ("compose", "exhaust"):
            return _matrix_text(out, op.mode)
        if cmd == "normal-form":
            return _partition_text(out)
        if cmd == "growth":
            return json.loads(out)
        if cmd in ("burge", "dual-rsk", "dual"):
            return _tableaux_text(out)
        if cmd == "scalar":
            return int(out)
        if cmd == "pictures":
            blocks = out.strip("\n").split("\n\n")
            count = int(blocks[0])
            return count if len(blocks) == count + 1 else -1
        return out.splitlines()

    def check(self, op, proc):
        if proc.returncode != 0 or "Traceback" in proc.stderr:
            return False
        if op.want is None:
            op.want = self._want(op)
        return self._got(op, proc.stdout) == op.want

    def peak_rss_kb(self):
        """Median over the CLI processes of each one's peak RSS."""
        return median(self.peaks)

    def reference(self):
        return self._child_cpu([sys.executable, "-c", "pass"])

    def _child_cpu(self, argv):
        t0 = cpu_clock_with_children()
        subprocess.run(argv, env=self.env, cwd=self.work, check=True, timeout=CHILD_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        return cpu_clock_with_children() - t0

    def layers(self, tr, rounds, done):
        import doublecrystal.cli
        import doublecrystal.verify

        py = sys.executable
        out = {
            "cli.interp_ms": (1e3 * median([self.reference() for _ in range(5)]), "ms"),
            "cli.startup_ms": (1e3 * median([self._child_cpu([py, "-c", "import doublecrystal.cli"])
                                             for _ in range(5)]), "ms"),
        }
        runs = {}
        for op in rounds[0]:
            sink = io.StringIO()
            t0 = time.process_time()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                dc.cli.run(op.argv)
            runs.setdefault(op.cmd, []).append(time.process_time() - t0)
        for cmd, times in sorted(runs.items()):
            out[f"cli.run_ms.{cmd}"] = (1e3 * median(times), "ms")
        t0 = time.process_time()
        dc.verify.run_suites(["all"], random.Random(0))
        out["verify.all_s"] = (time.process_time() - t0, "s")
        mats = [op for op in rounds[0] if op.cmd == "decompose"]
        M = dc.matrices
        out["matrices.parse_us"] = (
            1e6 * per_call(M.parse_matrix, [(op.m.to_text(), op.mode) for op in mats] * 20), "us")
        out["matrices.render_us"] = (
            1e6 * per_call(M.Matrix.to_text, [(op.m,) for op in mats] * 20), "us")
        out["matrices.encode_us"] = (
            1e6 * per_call(M.encode, [(op.s, op.mode) for op in mats] * 20), "us")
        return out

    def close(self):
        if self.work is not None:
            shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Crystal, Growth, Sums, Cli)}
