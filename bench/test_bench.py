"""Self-tests of the benchmark: its checkers reject wrong outputs, failed
ops are counted, growth makes no call into the crystal kernels, and the
margin formula for decompose's unit moves and the span self times hold.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import random
import subprocess

import session  # puts src/ on sys.path
import workloads
from doublecrystal import crystal_binary, crystal_integral, decomposition
from doublecrystal.matrices import BINARY, INTEGRAL
from tracing import NullTracer, Tracer


def run_ops(wl, ops):
    stats = session.new_stats()
    session.run_rounds(wl, [ops], NullTracer(wl.clock), 0.0, stats)
    return stats


def mini_ops(cls, pick=lambda op: True, seed=5):
    wl = cls(session.ROOT, seed)
    return wl, [op for op in wl.inputs(random.Random(seed), "mini")[0] if pick(op)]


class FlipQ(workloads.Crystal):
    def run(self, op, tr):
        p, q, back, lam, d = super().run(op, tr)
        rows = [list(r) for r in q.rows]
        rows[0][0] = 1 - rows[0][0] if q.binary else rows[0][0] + 1
        return p, type(q)(rows), back, lam, d


def test_crystal_checker_counts_a_flipped_q_as_failed():
    wl, ops = mini_ops(workloads.Crystal, lambda op: op.n == 8)
    assert run_ops(wl, ops)["failed"] == 0
    bad = FlipQ(wl.root, wl.seed)
    stats = run_ops(bad, ops)
    assert stats["attempted"] == stats["failed"] == len(ops) == 3
    assert "check rejected" in stats["failures"][0]


class WrongStdout(workloads.Cli):
    def run(self, op, tr):
        proc = super().run(op, tr)
        return subprocess.CompletedProcess(proc.args, proc.returncode, proc.stdout + "0\n",
                                           proc.stderr)


def test_cli_checker_counts_a_wrong_stdout_as_failed():
    wl, ops = mini_ops(workloads.Cli, lambda op: op.cmd == "normal-form")
    try:
        assert run_ops(wl, ops[:1])["failed"] == 0
        bad = WrongStdout(wl.root, wl.seed)
        bad.work = wl.work
        assert run_ops(bad, ops[:1])["failed"] == 1
    finally:
        wl.close()


class DropPartner(workloads.Sums):
    def run(self, op, tr):
        vals, pics, partners = super().run(op, tr)
        return vals, pics, partners[:-1]


def test_sums_checker_counts_a_missing_involution_as_failed():
    wl, ops = mini_ops(workloads.Sums, lambda op: op.failing)
    assert run_ops(wl, ops[:1])["failed"] == 0
    assert run_ops(DropPartner(wl.root, wl.seed), ops[:1])["failed"] == 1


def test_growth_makes_no_crystal_kernel_call(monkeypatch):
    def broken(*args):
        raise AssertionError("crystal kernel called")

    for mod in (crystal_binary, crystal_integral):
        monkeypatch.setattr(mod, "move", broken)
        monkeypatch.setattr(mod, "potential", broken)
    wl, ops = mini_ops(workloads.Growth)
    ops = [next(op for op in ops if op.mode == mode) for mode in (BINARY, INTEGRAL)]
    stats = run_ops(wl, ops)
    assert stats["attempted"] == 2 and stats["failed"] == 0, stats["failures"]
    # the stubs are live: the crystal workload fails under them
    cw, cops = mini_ops(workloads.Crystal, lambda op: op.n == 4)
    assert run_ops(cw, cops)["failed"] == len(cops)


def test_unit_moves_formula_counts_decompose_moves():
    rng = random.Random(11)
    for mode in (BINARY, INTEGRAL) * 20:
        m = workloads.random_matrix(rng, mode, rng.randint(1, 7), rng.randint(1, 7))
        s, _ = workloads.oracle(m, NullTracer())
        moves = sum(getattr(rec, "amount", 1)
                    for d in ("up", "left") for rec in decomposition.exhaust(m, (d,))[1])
        assert workloads.unit_moves(m, s.outer) == moves


def test_self_time_subtracts_children():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    tr.op_id = 7
    tr.call("outer", lambda: [tr.call("inner", lambda: None) for _ in range(2)])
    # outer 0..5, inner 1..2 and 3..4
    assert tr.spans == [["outer", 0.0, 5.0, -1, 7], ["inner", 1.0, 2.0, 0, 7],
                        ["inner", 3.0, 4.0, 0, 7]]
    assert tr.self_times() == [3.0, 1.0, 1.0]
    assert tr.summary()["inner"] == {"count": 2, "total_s": 2.0, "self_s": 2.0}
