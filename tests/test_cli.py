import contextlib
import io
import json
import pathlib
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from doublecrystal import cancellation, growth, insertion, verify
from doublecrystal import crystal_binary as cb
from doublecrystal import crystal_integral as ci
from doublecrystal.cli import run
from doublecrystal.matrices import BINARY, INTEGRAL, STAGES, parse_matrix

from conftest import M_BIN, M_INT, P_BIN, P_INT, Q_BIN, Q_INT


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, m in [("mbin", M_BIN), ("mint", M_INT), ("pbin", P_BIN),
                    ("qbin", Q_BIN), ("pint", P_INT), ("qint", Q_INT)]:
        p = tmp_path / f"{name}.txt"
        p.write_text(m.to_text() + "\n")
        paths[name] = str(p)
    return paths


def test_decompose(files, capsys):
    assert run(["decompose", "--mode", "binary", files["mbin"]]) == 0
    out = capsys.readouterr().out
    parts = out.strip().split("\n\n")
    assert parse_matrix(parts[0], BINARY) == P_BIN
    assert parse_matrix(parts[1], BINARY) == Q_BIN


def test_compose(files, capsys):
    assert run(["compose", "--mode", "integral", "--p", files["pint"], "--q", files["qint"]]) == 0
    assert parse_matrix(capsys.readouterr().out, INTEGRAL) == M_INT


def test_normal_form(files, capsys):
    assert run(["normal-form", "--mode", "integral", files["mint"]]) == 0
    assert capsys.readouterr().out.strip() == "8,8,5,3,1"


def test_potential_and_move(files, capsys):
    assert run(["potential", "--mode", "binary", "--direction", "up", "--index", "0", files["mbin"]]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert run(["move", "--mode", "binary", "--direction", "up", "--index", "0", files["mbin"]]) == 0
    capsys.readouterr()


def test_exhaust(files, capsys):
    assert run(["exhaust", "--mode", "binary", "--directions", "up", files["mbin"]]) == 0
    assert parse_matrix(capsys.readouterr().out, BINARY) == P_BIN


def test_encode_decode_roundtrip(tmp_path, capsys):
    chain = "0\n2\n3,2\n"
    tf = tmp_path / "t.txt"
    tf.write_text(chain)
    assert run(["encode", "--mode", "integral", str(tf)]) == 0
    mtext = capsys.readouterr().out
    mf = tmp_path / "m.txt"
    mf.write_text(mtext)
    assert run(["decode", "--mode", "integral", "--shape", "3,2/0", str(mf)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1:] == ["0", "2", "3,2"]


def test_growth_json(files, capsys):
    assert run(["growth", "--mode", "integral", "--orientation", "NW", "--json", files["mint"]]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["orientation"] == "NW"
    assert data["grid"][-1][-1] == [8, 8, 5, 3, 1]


def test_burge_and_dual_rsk(files, capsys):
    assert run(["burge", files["mint"]]) == 0
    out = capsys.readouterr().out
    assert "8,8,5,3,1" in out
    assert run(["dual-rsk", "--variant", "col", files["mbin"]]) == 0
    out = capsys.readouterr().out
    assert out.count("# flavor:") == 2


def _tableau_json(t):
    return {"flavor": t.flavor, "chain": [list(c) for c in t.chain]}


@pytest.mark.parametrize("argv,key,want", [
    (["decompose", "--mode", "binary"], "mbin", [json.loads(m.to_json()) for m in (P_BIN, Q_BIN)]),
    (["burge"], "mint", [_tableau_json(t) for t in insertion.burge(M_INT)]),
    (["dual-rsk"], "mbin", [_tableau_json(t) for t in insertion.dual_rsk_col(M_BIN)]),
    (["dual-rsk", "--variant", "row"], "mbin",
     [_tableau_json(t) for t in insertion.dual_rsk_row(M_BIN)]),
], ids=["decompose", "burge", "dual-rsk-col", "dual-rsk-row"])
def test_json_of_a_pair_is_one_list(files, capsys, argv, key, want):
    """--json prints one JSON value, a list of the two objects, while the
    text output keeps the two blocks."""
    assert run(argv + ["--json", files[key]]) == 0
    assert json.loads(capsys.readouterr().out) == want
    assert run(argv + [files[key]]) == 0
    assert capsys.readouterr().out.count("\n\n") == 1


@pytest.mark.parametrize("argv,mode,message", [
    (["dual-rsk"], "integral", "dual_rsk_col takes binary matrices, not integral ones"),
    (["dual-rsk", "--variant", "row"], "integral",
     "dual_rsk_row takes binary matrices, not integral ones"),
    (["burge"], "binary", "burge takes integral matrices, not binary ones"),
])
def test_insertion_of_the_other_mode_exit_1(tmp_path, capsys, argv, mode, message):
    """JSON input names its own mode, past the --mode choice: an integral
    matrix given to dual-rsk is refused, not read as its support."""
    f = tmp_path / "m.json"
    f.write_text(json.dumps({"mode": mode, "rows": [[2 if mode == "integral" else 1, 1], [0, 1]]}))
    assert run(argv + [str(f)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def test_dual(tmp_path, capsys):
    tf = tmp_path / "t.txt"
    tf.write_text("0\n5\n7,5\n8,7,2\n8,8,4,2\n8,8,5,3,1\n")
    assert run(["dual", str(tf)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# flavor: reverse"
    assert lines[1] == "8,8,5,3,1"
    assert lines[2] == "8,5,5,2"


def test_scalar(capsys):
    rc = run(["scalar", "--mode", "integral", "--stage", "fully_reduced",
              "--shape1", "2,1/0", "--shape2", "2,1/0"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "1"
    rc = run(["scalar", "--mode", "binary", "--stage", "brute",
              "--shape1", "2,1/0", "--shape2", "2,1/0", "--box", "5,5"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "1"


def test_scalar_weight_12_at_a_narrow_box(capsys):
    # the LR-side symbols in 9 and 10 rows: 192 nonzero each among the
    # 419,900 compositions of 12 into that many parts
    rc = run(["scalar", "--mode", "binary", "--stage", "tab_first",
              "--shape1", "2,2,2,2,2,2,1,1/1,1", "--shape2", "3,2,2,2,2,1,1,1,1/2,1",
              "--box", "9,2"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "3"


@pytest.mark.parametrize("box", ["100000,3", "3,100000"])
def test_scalar_at_a_long_box(capsys, box):
    # the stages read no box, so a side far past the recursion limit costs
    # nothing
    for mode in (BINARY, INTEGRAL):
        for stage in STAGES:
            rc = run(["scalar", "--mode", mode, "--stage", stage,
                      "--shape1", "2,1", "--shape2", "2,1", "--box", box])
            out, err = capsys.readouterr()
            assert (rc, out, err) == (0, "1\n", ""), (mode, stage)


# weight 1 in 1200 rows: a target longer than the recursion limit
_LONG = ",".join(["1"] * 1200) + "/" + ",".join(["1"] * 1199)


@pytest.mark.parametrize("shape1,shape2", [(_LONG, "1"), ("1", _LONG)], ids=["long-1", "1-long"])
def test_scalar_of_a_long_target(capsys, shape1, shape2):
    # the stages list arrangements and strips one position at a time, with
    # no recursion
    for mode in (BINARY, INTEGRAL):
        for stage in STAGES:
            rc = run(["scalar", "--mode", mode, "--stage", stage,
                      "--shape1", shape1, "--shape2", shape2, "--box", "1200,1200"])
            out, err = capsys.readouterr()
            assert (rc, out, err) == (0, "1\n", ""), (mode, stage)


def test_scalar_trace(capsys):
    rc = run(["scalar", "--mode", "binary", "--stage", "fully_reduced",
              "--shape1", "2,1/0", "--shape2", "2,1,1/1", "--trace"])
    assert rc == 0
    out = capsys.readouterr()
    assert out.out.strip() == "1"
    assert "cancel" in out.err


def test_pictures_cli(tmp_path, capsys):
    assert run(["pictures", "enumerate", "--dom", "2,1/0", "--cod", "2,1/0"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "1"
    # within a row the unique self-picture reverses the cells; the identity
    # violates the order conditions
    pf = tmp_path / "pic.txt"
    pf.write_text("0,0 -> 0,1\n0,1 -> 0,0\n1,0 -> 1,0\n")
    assert run(["pictures", "validate", "--dom", "2,1/0", "--cod", "2,1/0", "--map", str(pf)]) == 0
    assert capsys.readouterr().out.strip() == "valid"
    bad = tmp_path / "bad.txt"
    bad.write_text("0,0 -> 0,0\n0,1 -> 0,1\n1,0 -> 1,0\n")
    assert run(["pictures", "validate", "--dom", "2,1/0", "--cod", "2,1/0", "--map", str(bad)]) == 1
    capsys.readouterr()
    one = tmp_path / "one.txt"
    one.write_text("1\n")
    # dom has two complete rows below the matrix's single row
    assert run(["pictures", "lift", str(one), "--mode", "integral",
                "--dom", "2,1,1/1,1,1", "--cod", "1"]) == 0
    assert capsys.readouterr().out.strip() == "0,1 -> 0,0"


def test_pictures_lift_takes_the_matrix_before_or_after_the_options(tmp_path, capsys):
    one = tmp_path / "one.txt"
    one.write_text("1\n")
    options = ["--mode", "integral", "--dom", "1", "--cod", "1"]
    outputs = []
    for argv in (["lift", str(one), *options], ["lift", *options, str(one)]):
        assert run(["pictures", *argv]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] == ("0,0 -> 0,0\n", "")


def test_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 2\n")
    good = tmp_path / "good.txt"
    good.write_text("0 1\n")
    assert run(["normal-form", "--mode", "binary", str(bad)]) == 1
    assert run(["nonsense"]) == 2
    assert run(["exhaust", "--mode", "binary", "--directions", "sideways", str(good)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["potential", "--mode", "binary", "--direction", "up", "--index", "0", "mbin"],
    ["normal-form", "--mode", "integral", "mint"],
    ["scalar", "--mode", "binary", "--stage", "brute", "--shape1", "2,1", "--shape2", "2,1"],
    ["pictures", "enumerate", "--dom", "2,1", "--cod", "2,1"],
    ["verify", "moves"],
], ids=lambda argv: argv[0])
def test_json_on_a_text_only_command_exit_2(files, capsys, argv):
    """Commands that print only text do not take --json."""
    argv = [files.get(a, a) for a in argv]
    assert run(argv) == 0
    capsys.readouterr()
    assert run([argv[0], "--json", *argv[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --json" in err


@pytest.mark.parametrize("argv,key", [
    (["encode", "--mode", "integral"], "t"),
    (["decode", "--mode", "binary", "--shape", "9,8,5,5,3/4,1"], "mbin"),
    (["move", "--mode", "binary", "--direction", "up", "--index", "0"], "mbin"),
    (["move", "--mode", "binary", "--direction", "up", "--index", "0"], "nomove"),
    (["exhaust", "--mode", "integral", "--directions", "up"], "mint"),
    (["decompose", "--mode", "binary"], "mbin"),
    (["compose", "--mode", "integral", "--p", "pint", "--q"], "qint"),
    (["growth", "--mode", "integral"], "mint"),
    (["burge"], "mint"),
    (["dual-rsk"], "mbin"),
    (["dual"], "t"),
], ids=["encode", "decode", "move", "move-none", "exhaust", "decompose", "compose", "growth",
        "burge", "dual-rsk", "dual"])
def test_json_output_is_one_json_value(files, tmp_path, capsys, argv, key):
    """--json prints one JSON value on every command that takes it, null
    for a move that does not exist."""
    (tmp_path / "t.txt").write_text("0\n2\n3,2\n")
    (tmp_path / "nomove.txt").write_text("1 0\n0 0\n")
    files = {**files, "t": str(tmp_path / "t.txt"), "nomove": str(tmp_path / "nomove.txt")}
    assert run([files.get(a, a) for a in argv] + [files[key], "--json"]) == 0
    value = json.loads(capsys.readouterr().out)
    assert (value is None) == (key == "nomove")


def test_verify_cli(capsys, monkeypatch):
    monkeypatch.setenv("DC_SEED", "5")
    assert run(["verify", "moves", "roundtrip"]) == 0
    out = capsys.readouterr().out
    assert "moves: PASS" in out and "roundtrip: PASS" in out


def _last_first(a, b, raising, k=None, climb=cb._climb):
    """Binary `_climb` with raising moves taking the last unmatched bracket
    first."""
    moved = climb(list(a), list(b), raising)
    if raising:
        moved.reverse()
    if k is not None:
        del moved[k:]
    for p in moved:
        a[p], b[p] = b[p], a[p]
    return moved


# one fault per suite in the code it checks; each default argument keeps
# the function the fault wraps
FAULTS = [
    ("moves", cb, "_climb",  # a single move takes two units
     lambda a, b, raising, k=None, climb=cb._climb: climb(a, b, raising, k if k is None else k + 1)),
    ("potentials", ci, "potential",
     lambda m, d, index, pot=ci.potential: pot(m, d, index) + (d == "up")),
    ("commutation", cb, "_climb", _last_first),
    ("roundtrip", ci, "_climb",  # lowering ladders cut to k units move one unit short
     lambda a, b, raising, k=None, climb=ci._climb: climb(a, b, raising, k if raising or not k else k - 1)),
    ("oracles", insertion, "_column_insert_one",
     lambda cols, x, ge=True, insert=insertion._column_insert_one: insert(cols, x, not ge)),
    ("growth", growth, "_burge",  # entries of 2 and more count as 1
     lambda lam, mu, nu, m, trace=None, rule=growth._burge: rule(lam, mu, nu, min(m, 1), trace)),
    ("sums", verify, "lr_count",
     lambda s1, s2, mode, count=verify.lr_count: count(s1, s2, mode) + 1),
    ("involution", cancellation, "_ladder_apply",  # ladders of 2 and more one unit short
     lambda m, d, up, down, index, apply=cancellation._ladder_apply:
         apply(m, d - (d > 1) + (d < -1), up, down, index)),
    ("schutzenberger", verify, "dual", lambda t: t),
    ("pictures", verify, "lift",
     lambda m, dom, cod, mode, lift=verify.lift: lift(m, dom, cod, mode).inverse()),
]


@pytest.mark.parametrize("name,module,attr,fault", FAULTS, ids=[f[0] for f in FAULTS])
def test_each_suite_fails_on_a_fault_and_names_its_case(monkeypatch, capsys, name, module,
                                                         attr, fault):
    assert sorted(f[0] for f in FAULTS) == sorted(verify.SUITES)
    monkeypatch.setenv("DC_SEED", "0")
    monkeypatch.setattr(module, attr, fault)
    assert run(["verify", name]) == 1
    out, err = capsys.readouterr()
    assert out == f"{name}: FAIL\n"
    assert re.match(rf"{name}: check_\w+\(((Binary|Integral)Matrix|SkewShape|Tableau)\(", err), err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_verify_moves_fails_on_parallel_moves_that_trade_places(monkeypatch, capsys):
    """Binary up moves that move down and down moves that move up exist iff
    their potential is positive and undo each other, so only the crystal
    operator check of the moves suite, which reads the tableau the matrix
    encodes, sees them."""
    monkeypatch.setenv("DC_SEED", "0")
    monkeypatch.setattr(cb, "_climb", lambda a, b, raising, k=None, climb=cb._climb:
                        climb(a, b, not raising, k))
    assert run(["verify", "moves"]) == 1
    out, err = capsys.readouterr()
    assert out == "moves: FAIL\n"
    assert err.startswith("moves: check_crystal_operators(Tableau("), err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("seed", ["0", "1", "2", "3"])
def test_verify_involution_fails_on_an_identity_involution(monkeypatch, capsys, seed):
    """The identity map pairs back, keeps the witness and the perpendicular
    condition, but does not reverse a nonzero edge sign."""
    def identity(m, shape, which, mode=None):
        cancellation.involution(m, shape, which, mode)  # raises NotCancellable as before
        return m

    monkeypatch.setenv("DC_SEED", seed)
    monkeypatch.setattr(verify, "involution", identity)
    assert run(["verify", "involution"]) == 1
    out, err = capsys.readouterr()
    assert out == "involution: FAIL\n"
    assert "the involution reverses the edge sign" in err


@pytest.mark.parametrize("name,key,orientation", [
    ("diagram1", "mint", "NW"),
    ("diagram2", "mbin", "NW"),
    ("diagram3", "mbin", "NE"),
    ("diagram4", "mint", "SW"),
])
def test_growth_golden_renderings(files, capsys, name, key, orientation):
    mode = "integral" if key == "mint" else "binary"
    assert run(["growth", "--mode", mode, "--orientation", orientation,
                "--verify", files[key]]) == 0
    out = capsys.readouterr().out
    golden = (pathlib.Path(__file__).parent / "goldens" / f"{name}.txt").read_text()
    assert out == golden


@pytest.mark.parametrize("argv", [
    ["move", "--direction", "up", "--index", "-1"],
    ["potential", "--direction", "up", "--index", "-1"],
    ["exhaust", "--directions", "down", "--bound", "-3"],
    ["exhaust", "--directions", "down", "--bound", "0"],
    ["exhaust", "--directions", "up,down"],
    ["exhaust", "--directions", "left,right"],
])
def test_bad_index_bound_and_opposite_directions_exit_2(tmp_path, capsys, argv):
    mf = tmp_path / "m.txt"
    mf.write_text("1 2\n3 4\n")
    assert run(argv + ["--mode", "integral", str(mf)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1


@pytest.mark.parametrize("box,message", [
    ("-1,3", "box must be two integers of at least 1, got (-1, 3)"),
    ("0,0", "box must be two integers of at least 1, got (0, 0)"),
    ("3", "box must be two integers of at least 1, got (3,)"),
    ("a,b", "--box must be rows,cols, got 'a,b'"),
])
def test_malformed_box_exit_2(capsys, box, message):
    rc = run(["scalar", "--mode", "binary", "--stage", "brute",
              "--shape1", "2,1/0", "--shape2", "2,1/0", f"--box={box}"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == f"usage error: {message}\n"


def test_box_not_covering_targets_exit_1(capsys):
    rc = run(["scalar", "--mode", "binary", "--stage", "brute",
              "--shape1", "1,1,1", "--shape2", "1,1,1", "--box", "1,1"])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err == ("error: box (1, 1) does not cover the targets of 1,1,1/0 and "
                   "1,1,1/0; binary needs at least (3, 1)\n")


@pytest.mark.parametrize("argv,text,message", [
    (["normal-form"], '{"rows": [[1]]}', "JSON input lacks key 'mode'"),
    (["normal-form"], '{"mode": "binary", "rows": 5}',
     "JSON key 'rows' must be a list of lists of integers, got 5"),
    (["normal-form"], '{"mode": "binary", "rows": [[1, "a"]]}',
     "JSON key 'rows' must be a list of lists of integers, got [[1, 'a']]"),
    (["normal-form"], '{"mode": "ternary", "rows": [[1]]}',
     "JSON key 'mode' must be 'binary' or 'integral', got 'ternary'"),
    (["dual"], '{"chain": [[1]]}', "JSON input lacks key 'flavor'"),
    (["dual"], '{"flavor": "sst", "chain": [[1], 2]}',
     "JSON key 'chain' must be a list of partitions (lists of integers), got [[1], 2]"),
    (["pictures", "validate", "--dom", "2,1/0", "--cod", "2,1/0", "--map"],
     "0,0 -> 0,1\n0,0 0,1\n", "map line 2: expected 'row,col -> row,col', got '0,0 0,1'"),
    (["pictures", "validate", "--dom", "2,1/0", "--cod", "2,1/0", "--map"],
     "0,x -> 0,1\n", "map line 1: expected 'row,col -> row,col', got '0,x -> 0,1'"),
    pytest.param(["normal-form"], '{"mode": "binary", "rows": ' + "[" * 100000,
                 "JSON input is nested too deeply", id="nested-matrix"),
    pytest.param(["dual"], '{"flavor": "sst", "chain": ' + "[" * 100000,
                 "JSON input is nested too deeply", id="nested-tableau"),
])
def test_malformed_input_exit_1(tmp_path, capsys, argv, text, message):
    f = tmp_path / "input.txt"
    f.write_text(text)
    assert run(argv + [str(f)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("suites", [["moves", "nosuch"], ["nosuch"], ["all", "nosuch"]])
def test_unknown_suite_exit_2_before_any_suite_runs(capsys, suites):
    assert run(["verify", *suites]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "usage error: unknown suite 'nosuch'\n"


def test_non_integer_seed_exit_2_before_any_suite_runs(monkeypatch, capsys):
    monkeypatch.setenv("DC_SEED", "abc")
    assert run(["verify", "moves"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "usage error: DC_SEED must be an integer, got 'abc'\n"


@pytest.mark.parametrize("mode,shape,text,message", [
    ("binary", "2", "0 0\n0 1\n1 0\n", "cumulative conjugate shape not a partition at row 2"),
    ("integral", "2,2", "1 1\n0 2\n", "chain step at column 2 is not a horizontal strip"),
])
def test_decode_failing_the_tableau_condition_exit_1(tmp_path, capsys, mode, shape, text,
                                                     message):
    f = tmp_path / "m.txt"
    f.write_text(text)
    assert run(["decode", "--mode", mode, "--shape", shape, str(f)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


_SHAPES = st.sampled_from(["2,1", "2,1/1", "3,1/1", "1,1,1", "1,2", "3/4", "a", "", "-1",
                           "2,1/0/0", "0", "1,1/1,1", _LONG])
_ENTRIES = st.one_of(st.integers(-1, 3), st.sampled_from(["x", "1.5", "-", "07"]))
_JSON_VALUES = st.recursive(
    st.one_of(st.integers(-1, 3), st.none(), st.booleans(), st.just(1.5), st.just("a")),
    lambda inner: st.lists(inner, max_size=4), max_leaves=16)


def _nested(head):
    return st.sampled_from([50, 100000]).map(lambda depth: head + "[" * depth)


_MATRIX_TEXTS = st.one_of(
    st.lists(st.lists(_ENTRIES, max_size=4), max_size=4).map(
        lambda rows: "\n".join(" ".join(map(str, r)) for r in rows)),
    st.builds(lambda mode, rows: json.dumps({"mode": mode, "rows": rows}),
              st.sampled_from([BINARY, INTEGRAL, "ternary", 1]), _JSON_VALUES),
    _nested('{"mode": "binary", "rows": '))
_TABLEAU_TEXTS = st.one_of(
    st.lists(_SHAPES, max_size=4).map("\n".join),
    st.builds(lambda flavor, chain: json.dumps({"flavor": flavor, "chain": chain}),
              st.sampled_from(["sst", "reverse", "transpose", "nosuch", 0]), _JSON_VALUES),
    _nested('{"flavor": "sst", "chain": '))
_MAP_TEXTS = st.lists(st.sampled_from(["0,0 -> 0,1", "0,1 -> 0,0", "1,0 -> 1,0", "0,x -> 1",
                                       "5,5 -> 0,0", "-1,0 -> 0,0", ""]), max_size=4).map("\n".join)


@st.composite
def _malformed_calls(draw):
    """One CLI call on small, often malformed input: (argv, file text), the
    file named FILE in argv.  Sizes stay small, so every call is quick."""
    mode = draw(st.sampled_from([BINARY, INTEGRAL, "ternary"]))
    direction = draw(st.sampled_from(["up", "down", "left", "right", "sideways"]))
    index = draw(st.sampled_from(["-1", "0", "2", "7", "x"]))
    s1, s2 = draw(_SHAPES), draw(_SHAPES)
    calls = [
        ("matrix", ["move", "--mode", mode, "--direction", direction, "--index", index, "FILE"]),
        ("matrix", ["potential", "--mode", mode, "--direction", direction, "--index", index,
                    "FILE"]),
        ("matrix", ["exhaust", "--mode", mode, "--directions",
                    draw(st.sampled_from(["up", "down,left", "up,down", "right,", ""])),
                    "--bound", draw(st.sampled_from(["-3", "0", "2", "x"])), "FILE"]),
        ("matrix", ["decompose", "--mode", mode, "FILE"]),
        ("matrix", ["compose", "--mode", mode, "--p", "FILE", "--q", "FILE"]),
        ("matrix", ["normal-form", "--mode", mode, "FILE"]),
        ("matrix", ["growth", "--mode", mode, "--orientation",
                    draw(st.sampled_from(["NW", "SE", "XX"])), "--verify", "FILE"]),
        ("matrix", ["burge", "FILE"]),
        ("matrix", ["dual-rsk", "FILE"]),
        ("matrix", ["decode", "--mode", mode, "--shape", s1, "FILE"]),
        ("matrix", ["pictures", "lift", "FILE", "--mode", mode, "--dom", s1, "--cod", s2]),
        ("tableau", ["encode", "--mode", mode, "FILE"]),
        ("tableau", ["dual", "FILE"]),
        ("map", ["pictures", "validate", "--dom", s1, "--cod", s2, "--map", "FILE"]),
        (None, ["pictures", "enumerate", "--dom", s1, "--cod", s2]),
        (None, ["scalar", "--mode", mode, "--stage",
                draw(st.sampled_from(["brute", "tab_first", "lr_first", "fully_reduced", "x"])),
                "--shape1", s1, "--shape2", s2, "--box",
                draw(st.sampled_from(["0,0", "a,b", "2", "3,3", "-1,2", "1,1", "4,4", "2,3,4",
                                     "100000,3", "3,100000"]))]),
    ]
    kind, argv = draw(st.sampled_from(calls))
    texts = {"matrix": _MATRIX_TEXTS, "tableau": _TABLEAU_TEXTS, "map": _MAP_TEXTS}
    return argv, draw(texts[kind]) if kind else ""


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_malformed_calls())
@example((["scalar", "--mode", BINARY, "--stage", "brute", "--shape1", "2,1", "--shape2", "2,1",
           "--box", "100000,3"], ""))
@example((["scalar", "--mode", INTEGRAL, "--stage", "lr_first", "--shape1", "2,1", "--shape2",
           "2,1", "--box", "3,100000"], ""))
def test_malformed_calls_exit_with_a_code(tmp_path_factory, call):
    """Ragged, negative, non-integer, mistyped and deeply nested input, and
    bad shapes, boxes and indices, end in exit 0, 1 or 2, never in an
    escaping exception."""
    argv, text = call
    path = tmp_path_factory.getbasetemp() / "malformed-call.txt"
    path.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = run([str(path) if a == "FILE" else a for a in argv])
    assert rc in (0, 1, 2), (argv, text[:200])


_CLI_GOLDENS = sorted((pathlib.Path(__file__).parent / "goldens" / "cli").glob("*.json"))


@pytest.mark.parametrize("path", _CLI_GOLDENS, ids=[p.stem for p in _CLI_GOLDENS])
def test_cli_golden_transcripts(tmp_path, monkeypatch, capsys, path):
    """Exit code, stdout and stderr of one call of each command, in text and
    --json, with its notes (move and exhaust records, scalar's cancel lines)
    and its exit codes 1 and 2, byte for byte."""
    golden = json.loads(path.read_text())
    for name, text in golden["files"].items():
        (tmp_path / name).write_text(text)
    for name, value in golden.get("env", {}).items():
        monkeypatch.setenv(name, value)
    monkeypatch.chdir(tmp_path)
    code = run(golden["argv"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (golden["code"], golden["stdout"], golden["stderr"])
