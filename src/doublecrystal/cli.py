"""Command-line front end.

Matrices are read from a file argument or standard input, either as lines
of space-separated entries (with --mode) or as JSON
{"mode": "binary"|"integral", "rows": [[...]]}.  Tableaux are read as one
partition per line (comma-separated parts, "0" for empty) with --flavor.
Exit status: 0 success, 1 domain error, 2 usage error.

One output path: each `cmd_*` returns a `Result(values, notes, code)` and
never prints or exits.  `run` alone prints the values (`_render`), writes
each note to stderr as `# note` and maps exceptions to exit codes; only
`verify` prints as it goes, one PASS/FAIL line per suite as it ends.
"""

import argparse
import os
import sys
from typing import Iterable, NamedTuple

# only the core here: each command imports the other modules it uses
from . import decomposition
from .crystal_binary import DIRECTIONS
from .decomposition import UsageError, compose, decompose, exhaust, normal_form
from .matrices import (
    BINARY,
    INTEGRAL,
    LR,
    NW,
    ORIENTATIONS,
    STAGES,
    InputError,
    condition,
    decode,
    encode,
    is_int_lists,
    matrix_from_json,
    parse_matrix,
    read_json_object,
)
from .shapes import (
    FLAVORS,
    SST,
    SkewShape,
    Tableau,
    format_partition,
    parse_partition,
)


def _read_text(path):
    if path in (None, "-"):
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _read_matrix(args, attr="matrix"):
    text = _read_text(getattr(args, attr, None)).strip()
    if text.startswith("{"):
        return matrix_from_json(text)
    if not getattr(args, "mode", None):
        raise UsageError("--mode is required for text matrix input")
    return parse_matrix(text, args.mode)


def _read_tableau(args, attr="tableau"):
    text = _read_text(getattr(args, attr, None)).strip()
    if text.startswith("{"):
        data = read_json_object(text, {
            "flavor": (lambda v: v in FLAVORS, f"one of {', '.join(FLAVORS)}"),
            "chain": (is_int_lists, "a list of partitions (lists of integers)"),
        })
        return Tableau(data["flavor"], tuple(tuple(c) for c in data["chain"]))
    chain = tuple(parse_partition(line) for line in text.splitlines() if line.strip())
    return Tableau(getattr(args, "flavor", SST) or SST, chain)


class Result(NamedTuple):
    """What a command returns: the values `run` prints to stdout, the notes
    it writes to stderr after them, and the exit code."""

    values: list
    notes: Iterable = ()
    code: int = 0


def _render(values, as_json):
    """Values as text blocks separated by a blank line; with --json, as one
    JSON value, a list when there are two.  A value with to_text/to_json
    renders itself; any other renders as its str."""
    out = [getattr(v, "to_json" if as_json else "to_text", v.__str__)() for v in values]
    return f"[{', '.join(out)}]" if as_json and len(out) > 1 else "\n\n".join(out)


def cmd_encode(args):
    return Result([encode(_read_tableau(args), args.mode)])


def cmd_decode(args):
    m = _read_matrix(args)
    return Result([decode(m, SkewShape.parse(args.shape), args.mode)])


def _index(args):
    if args.index < 0:
        raise UsageError(f"--index must be nonnegative, got {args.index}")
    return args.index


def cmd_move(args):
    m = _read_matrix(args)
    res = decomposition.apply_move(m, args.direction, _index(args))
    if res is None:
        return Result(["null" if args.json else "none"])
    return Result([res[0]], [res[1]])


def cmd_potential(args):
    m = _read_matrix(args)
    return Result([decomposition.potential(m, args.direction, _index(args))])


def cmd_exhaust(args):
    m = _read_matrix(args)
    dirs = [d.strip() for d in args.directions.split(",")]
    out, records = exhaust(m, dirs, args.bound)
    return Result([out], records if args.records else ())


def cmd_decompose(args):
    return Result([*decompose(_read_matrix(args))])


def cmd_compose(args):
    p = _read_matrix(args, "p")
    q = _read_matrix(args, "q")
    return Result([compose(p, q)])


def cmd_normal_form(args):
    return Result([format_partition(normal_form(_read_matrix(args)))])


def cmd_growth(args):
    from . import growth

    m = _read_matrix(args)
    return Result([growth.growth_diagram(m, args.orientation, verify=args.verify)])


def cmd_burge(args):
    from . import insertion

    return Result([*insertion.burge(_read_matrix(args))])


def cmd_dual_rsk(args):
    from . import insertion

    dual_rsk = insertion.dual_rsk_col if args.variant == "col" else insertion.dual_rsk_row
    return Result([*dual_rsk(_read_matrix(args))])


def cmd_dual(args):
    from . import schutzenberger

    return Result([schutzenberger.dual(_read_tableau(args))])


def _box(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"--box must be rows,cols, got {text!r}") from None


def cmd_scalar(args):
    from .cancellation import alternating_sum

    s1, s2 = SkewShape.parse(args.shape1), SkewShape.parse(args.shape2)
    box = _box(args.box) if args.box else (6, 6)
    value = alternating_sum(s1, s2, args.stage, args.mode, box)
    return Result([value], _cancellation_trace(s1, s2, args.mode) if args.trace else ())


def _cancellation_trace(s1, s2, mode):
    """The LR-condition cancellation pairs among tableau-side matrices."""
    from . import cancellation

    for m in cancellation.tableau_side(s1, s2, mode):
        if condition(m, s2, LR, mode):
            continue
        partner = cancellation.involution(m, s2, LR)
        witness = cancellation.lr_witness(m, s2)
        yield f"cancel {m.rows} <-> {partner.rows} witness {witness}"


def cmd_pictures(args):
    from . import pictures

    dom, cod = SkewShape.parse(args.dom), SkewShape.parse(args.cod)
    if args.action == "enumerate":
        pics = pictures.enumerate_pictures(dom, cod)
        return Result([len(pics), *pics])
    if args.action == "validate":
        text = _read_text(args.map)
        mapping = []
        for number, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            try:
                src, dst = line.split("->")
                s = tuple(int(x) for x in src.split(","))
                t = tuple(int(x) for x in dst.split(","))
            except ValueError:
                raise InputError(
                    f"map line {number}: expected 'row,col -> row,col', got {line!r}"
                ) from None
            mapping.append((s, t))
        ok = pictures.validate(tuple(mapping), dom, cod)
        return Result(["valid" if ok else "invalid"], code=0 if ok else 1)
    m = _read_matrix(args)
    proj = pictures.INT if not m.binary else pictures.BIN
    return Result([pictures.lift(m, dom, cod, proj)])


def cmd_verify(args):
    import random

    from .verify import run_suites

    text = os.environ.get("DC_SEED", "0")
    try:
        seed = int(text)
    except ValueError:
        raise UsageError(f"DC_SEED must be an integer, got {text!r}") from None
    names = args.suites or ["all"]
    # each suite's PASS/FAIL line is printed as the suite ends
    ok = run_suites(names, random.Random(seed), verbose=True)
    return Result([], code=0 if ok else 1)


def build_parser():
    ap = argparse.ArgumentParser(prog="doublecrystal")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, emits_json=True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        if emits_json:
            p.add_argument("--json", action="store_true", help="JSON output")
        return p

    p = add("encode", cmd_encode, help="encode a semistandard tableau as a matrix")
    p.add_argument("tableau", nargs="?", help="tableau file (default stdin)")
    p.add_argument("--mode", choices=(BINARY, INTEGRAL), required=True)
    p.add_argument("--flavor", choices=FLAVORS, default=SST)

    p = add("decode", cmd_decode, help="decode a matrix into a tableau")
    p.add_argument("matrix", nargs="?")
    p.add_argument("--mode", choices=(BINARY, INTEGRAL))
    p.add_argument("--shape", required=True, help="outer/inner, e.g. 9,8,5,5,3/4,1")

    p = add("move", cmd_move, help="apply one crystal move")
    p.add_argument("matrix", nargs="?")
    p.add_argument("--mode", choices=(BINARY, INTEGRAL))
    p.add_argument("--direction", choices=DIRECTIONS, required=True)
    p.add_argument("--index", type=int, required=True)

    p = add("potential", cmd_potential, emits_json=False, help="number of successive moves possible")
    p.add_argument("matrix", nargs="?")
    p.add_argument("--mode", choices=(BINARY, INTEGRAL))
    p.add_argument("--direction", choices=DIRECTIONS, required=True)
    p.add_argument("--index", type=int, required=True)

    p = add("exhaust", cmd_exhaust, help="exhaust moves in the given directions")
    p.add_argument("matrix", nargs="?")
    p.add_argument("--mode", choices=(BINARY, INTEGRAL))
    p.add_argument("--directions", required=True, help="comma-separated subset of up,down,left,right")
    p.add_argument("--bound", type=int)
    p.add_argument("--records", action="store_true", help="print the move records to stderr")

    p = add("decompose", cmd_decompose, help="the pair (P, Q) of exhausted matrices")
    p.add_argument("matrix", nargs="?")
    p.add_argument("--mode", choices=(BINARY, INTEGRAL))

    p = add("compose", cmd_compose, help="rebuild the matrix from (P, Q)")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--mode", choices=(BINARY, INTEGRAL))

    p = add("normal-form", cmd_normal_form, emits_json=False, help="partition of the normal form")
    p.add_argument("matrix", nargs="?")
    p.add_argument("--mode", choices=(BINARY, INTEGRAL))

    p = add("growth", cmd_growth, help="growth diagram of a matrix")
    p.add_argument("matrix", nargs="?")
    p.add_argument("--mode", choices=(BINARY, INTEGRAL))
    p.add_argument("--orientation", choices=ORIENTATIONS, default=NW)
    p.add_argument("--verify", action="store_true",
                   help="check every cell against direct normalization")

    p = add("burge", cmd_burge, help="Burge correspondence of an integral matrix")
    p.add_argument("matrix", nargs="?")
    p.add_argument("--mode", choices=(INTEGRAL,), default=INTEGRAL)

    p = add("dual-rsk", cmd_dual_rsk, help="dual RSK of a binary matrix")
    p.add_argument("matrix", nargs="?")
    p.add_argument("--mode", choices=(BINARY,), default=BINARY)
    p.add_argument("--variant", choices=("col", "row"), default="col")

    p = add("dual", cmd_dual, help="Schutzenberger dual of a straight tableau")
    p.add_argument("tableau", nargs="?")
    p.add_argument("--flavor", choices=FLAVORS, default=SST)

    p = add("scalar", cmd_scalar, emits_json=False, help="alternating-sum scalar product")
    p.add_argument("--mode", choices=(BINARY, INTEGRAL), required=True)
    p.add_argument("--stage", choices=STAGES, required=True)
    p.add_argument("--shape1", required=True)
    p.add_argument("--shape2", required=True)
    p.add_argument("--box", help="rows,cols enumeration box covering both targets (default 6,6)")
    p.add_argument("--trace", action="store_true",
                   help="print LR cancellation pairs to stderr")

    p = add("pictures", cmd_pictures, emits_json=False, help="validate, lift, or enumerate pictures")
    # one parser per action, so that lift's matrix file may follow the options
    actions = p.add_subparsers(dest="action", required=True)
    shapes = argparse.ArgumentParser(add_help=False)
    shapes.add_argument("--dom", required=True)
    shapes.add_argument("--cod", required=True)
    a = actions.add_parser("validate", parents=[shapes], help="check a picture file")
    a.add_argument("--map", help="picture file (default stdin)")
    a = actions.add_parser("lift", parents=[shapes], help="the picture a matrix projects from")
    a.add_argument("matrix", nargs="?", help="matrix file (default stdin)")
    a.add_argument("--mode", choices=(BINARY, INTEGRAL))
    actions.add_parser("enumerate", parents=[shapes], help="every picture from dom to cod")

    p = add("verify", cmd_verify, emits_json=False, help="run named property suites")
    p.add_argument("suites", nargs="*", help="suite names (default: all)")

    return ap


def run(argv) -> int:
    """Parse argv, run its command, print the command's values to stdout
    and its notes to stderr, and return the exit code: 0 success, 1 domain
    error, 2 usage error."""
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        result = args.fn(args)
        if result.values:
            print(_render(result.values, getattr(args, "json", False)))
        for note in result.notes:
            print(f"# {note}", file=sys.stderr)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return result.code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
