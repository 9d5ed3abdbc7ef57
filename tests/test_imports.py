"""The package namespace and the modules a process loads.

`import doublecrystal` loads only the core (shapes, matrices, the crystal
kernels and the decomposition); the names of the other modules resolve on
first access.  A command-line process for a core command must not load the
other modules, `verify`, or `dataclasses`/`inspect`.
"""

import copy
import importlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import doublecrystal as dc
from doublecrystal.growth import GrowthDiagram, growth_diagram
from doublecrystal.matrices import IntegralMatrix
from doublecrystal.pictures import Picture
from doublecrystal.shapes import SkewShape, Tableau

from conftest import M_BIN, M_INT, P_INT, Q_INT

# every name `doublecrystal` exports, by the module that defines it
API = {
    "shapes": ("SST", "TRANSPOSE", "REVERSE", "REVERSE_TRANSPOSE", "SkewShape", "Tableau",
               "conjugate", "revert", "strip_le", "tableau_weight", "trim"),
    "matrices": ("BINARY", "INTEGRAL", "LR", "TABLEAU", "BinaryMatrix", "DecodeError",
                 "InputError", "IntegralMatrix", "condition", "decode", "diagon", "diagram",
                 "encode", "margins"),
    "crystal_binary": ("DOWN", "LEFT", "RIGHT", "UP", "MoveRecord"),
    "crystal_integral": ("TransferRecord",),
    "decomposition": ("ComposeError", "UsageError", "compose", "crystal_class_potentials",
                      "decompose", "exhaust", "is_normal", "normal_form"),
    "insertion": ("burge", "column_insert", "dual_rsk_col", "dual_rsk_row", "rectify",
                  "rsk_row"),
    "growth": ("GrowthDiagram", "ShapeDatumError", "burge_backward", "burge_forward",
               "dual_backward", "dual_forward", "french_form", "growth_diagram",
               "implicit_shape", "recognize_french", "recognize_sliced",
               "render_growth_diagram", "rsk_backward", "rsk_forward", "sliced_form"),
    "cancellation": ("BoxTooSmall", "NotCancellable", "alternating_sum", "edge_symbol",
                     "involution", "lr_count"),
    "schutzenberger": ("dual", "rotate_complement"),
    "pictures": ("LiftError", "Picture", "SizeError", "enumerate_pictures", "lift", "project",
                 "validate"),
}
LAZY = ("insertion", "growth", "cancellation", "schutzenberger", "pictures")
NOT_LOADED = tuple(f"doublecrystal.{m}" for m in LAZY) + (
    "doublecrystal.verify", "dataclasses", "inspect")

# runs the command line in-process, then reports which NOT_LOADED modules
# it loaded beyond those the bare interpreter had
PROBE = """
import json, sys
before = set(sys.modules)
from doublecrystal.cli import run
code = run(sys.argv[2:])
loaded = sorted(m for m in json.loads(sys.argv[1]) if m in sys.modules and m not in before)
sys.stderr.write("\\n" + json.dumps([code, loaded]))
"""


def _probe(argv, cwd):
    env = dict(os.environ)
    src = str(Path(dc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(NOT_LOADED), *argv],
                          capture_output=True, text=True, env=env, cwd=cwd, timeout=60,
                          stdin=subprocess.DEVNULL)
    return json.loads(proc.stderr.rsplit("\n", 1)[-1])


@pytest.fixture
def inputs(tmp_path):
    files = {"t": "0\n2\n3,2\n"}
    for name, m in (("mbin", M_BIN), ("mint", M_INT), ("pint", P_INT), ("qint", Q_INT)):
        files[name] = m.to_text() + "\n"
    for name, text in files.items():
        (tmp_path / f"{name}.txt").write_text(text)
    return tmp_path


@pytest.mark.parametrize("argv", [
    ["decompose", "--mode", "binary", "mbin.txt"],
    ["compose", "--mode", "integral", "--p", "pint.txt", "--q", "qint.txt"],
    ["normal-form", "--mode", "integral", "mint.txt"],
    ["exhaust", "--mode", "binary", "--directions", "up,left", "--records", "mbin.txt"],
    ["move", "--mode", "integral", "--direction", "up", "--index", "0", "mint.txt"],
    ["potential", "--mode", "binary", "--direction", "left", "--index", "1", "mbin.txt"],
    ["encode", "--mode", "integral", "t.txt"],
    ["decode", "--mode", "binary", "--shape", "9,8,5,5,3/4,1", "mbin.txt"],
], ids=lambda argv: argv[0])
def test_core_commands_load_only_the_core(inputs, argv):
    assert _probe(argv, inputs) == [0, []]


@pytest.mark.parametrize("argv,modules", [
    (["growth", "--mode", "integral", "mint.txt"], ["growth"]),
    (["burge", "mint.txt"], ["insertion"]),
    (["dual", "t.txt"], ["schutzenberger"]),
    (["scalar", "--mode", "binary", "--stage", "brute", "--shape1", "2,1", "--shape2", "2,1",
      "--trace"], ["cancellation", "pictures"]),
    (["pictures", "enumerate", "--dom", "2,1", "--cod", "2,1"], ["pictures"]),
    (["verify", "moves"], sorted(LAZY + ("verify",))),
], ids=["growth", "burge", "dual", "scalar", "pictures", "verify"])
def test_other_commands_load_only_their_modules(inputs, argv, modules):
    assert _probe(argv, inputs) == [0, [f"doublecrystal.{m}" for m in modules]]


def test_every_name_resolves_to_its_definition():
    assert sorted(dc.__all__) == sorted(name for names in API.values() for name in names)
    assert set(dc.__all__) | set(API) <= set(dir(dc))
    for module, names in API.items():
        mod = importlib.import_module(f"doublecrystal.{module}")
        assert getattr(dc, module) is mod
        for name in names:
            assert getattr(dc, name) is getattr(mod, name), name
    assert not hasattr(dc, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        dc.no_such_name


def _values():
    shape = SkewShape((3, 2, 0), inner=(1,))
    tableau = Tableau("sst", [(), (2,), (3, 2), (3, 2)])
    gd = growth_diagram(IntegralMatrix([[1, 0], [2, 1]]), "NE")
    pic = Picture(SkewShape((1,)), SkewShape((1,)), [((0, 0), (0, 0))])
    return [
        (shape, SkewShape(outer=(3, 2), inner=(1, 0)), SkewShape((3, 2)),
         "SkewShape(outer=(3, 2), inner=(1,))"),
        (tableau, Tableau(flavor="sst", chain=((), (2,), (3, 2))), Tableau("sst", ((), (2,))),
         "Tableau(flavor='sst', chain=((), (2,), (3, 2)))"),
        (gd, GrowthDiagram("NE", gd.grid, IntegralMatrix([[1, 0], [2, 1]])),
         GrowthDiagram("NW", gd.grid, gd.source),
         "GrowthDiagram(orientation='NE', grid=(((), (), ()), ((1,), (), ()), "
         "((3, 1), (1,), ())), source=IntegralMatrix([[1, 0], [2, 1]]))"),
        (pic, Picture(domain=SkewShape((1,)), codomain=SkewShape((1,)),
                      mapping=(((0, 0), (0, 0)),)),
         Picture(SkewShape((1,)), SkewShape((1, 1), (1,)), [((0, 0), (1, 0))]),
         "Picture(domain=SkewShape(outer=(1,), inner=()), codomain=SkewShape(outer=(1,), "
         "inner=()), mapping=(((0, 0), (0, 0)),))"),
    ]


@pytest.mark.parametrize("value,same,other,text", _values(),
                         ids=["SkewShape", "Tableau", "GrowthDiagram", "Picture"])
def test_value_classes(value, same, other, text):
    fields = type(value)._fields
    assert repr(value) == text
    assert value == same and hash(value) == hash(same)
    assert hash(value) == hash(tuple(getattr(value, f) for f in fields))
    assert value != other
    assert value.__eq__(tuple(getattr(value, f) for f in fields)) is NotImplemented
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value) and twin == value and repr(twin) == text
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == text
