"""Crystal operations on binary and integral matrices.

The core that every command-line operation needs (shapes, matrices, the
two crystal kernels and the decomposition) is imported with the package.
The names of `insertion`, `growth`, `cancellation`, `schutzenberger` and
`pictures`, and those modules themselves, are imported on first access
(PEP 562), so a process loads only the modules it uses.
"""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .shapes import (
    SST,
    TRANSPOSE,
    REVERSE,
    REVERSE_TRANSPOSE,
    SkewShape,
    Tableau,
    conjugate,
    revert,
    strip_le,
    tableau_weight,
    trim,
)
from .matrices import (
    BINARY,
    INTEGRAL,
    LR,
    TABLEAU,
    BinaryMatrix,
    DecodeError,
    InputError,
    IntegralMatrix,
    condition,
    decode,
    diagon,
    diagram,
    encode,
    margins,
)
from .crystal_binary import DOWN, LEFT, RIGHT, UP, MoveRecord
from .crystal_integral import TransferRecord
from .decomposition import (
    ComposeError,
    UsageError,
    compose,
    crystal_class_potentials,
    decompose,
    exhaust,
    is_normal,
    normal_form,
)

# name -> the submodule that defines it, for the names imported on first access
_LAZY = {
    name: module
    for module, names in (
        ("insertion", ("burge", "column_insert", "dual_rsk_col", "dual_rsk_row", "rectify",
                       "rsk_row")),
        ("growth", ("GrowthDiagram", "ShapeDatumError", "burge_backward", "burge_forward",
                    "dual_backward", "dual_forward", "french_form", "growth_diagram",
                    "implicit_shape", "recognize_french", "recognize_sliced",
                    "render_growth_diagram", "rsk_backward", "rsk_forward", "sliced_form")),
        ("cancellation", ("BoxTooSmall", "NotCancellable", "alternating_sum", "edge_symbol",
                          "involution", "lr_count")),
        ("schutzenberger", ("dual", "rotate_complement")),
        ("pictures", ("LiftError", "Picture", "SizeError", "enumerate_pictures", "lift",
                      "project", "validate")),
    )
    for name in names
}
_LAZY_MODULES = frozenset(_LAZY.values())

# every public name: the core names imported above, then the lazy ones
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__all__ += _LAZY


def __getattr__(name):
    if name in _LAZY_MODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAZY_MODULES})
