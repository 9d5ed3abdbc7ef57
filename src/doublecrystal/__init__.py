"""Crystal operations on binary and integral matrices."""

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
from .insertion import burge, column_insert, dual_rsk_col, dual_rsk_row, rectify, rsk_row
from .growth import (
    GrowthDiagram,
    ShapeDatumError,
    burge_backward,
    burge_forward,
    dual_backward,
    dual_forward,
    french_form,
    growth_diagram,
    implicit_shape,
    recognize_french,
    recognize_sliced,
    render_growth_diagram,
    rsk_backward,
    rsk_forward,
    sliced_form,
)
from .cancellation import (
    BoxTooSmall,
    NotCancellable,
    alternating_sum,
    edge_symbol,
    involution,
    lr_count,
)
from .schutzenberger import dual, rotate_complement
from .pictures import (
    LiftError,
    Picture,
    SizeError,
    enumerate_pictures,
    lift,
    project,
    validate,
)
