"""Finite-dimensional operator algebras, states, decomposability tests, and
CHSH optimization."""

from .algebra import (
    AlgebraElement,
    FdAlgebra,
    direct_sum,
    element,
    make_commutative,
    make_full,
    operator_norm,
    tensor,
    tensor_element,
    unit,
)
from .bell import (
    CHSH_CLASSICAL_BOUND,
    CHSH_QUANTUM_BOUND,
    ChshObservables,
    ChshResult,
    canonical_qubit_observables,
    chsh_optimize,
    chsh_value,
    horodecki_two_qubit,
    random_dichotomic,
    random_observables,
    seesaw,
    sign_operator,
)
from .entanglement import (
    ENTANGLED_PPT,
    ENTANGLED_PURE,
    ENTANGLED_REALIGNMENT,
    SEPARABLE,
    UNDETERMINED,
    Decomposition,
    PureVerdict,
    SeparabilityVerdict,
    classical_decompose,
    is_entangled_pure,
    ppt_check,
    realignment_check,
    reconstruct,
    schmidt,
    separability_test,
)
from .errors import (
    AlgebraMismatchError,
    InvalidArgumentError,
    InvalidDimensionError,
    InvalidStateError,
    MissingFactorizationError,
    PreconditionError,
    RaggioKitError,
    ResourceLimitError,
    UnsupportedShapeError,
)
from .harness import (
    BellScan,
    RaggioReport,
    bell_one_side_classical,
    embedded_singlet,
    embedded_werner,
    verify_equivalence,
)
from .states import (
    PureVector,
    State,
    expectation,
    mixture,
    product_state,
    purity,
    qubit_pair,
    random_mixed,
    random_pure,
    random_vector_state,
    restrict_to_diagonal,
    restrict_to_factor,
    singlet,
    trace_distance,
    werner,
)

__version__ = "0.1.0"
