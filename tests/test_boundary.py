"""The public boundary: every callable that ``raggio_kit`` exports, and the six JSON
loaders of ``serialize``, called with valid small arguments (M2, D2, two samples,
one restart, a search budget of 5) except for one required argument, which takes a
wrong-typed or extreme value drawn by hypothesis.  Each such call must return or
raise a RaggioKitError, never a raw AttributeError, TypeError or ValueError."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import raggio_kit as rk
from conftest import maximally_mixed
from raggio_kit import serialize

M2, D2 = rk.make_full(2), rk.make_commutative(2)
PAIR = rk.tensor(M2, M2)
U2 = rk.unit(M2)
WERNER = rk.werner(0.5)
CLASSICAL = rk.random_mixed(rk.tensor(M2, D2), 0)
VECTOR = rk.PureVector(M2, [1.0, 0.0])
DEC = rk.Decomposition(PAIR, [(0, 0, [1.0], [[1.0, 0.0]], [[0.0, 1.0]])])
OBS = rk.canonical_qubit_observables(M2, M2)
REPORT = rk.verify_equivalence(M2, D2, samples=2, seed=0, restarts=1)

# per callable: the valid values of its required arguments, in order, and the valid
# small settings it is called with
CALLS = {
    "AlgebraElement": ((M2, [np.eye(2)]), {}),
    "BellScan": ((True, 2.0, 2, 2), {}),
    "ChshObservables": ((U2, U2, U2, U2), {}),
    "ChshResult": ((2.0, OBS, 1, 1, True), {}),
    "Decomposition": ((PAIR, DEC.rows), {}),
    "FdAlgebra": (((2, 1),), {}),
    "PureVector": ((M2, [1.0, 0.0]), {}),
    "PureVerdict": ((True, 0.5), {}),
    "RaggioReport": (tuple(vars(REPORT).values())[:13], {}),
    "SeparabilityVerdict": ((rk.SEPARABLE,), {}),
    "State": ((M2, [np.eye(2) / 2]), {}),
    "bell_one_side_classical": ((M2, D2), {"samples": 2, "settings": 2, "seed": 0}),
    "canonical_qubit_observables": ((M2, M2), {}),
    "chsh_optimize": ((WERNER,), {"restarts": 1, "seed": 0}),
    "chsh_value": ((WERNER, OBS), {}),
    "classical_decompose": ((CLASSICAL,), {}),
    "direct_sum": ((M2, D2), {}),
    "element": ((M2, [np.eye(2)]), {}),
    "embedded_singlet": ((M2, M2), {}),
    "embedded_werner": ((0.5, M2, M2), {}),
    "expectation": ((WERNER, rk.unit(PAIR)), {}),
    "horodecki_two_qubit": ((WERNER,), {}),
    "is_entangled_pure": ((rk.singlet(),), {}),
    "make_commutative": ((2,), {}),
    "make_full": ((2,), {}),
    "mixture": (([1.0], [WERNER]), {}),
    "operator_norm": ((U2,), {}),
    "ppt_check": ((WERNER,), {}),
    "product_state": ((maximally_mixed(M2), maximally_mixed(D2)), {}),
    "purity": ((WERNER,), {}),
    "random_dichotomic": ((M2,), {"rng": 0}),
    "random_mixed": ((M2,), {"rng": 0}),
    "random_observables": ((M2, D2), {"rng": 0}),
    "random_pure": ((M2,), {"rng": 0}),
    "random_vector_state": ((M2,), {"rng": 0}),
    "realignment_check": ((WERNER,), {}),
    "reconstruct": ((DEC,), {}),
    "restrict_to_diagonal": ((VECTOR,), {}),
    "restrict_to_factor": ((WERNER, "a"), {}),
    "schmidt": ((rk.singlet(),), {}),
    "seesaw": ((WERNER, U2, U2), {}),
    "separability_test": ((WERNER,), {"budget": 5, "seed": 0}),
    "sign_operator": ((U2,), {}),
    "tensor": ((M2, D2), {}),
    "tensor_element": ((U2, U2), {}),
    "trace_distance": ((WERNER, WERNER), {}),
    "unit": ((M2,), {}),
    "verify_equivalence": ((M2, D2), {"samples": 2, "seed": 0, "restarts": 1}),
    "werner": ((0.5,), {}),
}
LOADS = {
    "algebra_from_dict": serialize.algebra_to_dict(rk.tensor(M2, D2)),
    "element_from_dict": serialize.element_to_dict(U2),
    "state_from_dict": serialize.state_to_dict(WERNER),
    "pure_vector_from_dict": serialize.pure_vector_to_dict(VECTOR),
    "decomposition_from_dict": serialize.decomposition_to_dict(DEC),
    "observables_from_dict": serialize.observables_to_dict(OBS),
}
CALLS.update({name: ((data,), {}) for name, data in LOADS.items()})

BAD_VALUES = (
    None,
    "s",
    np.zeros(3),
    7,
    True,
    float("nan"),
    float("inf"),
    [[1]],
    object(),
    maximally_mixed(M2),
    VECTOR,
    DEC,
    OBS,
)


def _function(name):
    return getattr(serialize, name) if name in LOADS else getattr(rk, name)


def _required(fn) -> list[str]:
    """The parameters of ``fn`` that a call must give."""
    params = inspect.signature(fn).parameters.values()
    kinds = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    return [p.name for p in params if p.kind in kinds and p.default is inspect.Parameter.empty]


def test_every_exported_callable_with_a_required_argument_is_probed():
    exported = {
        name
        for name in dir(rk)
        if not name.startswith("_")
        and callable(getattr(rk, name))
        and not (isinstance(getattr(rk, name), type) and issubclass(getattr(rk, name), Exception))
    }
    takes_none = {name for name in exported if not _required(getattr(rk, name))}
    assert takes_none == {"qubit_pair", "singlet"}
    assert set(CALLS) == exported - takes_none | set(LOADS)
    for name, (args, _) in CALLS.items():
        assert len(args) == len(_required(_function(name))), name


@pytest.mark.parametrize("name", sorted(CALLS))
def test_valid_small_calls_return(name):
    args, kwargs = CALLS[name]
    _function(name)(*args, **kwargs)


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_one_bad_argument_returns_or_raises_a_domain_error(name, data):
    args, kwargs = CALLS[name]
    position = data.draw(st.integers(0, len(args) - 1), label="position")
    bad = data.draw(st.sampled_from(BAD_VALUES), label="value")
    call = list(args)
    call[position] = bad
    try:
        _function(name)(*call, **kwargs)
    except rk.RaggioKitError:
        pass
