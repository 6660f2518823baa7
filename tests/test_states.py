import dataclasses

import numpy as np
import pytest

from conftest import blockwise, maximally_mixed
from raggio_kit.algebra import (
    AlgebraElement,
    _is_real,
    direct_sum,
    element,
    make_commutative,
    make_full,
    tensor,
    tensor_element,
    unit,
)
from raggio_kit.bell import (
    ChshObservables,
    chsh_value,
    horodecki_two_qubit,
    random_dichotomic,
    random_observables,
    seesaw,
)
from raggio_kit.entanglement import ppt_check, realignment_check
from raggio_kit.errors import (
    AlgebraMismatchError,
    InvalidArgumentError,
    InvalidDimensionError,
    InvalidStateError,
    MissingFactorizationError,
    UnsupportedShapeError,
)
from raggio_kit.states import (
    PureVector,
    State,
    _check_weights,
    _random_densities,
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
from raggio_kit.serialize import state_to_dict

# every function that reads a state through its ``algebra`` and ``blocks``
STATE_READERS = (
    "ppt_check",
    "realignment_check",
    "purity",
    "seesaw",
    "chsh_value",
    "trace_distance",
    "expectation",
    "restrict_to_factor",
    "horodecki_two_qubit",
    "mixture",
    "product_state",
    "state_to_dict",
)
PURE_CASES = {"singlet": None, "M2xM2": (2, 2), "M2xM3": (2, 3), "M3xM3": (3, 3)}


def random_selfadjoint(alg, rng):
    blocks = []
    for d in alg.block_dims:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        blocks.append(0.5 * (g + g.conj().T))
    return element(alg, blocks)


def test_state_validation():
    alg = make_full(2)
    with pytest.raises(InvalidStateError):
        State(alg, (np.array([[0.5, 1.0], [0.0, 0.5]]),))  # not Hermitian
    with pytest.raises(InvalidStateError):
        State(alg, (np.array([[1.5, 0.0], [0.0, -0.5]]),))  # negative weight
    with pytest.raises(InvalidStateError):
        State(alg, (np.eye(2),))  # trace 2
    with pytest.raises(InvalidStateError):
        State(alg, (np.eye(2) / 2, np.eye(2) / 2))  # block count
    with pytest.raises(InvalidStateError, match=r"shape \(3, 3\), expected \(2, 2\)"):
        State(alg, (np.eye(3) / 3,))
    # finite entries whose Hermitian part overflows used to warn and pass inf on to eigh
    for rho in (np.diag([1e308, 1e308]), np.array([[0.5, 1e308], [1e308, 0.5]])):
        with pytest.raises(InvalidStateError, match="Hermitian part that overflows"):
            State(alg, (rho,))
    with pytest.raises(InvalidStateError, match="trace is inf"):  # a trace that overflows
        State(make_full(3), (np.diag([8e307, 8e307, 8e307]),))
    # bools and strings used to be read as numbers
    with pytest.raises(InvalidArgumentError, match="numbers"):
        State(alg, ([[True, False], [False, False]],))
    with pytest.raises(InvalidArgumentError, match="numbers"):
        PureVector(alg, ["1", "0"])
    with pytest.raises(InvalidArgumentError, match="regular"):
        PureVector(alg, [[1], [0, 1]])


def test_elements_and_states_check_their_blocks_alike():
    # one block check, each wrapper with its own exception type
    alg = direct_sum(make_full(2), make_full(1))
    for make, error, what in (
        (AlgebraElement, InvalidDimensionError, "block"),
        (State, InvalidStateError, "density block"),
    ):
        with pytest.raises(error, match=f"^expected 2 {what}s, got 1$"):
            make(alg, (np.eye(2) / 2,))
        with pytest.raises(error, match=rf"^{what} 1 has shape \(2, 2\), expected \(1, 1\)$"):
            make(alg, (np.eye(2) / 4, np.eye(2) / 4))


def test_states_keep_read_only_copies_of_the_callers_arrays():
    # the unchecked constructor used to freeze and alias the caller's own array
    a = np.eye(2) / 2 + 0j
    for make in (State, State._of_density):
        st = make(make_full(2), (a,))
        a[0, 0] = 1.0
        assert st.blocks[0][0, 0] == 0.5
        assert not st.blocks[0].flags.writeable
        a[0, 0] = 0.5
    amplitudes = np.array([1.0, 0.0], dtype=complex)
    psi = PureVector(make_full(2), amplitudes)
    amplitudes[0] = 0.0
    assert psi.vector[0] == 1.0
    assert not psi.vector.flags.writeable and not psi.blocks[0].flags.writeable


def test_every_public_state_is_checked():
    # a switch that skipped every check used to let these through: CHSH 22 on the first,
    # and NaN passed on to LAPACK from the second
    assert [f.name for f in dataclasses.fields(State)] == ["algebra", "blocks"]
    negative = (np.diag([-5.0, 2.0, 2.0, 2.0]),)
    with pytest.raises(TypeError):
        State(qubit_pair(), negative, trusted=True)
    with pytest.raises(InvalidStateError, match="negative eigenvalue -5.000e"):
        State(qubit_pair(), negative)
    with pytest.raises(InvalidStateError, match="non-finite"):
        State(make_full(2), (np.array([[np.nan, 0.0], [0.0, 0.5]]),))


@pytest.mark.parametrize("amplitudes", [[np.nan, 1, 0, 0], [np.inf, 1, 0, 0], [1, 0, 0, -np.inf]])
def test_pure_vector_rejects_non_finite_amplitudes(amplitudes):
    with pytest.raises(InvalidStateError, match="non-finite"):
        PureVector(make_full(4), amplitudes)


def test_pure_vector_normalizes_amplitudes_whose_squares_overflow():
    # the squared norm of these amplitudes overflows, but the norm does not; they used to
    # normalize to the zero vector, and then to raise "vector norm overflows"
    for amplitudes, unit in (([1e200, 0], [1, 0]), ([1e200, 1e200], [0.5**0.5, 0.5**0.5]),
                             ([1.5e308 + 1.5e308j, 0], [0.5**0.5 * (1 + 1j), 0])):
        np.testing.assert_allclose(PureVector(make_full(2), amplitudes).vector, unit, atol=1e-15)
    # a finite squared norm keeps the plain path, bit for bit
    amplitudes = np.array([1e150, 3e150j])
    big = PureVector(make_full(2), amplitudes)
    assert np.array_equal(big.vector, amplitudes / np.linalg.norm(amplitudes))


def test_state_rejects_nan_on_the_diagonal():
    rho = np.diag([np.nan, 0.5]).astype(complex)
    with pytest.raises(InvalidStateError, match="non-finite"):
        State(make_full(2), (rho,))


def test_state_rejects_nan_off_the_diagonal():
    rho = np.array([[0.5, np.nan], [np.nan, 0.5]], dtype=complex)
    with pytest.raises(InvalidStateError, match="non-finite"):
        State(make_full(2), (rho,))
    with pytest.raises(InvalidStateError, match="non-finite"):
        State(make_full(2), (np.array([[0.5, np.inf], [0.0, 0.5]]),))


def test_state_accepts_tiny_defects():
    alg = make_full(2)
    rho = np.array([[0.5, 1e-11j], [-1e-11j, 0.5]])
    rho[0, 0] += 3e-10  # trace off by less than the tolerance
    st = State(alg, (rho,))
    assert np.trace(st.matrix).real == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.eigvalsh(st.blocks[0])[0] >= 0.0


def test_pure_vector_normalizes():
    psi = PureVector(make_full(2), [0.7071, 0.7071])
    assert np.linalg.norm(psi.vector) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(InvalidStateError):
        PureVector(make_full(2), [0.0, 0.0])
    with pytest.raises(UnsupportedShapeError):
        PureVector(make_commutative(2), [1.0, 0.0])
    with pytest.raises(InvalidStateError):
        PureVector(make_full(3), [1.0, 0.0])


def test_pure_vector_state_is_projection():
    rng = np.random.default_rng(0)
    for _ in range(10):
        psi = random_pure(make_full(4), rng)
        st = psi.state()
        assert purity(st) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(st.blocks[0] @ st.blocks[0], st.blocks[0], atol=1e-12)


def test_expectation_unit_and_linearity():
    rng = np.random.default_rng(1)
    alg = direct_sum(make_full(2), make_commutative(2))
    for _ in range(10):
        st = random_mixed(alg, rng)
        assert expectation(st, unit(alg)) == pytest.approx(1.0, abs=1e-12)
        x, y = random_selfadjoint(alg, rng), random_selfadjoint(alg, rng)
        lhs = expectation(st, blockwise(lambda p, q: p + 2.0 * q, x, y))
        rhs = expectation(st, x) + 2.0 * expectation(st, y)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_expectation_positive_on_squares():
    rng = np.random.default_rng(2)
    alg = direct_sum(make_full(3), make_full(2))
    for _ in range(20):
        st = random_mixed(alg, rng)
        x = random_selfadjoint(alg, rng)
        val = expectation(st, blockwise(lambda b: b.conj().T @ b, x))
        assert val.real >= -1e-12
        assert abs(val.imag) < 1e-12


def test_expectation_algebra_mismatch():
    st = maximally_mixed(make_full(2))
    with pytest.raises(AlgebraMismatchError):
        expectation(st, unit(make_full(3)))


@pytest.mark.parametrize(
    "call",
    [
        lambda a, b: trace_distance(a, b),
        lambda a, b: mixture([0.5, 0.5], [a, b]),
        lambda a, b: product_state(a, a, tensor(a.algebra, b.algebra)),
    ],
    ids=["trace_distance", "mixture", "product_state"],
)
def test_states_on_different_algebras_raise_mismatch(call):
    a, b = maximally_mixed(make_full(2)), maximally_mixed(make_full(3))
    with pytest.raises(AlgebraMismatchError):
        call(a, b)


@pytest.mark.parametrize(
    "call",
    [
        lambda a, b: ChshObservables(unit(a.algebra), unit(b.algebra), *[unit(a.algebra)] * 2),
        lambda a, b: expectation(a, unit(b.algebra)),
        lambda a, b: trace_distance(a, b),
        lambda a, b: mixture([0.5, 0.5], [a, b]),
    ],
    ids=["observables", "expectation", "trace_distance", "mixture"],
)
def test_values_on_two_algebras_raise_one_mismatch_message(call):
    a, b = maximally_mixed(make_full(2)), maximally_mixed(make_full(3))
    with pytest.raises(AlgebraMismatchError, match="^values live on different algebras: M2 vs M3$"):
        call(a, b)


def test_purity_bounds():
    rng = np.random.default_rng(3)
    alg = direct_sum(make_full(2), make_full(2))
    for _ in range(20):
        st = random_mixed(alg, rng)
        assert 1.0 / alg.total_dim - 1e-12 <= purity(st) <= 1.0 + 1e-12
    assert purity(maximally_mixed(alg)) == pytest.approx(0.25, abs=1e-12)


def test_restrict_to_diagonal_matches_density_diagonal():
    # two routes: squared amplitudes directly, and the diagonal of the
    # induced density matrix
    rng = np.random.default_rng(4)
    for n in range(1, 9):
        for _ in range(5):
            psi = random_pure(make_full(n), rng)
            p = restrict_to_diagonal(psi)
            np.testing.assert_allclose(p, np.abs(psi.vector) ** 2, atol=1e-15)
            np.testing.assert_allclose(
                p, np.diagonal(psi.state().blocks[0]).real, atol=1e-13
            )
            assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_restrict_to_diagonal_rejects_densities():
    st = maximally_mixed(make_full(2))
    with pytest.raises(InvalidArgumentError):
        restrict_to_diagonal(st)


def test_product_state_restricts_to_factors():
    rng = np.random.default_rng(6)
    alg_a = direct_sum(make_full(2), make_commutative(1))
    alg_b = make_full(3)
    for _ in range(10):
        sa, sb = random_mixed(alg_a, rng), random_mixed(alg_b, rng)
        joint = product_state(sa, sb)
        assert trace_distance(restrict_to_factor(joint, "a"), sa) < 1e-12
        assert trace_distance(restrict_to_factor(joint, "b"), sb) < 1e-12


def test_restriction_agrees_with_tensor_unit_expectation():
    # omega restricted to A must satisfy omega_A(x) = omega(x (x) 1); this
    # identity is checked against the partial-trace implementation directly
    rng = np.random.default_rng(7)
    alg_a = direct_sum(make_full(2), make_full(2))
    alg_b = direct_sum(make_full(2), make_commutative(2))
    prod = tensor(alg_a, alg_b)
    for _ in range(10):
        st = random_mixed(prod, rng)
        ra = restrict_to_factor(st, "a")
        rb = restrict_to_factor(st, "b")
        x = random_selfadjoint(alg_a, rng)
        y = random_selfadjoint(alg_b, rng)
        lhs_a = expectation(ra, x)
        rhs_a = expectation(st, tensor_element(x, unit(alg_b)))
        assert lhs_a == pytest.approx(rhs_a, abs=1e-12)
        lhs_b = expectation(rb, y)
        rhs_b = expectation(st, tensor_element(unit(alg_a), y))
        assert lhs_b == pytest.approx(rhs_b, abs=1e-12)


def test_restriction_needs_factorization():
    st = maximally_mixed(make_full(4))
    with pytest.raises(MissingFactorizationError):
        restrict_to_factor(st, "a")
    joint = maximally_mixed(tensor(make_full(2), make_full(2)))
    # an array once ended in numpy's ValueError on its ambiguous truth value
    for keep in ("c", np.zeros(3), None, ["a"]):
        with pytest.raises(InvalidArgumentError, match="^keep must be 'a' or 'b'"):
            restrict_to_factor(joint, keep)


def test_mixture():
    alg = make_full(2)
    rng = np.random.default_rng(8)
    parts = [random_mixed(alg, rng) for _ in range(3)]
    mix = mixture([0.5, 0.3, 0.2], parts)
    expected = 0.5 * parts[0].blocks[0] + 0.3 * parts[1].blocks[0] + 0.2 * parts[2].blocks[0]
    np.testing.assert_allclose(mix.blocks[0], expected, atol=1e-12)
    with pytest.raises(InvalidArgumentError):
        mixture([0.5, 0.3], parts)
    with pytest.raises(InvalidArgumentError):
        mixture([0.7, 0.4, -0.1], parts)
    with pytest.raises(InvalidArgumentError):
        mixture([0.5, 0.3, 0.1], parts)
    # bools and strings used to be read as numbers, and NaN reached the density check
    for weights in ([True], ["0.5", "0.5"]):
        with pytest.raises(InvalidArgumentError):
            mixture(weights, parts[: len(weights)])
    with pytest.raises(InvalidArgumentError, match="finite"):
        mixture([float("nan")], parts[:1])
    # ints beyond the float range used to end in a raw OverflowError
    with pytest.raises(InvalidArgumentError, match="real number"):
        mixture([10**400, 1 - 10**400], parts[:2])


def test_weight_arrays_are_read_as_the_element_wise_rule_reads_them():
    # real dtypes skip the per-element walk; every other array is still walked
    arrays = [
        (np.array([0.25, 0.75]), True),
        (np.array([0.5, 0.5], dtype=np.float32), True),
        (np.array([1, 0]), True),
        (np.array([0, 1], dtype=np.int8), True),
        (np.array([1, 0], dtype=np.uint64), True),
        (np.array([0, 1], dtype=np.uint8), True),
        (np.array([True, False]), False),
        (np.array([0.5, 0.5], dtype=complex), False),
        (np.array([1.0, False], dtype=object), False),
        (np.array([0.5, 0.5], dtype=object), True),
    ]
    assert {w.dtype.kind for w, _ in arrays} == set("fiubcO")
    for weights, accepted in arrays:
        assert all(map(_is_real, weights)) == accepted
        if accepted:
            np.testing.assert_array_equal(_check_weights(weights, 2, 1e-6), weights)
        else:
            with pytest.raises(InvalidArgumentError, match="real number"):
                _check_weights(weights, 2, 1e-6)


def test_weight_count_errors_say_how_many_weights_are_needed():
    parts = [random_mixed(make_full(2), 8)] * 2
    empty = r"^weights must be at least one; no term given, got \[\]$"
    with pytest.raises(InvalidArgumentError, match=empty):
        mixture([], [])
    with pytest.raises(InvalidArgumentError, match=r"no term given"):
        mixture([1.0], [])
    with pytest.raises(InvalidArgumentError, match=r"^weights must be 2 real number\(s\), one per"):
        mixture([1.0], parts)


def test_singlet_density():
    st = singlet().state()
    expected = np.zeros((4, 4))
    expected[1, 1] = expected[2, 2] = 0.5
    expected[1, 2] = expected[2, 1] = -0.5
    np.testing.assert_allclose(st.blocks[0], expected, atol=1e-15)


def test_werner_family():
    np.testing.assert_allclose(
        werner(1.0).blocks[0], singlet().state().blocks[0], atol=1e-15
    )
    np.testing.assert_allclose(werner(0.0).blocks[0], np.eye(4) / 4, atol=1e-15)
    assert purity(werner(0.5)) == pytest.approx(0.4375, abs=1e-12)
    with pytest.raises(InvalidArgumentError):
        werner(1.5)
    with pytest.raises(InvalidArgumentError):
        werner(-0.1)
    with pytest.raises(InvalidArgumentError):  # used to end in a TypeError
        werner("x")
    with pytest.raises(InvalidArgumentError):  # a bool used to pass as p = 1
        werner(True)


def test_singlet_and_werner_need_two_qubit_factors():
    # both build on qubit_pair() and take no product, so none can name
    # M4 (x) M1, whose 4-dimensional joint block holds no singlet
    assert singlet().algebra == werner(0.5).algebra == qubit_pair()
    for product in (qubit_pair(), tensor(make_full(4), make_full(1))):
        with pytest.raises(TypeError):
            singlet(product)
        with pytest.raises(TypeError):
            werner(1.0, product)


def test_random_states_are_states():
    rng = np.random.default_rng(9)
    alg = direct_sum(make_full(3), make_commutative(2))
    for _ in range(10):
        for st in (random_mixed(alg, rng), random_vector_state(alg, rng)):
            assert np.trace(st.matrix).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(st.matrix)[0] >= -1e-12


def test_random_pure_needs_single_block():
    with pytest.raises(UnsupportedShapeError):
        random_pure(make_commutative(2), 0)


def test_trace_distance_metric():
    rng = np.random.default_rng(10)
    alg = make_full(3)
    for _ in range(20):
        a, b, c = (random_mixed(alg, rng) for _ in range(3))
        assert trace_distance(a, a) < 1e-14
        assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), abs=1e-13)
        assert (
            trace_distance(a, c)
            <= trace_distance(a, b) + trace_distance(b, c) + 1e-12
        )
        assert -1e-15 <= trace_distance(a, b) <= 1.0 + 1e-12


def _one_state_at_a_time(algebra, vector_mask, rng) -> list[list[np.ndarray]]:
    """Per draw, the density blocks as random_vector_state and random_mixed once drew
    them, one state and one standard_normal call per part at a time."""
    out = []
    for vector in vector_mask:
        if vector:
            n = algebra.total_dim
            psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            psi /= np.linalg.norm(psi)
            out.append([np.outer(psi[s], psi[s].conj()) for s in algebra.block_slices()])
            continue
        blocks = []
        for d in algebra.block_dims:
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            blocks.append(g @ g.conj().T)
        tr = sum(np.trace(b).real for b in blocks)
        out.append([b / tr for b in blocks])
    return out


def test_batched_draws_are_the_single_draws_bit_for_bit():
    m2d1 = direct_sum(make_full(2), make_commutative(1))
    algebras = [
        make_full(3),
        direct_sum(m2d1, make_full(3)),
        make_commutative(4),
        tensor(make_full(2), make_full(2)),
        tensor(make_full(3), make_commutative(4)),
        tensor(m2d1, make_full(2)),
        tensor(direct_sum(make_full(2), make_full(1)), m2d1),
        tensor(make_full(3), make_full(3)),
    ]
    masks = np.random.default_rng(2)
    for seed, alg in enumerate(algebras):
        for mask in (masks.random(12) < 0.5, [True] * 3, [False] * 3, []):
            batched_rng, single_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            batched = _random_densities(alg, mask, batched_rng)
            single = _one_state_at_a_time(alg, mask, single_rng)
            assert [b.shape for b in batched] == [(len(mask), d, d) for d in alg.block_dims]
            for k, blocks in enumerate(single):
                assert [b[k].tobytes() for b in batched] == [b.tobytes() for b in blocks]
            assert batched_rng.bit_generator.state == single_rng.bit_generator.state
        # the public draws are the one-row case
        for draw, vector in ((random_vector_state, True), (random_mixed, False)):
            st = draw(alg, np.random.default_rng(seed))
            (blocks,) = _one_state_at_a_time(alg, [vector], np.random.default_rng(seed))
            assert [b.tobytes() for b in st.blocks] == [b.tobytes() for b in blocks]


def test_seed_handling_is_deterministic():
    a = random_mixed(make_full(3), 123)
    b = random_mixed(make_full(3), 123)
    np.testing.assert_allclose(a.matrix, b.matrix)
    g = np.random.default_rng(123)
    c = random_mixed(make_full(3), g)
    np.testing.assert_allclose(a.matrix, c.matrix)
    for seed in (-1, True, False):  # a bool used to seed as 1 or 0
        with pytest.raises(InvalidArgumentError, match="seed"):
            random_mixed(make_full(3), seed)


def _state_readers(product, rng) -> dict:
    """Each of STATE_READERS as a function of the state alone; its other
    arguments are drawn from ``rng`` once."""
    alg_a, alg_b = product.factors
    other = random_mixed(product, rng)
    b1, b2 = random_dichotomic(alg_b, rng), random_dichotomic(alg_b, rng)
    obs = random_observables(alg_a, alg_b, rng)
    x = random_dichotomic(product, rng)
    return {
        "ppt_check": ppt_check,
        "realignment_check": realignment_check,
        "purity": purity,
        "seesaw": lambda st: seesaw(st, b1, b2),
        "chsh_value": lambda st: chsh_value(st, obs),
        "trace_distance": lambda st: trace_distance(st, other),
        "expectation": lambda st: expectation(st, x),
        "restrict_to_factor": lambda st: (restrict_to_factor(st, "a"), restrict_to_factor(st, "b")),
        "horodecki_two_qubit": horodecki_two_qubit,
        "mixture": lambda st: mixture([0.25, 0.75], [st, other]),
        "product_state": lambda st: product_state(st, maximally_mixed(alg_a)),
        "state_to_dict": state_to_dict,
    }


def _plain(value):
    """``value`` with every state and element turned into nested lists, for ``==``."""
    if hasattr(value, "blocks"):
        return [value.algebra, [blk.tolist() for blk in value.blocks]]
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if hasattr(value, "a1"):  # ChshObservables
        return _plain([value.a1, value.a2, value.b1, value.b2])
    return value


@pytest.mark.parametrize(
    "reader, case",
    [
        (reader, case)
        for reader in STATE_READERS
        for case in PURE_CASES
        if reader != "horodecki_two_qubit" or case in ("singlet", "M2xM2")
    ],
)
def test_pure_vector_reads_as_the_state_it_induces(reader, case):
    # every reader but separability_test and chsh_optimize used to raise a
    # raw AttributeError on a PureVector, which had no ``blocks``
    rng = np.random.default_rng(7)
    if PURE_CASES[case] is None:
        psi = singlet()
    else:
        n, m = PURE_CASES[case]
        psi = random_pure(tensor(make_full(n), make_full(m)), rng)
    f = _state_readers(psi.algebra, rng)[reader]
    assert _plain(f(psi)) == _plain(f(psi.state()))
    assert isinstance(psi, State)
