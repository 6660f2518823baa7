import dataclasses
import warnings

import numpy as np
import pytest

from conftest import blockwise, maximally_mixed
from raggio_kit import bell, entanglement, harness, serialize, states
from raggio_kit.algebra import (
    AlgebraElement,
    _plan,
    _trace_norm,
    direct_sum,
    element,
    make_commutative,
    make_full,
    operator_norm,
    tensor,
    tensor_element,
    unit,
)
from raggio_kit.bell import (
    CHSH_QUANTUM_BOUND,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    ChshObservables,
    _check_observable,
    _effective,
    _half_step,
    _random_signs,
    canonical_qubit_observables,
    chsh_optimize,
    chsh_value,
    horodecki_two_qubit,
    random_dichotomic,
    random_observables,
    seesaw,
    sign_operator,
)
from raggio_kit.errors import (
    AlgebraMismatchError,
    InvalidArgumentError,
    MissingFactorizationError,
    PreconditionError,
    UnsupportedShapeError,
)
from raggio_kit.states import (
    expectation,
    random_mixed,
    random_vector_state,
    singlet,
    werner,
)

M2 = make_full(2)
QUBIT_PAIR = tensor(M2, M2)


def test_observables_are_checked_one_side_at_a_time():
    # each side is checked as one (X1, X2) stack per block, and the error names the side
    good = element(M2, [SIGMA_X])
    with pytest.raises(PreconditionError, match=r"^\(a1, a2\) must be self-adjoint$"):
        ChshObservables(good, element(M2, [np.array([[0.0, 1.0], [0.0, 0.0]])]), good, good)
    with pytest.raises(PreconditionError, match=r"^\(b1, b2\) must be a contraction, norm is 2"):
        ChshObservables(good, good, element(M2, [2.0 * SIGMA_Z]), good)
    # an algebra mismatch on either side is reported before any matrix is checked
    too_big, on_m3 = element(M2, [2.0 * SIGMA_X]), element(make_full(3), [np.eye(3)])
    with pytest.raises(AlgebraMismatchError, match="^values live on different algebras: M2 vs M3$"):
        ChshObservables(good, too_big, good, on_m3)
    alg = direct_sum(M2, make_commutative(1))
    x = element(alg, [SIGMA_Z, [[1.0]]])
    obs = ChshObservables(x, blockwise(np.negative, x), x, x)
    assert obs.a2.blocks[1][0, 0] == -1.0


def test_observables_keep_each_side_as_read_only_stacks():
    alg = direct_sum(M2, make_commutative(1))
    obs = random_observables(alg, M2, 3)
    for kept, x1, x2 in ((obs.a, obs.a1, obs.a2), (obs.b, obs.b1, obs.b2)):
        assert len(kept) == len(x1.blocks)
        for stack, blk1, blk2 in zip(kept, x1.blocks, x2.blocks):
            np.testing.assert_array_equal(stack, np.stack([blk1, blk2]))
            assert not stack.flags.writeable


def test_seesaw_checks_its_start_only_and_returns_its_signs_as_built(monkeypatch):
    calls = []

    def counted(blocks, label):
        calls.append(label)
        return _check_observable(blocks, label)

    monkeypatch.setattr(bell, "_check_observable", counted)
    state = random_mixed(tensor(make_full(3), make_commutative(4)), 5)
    alg_b = state.algebra.factors[1]
    obs, _, _ = seesaw(state, random_dichotomic(alg_b, 1), random_dichotomic(alg_b, 2))
    assert calls == ["see-saw start (b1, b2)"]
    rebuilt = ChshObservables(obs.a1, obs.a2, obs.b1, obs.b2)
    for name in ("a1", "a2", "b1", "b2"):
        for mine, theirs in zip(getattr(obs, name).blocks, getattr(rebuilt, name).blocks):
            np.testing.assert_array_equal(mine, theirs)
    for kept, stacks in ((obs.a, rebuilt.a), (obs.b, rebuilt.b)):
        assert len(kept) == len(stacks)
        for mine, theirs in zip(kept, stacks):
            np.testing.assert_array_equal(mine, theirs)
            assert not mine.flags.writeable


def test_observables_keep_the_stacks_only_and_build_elements_when_read(monkeypatch):
    built = []
    check = AlgebraElement.__post_init__

    def counted(self):
        built.append(self.algebra)
        check(self)

    state = random_mixed(tensor(make_full(3), make_commutative(4)), 5)
    alg_a, alg_b = state.algebra.factors
    b1, b2 = random_dichotomic(alg_b, 1), random_dichotomic(alg_b, 2)
    monkeypatch.setattr(AlgebraElement, "__post_init__", counted)
    obs, _, _ = seesaw(state, b1, b2)
    assert built == []
    assert [f.name for f in dataclasses.fields(obs)] == ["alg_a", "a", "alg_b", "b"]
    assert (obs.alg_a, obs.alg_b) == (alg_a, alg_b)
    b2_read = obs.b2
    assert built == [alg_b]
    assert len(b2_read.blocks) == len(obs.b)
    for blk, stack in zip(b2_read.blocks, obs.b):
        np.testing.assert_array_equal(blk, stack[1])
    with pytest.raises(AttributeError):
        obs.b2 = b1


def test_observables_compare_by_identity_and_hash():
    # the generated __eq__ compared the elements' arrays, which raised
    obs = random_observables(M2, M2, 0)
    rebuilt = ChshObservables(obs.a1, obs.a2, obs.b1, obs.b2)
    assert obs == obs
    assert obs != rebuilt
    assert hash(obs) == hash(obs)
    assert len({obs, rebuilt, obs}) == 2


def test_every_value_type_compares_by_one_rule(tiles_state):
    # values that hold arrays compare and hash by identity; the rest by value.
    # Each entry builds a value; a second call builds an equal-valued one.
    def separable():
        return entanglement.separability_test(werner(0.2), seed=0)

    cases = {
        "FdAlgebra": (lambda: tensor(M2, M2), True),
        "AlgebraElement": (lambda: unit(M2), False),
        "State": (lambda: werner(0.2), False),
        "PureVector": (singlet, False),
        "Decomposition": (lambda: separable().decomposition, False),
        "Separable": (separable, False),
        "EntangledPure": (lambda: entanglement.separability_test(singlet(), seed=0), True),
        "EntangledPPT": (lambda: entanglement.separability_test(werner(0.9), seed=0), True),
        "EntangledRealignment": (
            lambda: entanglement.separability_test(tiles_state(), seed=0),
            True,
        ),
        "Undetermined": (
            lambda: entanglement.separability_test(werner(1.0 / 3.0 + 1e-10), seed=0, tol=1e-12),
            True,
        ),
        "PureVerdict": (lambda: entanglement.is_entangled_pure(singlet()), True),
        "ChshObservables": (lambda: canonical_qubit_observables(M2, M2), False),
        "ChshResult": (lambda: chsh_optimize(singlet(), restarts=2, seed=0), False),
        "BellScan": (
            lambda: harness.bell_one_side_classical(M2, make_commutative(2), 2, 0, 2),
            True,
        ),
        "RaggioReport": (
            lambda: harness.verify_equivalence(M2, make_commutative(2), 2, 0, 2),
            True,
        ),
    }
    for name, (build, equal) in cases.items():
        x, y = build(), build()
        assert type(x).__name__ in (name, "SeparabilityVerdict"), name
        if type(x) is entanglement.SeparabilityVerdict:
            assert x.tag == name
        assert (x == x) is True, name
        assert (x == y) is equal and (x != y) is not equal, name
        assert isinstance(hash(x), int), name


def test_chsh_value_and_seesaw_check_the_state_type():
    obs = canonical_qubit_observables(M2, M2)
    with pytest.raises(InvalidArgumentError, match="expected a State, got"):
        chsh_value("s", obs)
    with pytest.raises(InvalidArgumentError, match="expected a State, got"):
        seesaw("s", obs.b1, obs.b2)


STATE_ARGUMENTS = {
    "ppt_check": entanglement.ppt_check,
    "realignment_check": entanglement.realignment_check,
    "classical_decompose": entanglement.classical_decompose,
    "horodecki_two_qubit": horodecki_two_qubit,
    "purity": states.purity,
    "trace_distance_first": lambda x: states.trace_distance(x, werner(0.2)),
    "trace_distance_second": lambda x: states.trace_distance(werner(0.2), x),
    "restrict_to_factor": lambda x: states.restrict_to_factor(x, "a"),
    "product_state_first": lambda x: states.product_state(x, werner(0.2)),
    "product_state_second": lambda x: states.product_state(werner(0.2), x),
    "mixture": lambda x: states.mixture([1.0], [x]),
    "expectation": lambda x: expectation(x, unit(QUBIT_PAIR)),
}


@pytest.mark.parametrize("name", sorted(STATE_ARGUMENTS))
def test_state_arguments_of_another_type_raise_invalid_argument(name):
    # a value that is not a state is named as such, not met by an AttributeError
    for bad in (None, "s", werner(0.2).blocks[0]):
        with pytest.raises(InvalidArgumentError, match="expected a State, got"):
            STATE_ARGUMENTS[name](bad)


U2 = unit(M2)
OPERAND_ARGUMENTS = {
    "expectation": lambda x: expectation(werner(0.2), x),
    "sign_operator": sign_operator,
    "operator_norm": operator_norm,
    "tensor_element": lambda x: tensor_element(U2, x),
    "seesaw": lambda x: seesaw(werner(0.2), x, U2),
    "ChshObservables": lambda x: ChshObservables(x, U2, U2, U2),
    "chsh_value": lambda x: chsh_value(werner(0.2), x),
    **{name: getattr(serialize, name) for name in dir(serialize) if name.endswith("_to_dict")},
}


# the entries that take an element, which no state-like value of the package may stand for
ELEMENT_OPERANDS = {
    "expectation",
    "sign_operator",
    "operator_norm",
    "tensor_element",
    "seesaw",
    "ChshObservables",
    "element_to_dict",
}


@pytest.mark.parametrize("name", sorted(OPERAND_ARGUMENTS))
def test_operands_of_another_type_raise_invalid_argument(name):
    # an operand of the wrong type is named as such, not met by an AttributeError
    bads = [None, "s", np.eye(2)]
    if name in ELEMENT_OPERANDS:
        # a State on M2 used to pass as an element, and a Decomposition to end in an AttributeError
        dec = entanglement.Decomposition(QUBIT_PAIR, [(0, 0, [1.0], [[1.0, 0.0]], [[0.0, 1.0]])])
        bads += [maximally_mixed(M2), singlet(), states.PureVector(M2, [1.0, 0.0]), dec]
    for bad in bads:
        with pytest.raises(InvalidArgumentError, match="^expected an? "):
            OPERAND_ARGUMENTS[name](bad)


def test_reconstruct_checks_the_decomposition_type():
    for bad in (None, werner(0.2)):
        with pytest.raises(InvalidArgumentError, match="expected a Decomposition"):
            entanglement.reconstruct(bad)


def test_pauli_matrices():
    for s in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        np.testing.assert_allclose(s @ s, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(s, s.conj().T, atol=1e-15)


def test_observable_validation():
    bad_na = element(M2, [np.array([[0.0, 1.0], [0.0, 0.0]])])
    good = element(M2, [SIGMA_X])
    with pytest.raises(PreconditionError):
        ChshObservables(bad_na, good, good, good)
    too_big = element(M2, [2.0 * SIGMA_Z])
    with pytest.raises(PreconditionError):
        ChshObservables(good, good, too_big, good)
    with pytest.raises(AlgebraMismatchError):
        ChshObservables(good, element(make_full(3), [np.eye(3)]), good, good)


def test_huge_observables_are_refused_as_contractions():
    # operator_norm formed X*X, which overflows on these entries: diag(1e160, 1) read
    # as norm -0.0, passed as a contraction, and chsh_value returned 1e160
    good = element(M2, [SIGMA_X])
    for m, norm in (
        (np.diag([1e160, 1.0]), 1e160),
        (np.diag([1e308, 1.0]), 1e308),
        (np.array([[0.0, 1e200], [1e200, 0.0]]), 1e200),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = element(M2, [m])
            assert operator_norm(huge) == pytest.approx(norm, rel=1e-12)
            with pytest.raises(PreconditionError, match="must be a contraction"):
                ChshObservables(good, good, huge, good)


def test_sign_operator():
    x = element(M2, [np.diag([2.0, -3.0])])
    np.testing.assert_allclose(sign_operator(x).blocks[0], np.diag([1.0, -1.0]), atol=1e-14)
    zero = element(M2, [np.zeros((2, 2))])
    np.testing.assert_allclose(sign_operator(zero).blocks[0], np.eye(2), atol=1e-14)
    rng = np.random.default_rng(0)
    alg = direct_sum(make_full(3), make_commutative(2))
    for _ in range(10):
        s = random_dichotomic(alg, rng)
        # dichotomic: self-adjoint with s^2 = 1
        for blk in s.blocks:
            assert np.max(np.abs(blk - blk.conj().T)) <= 1e-12
            np.testing.assert_allclose(blk @ blk, np.eye(blk.shape[0]), atol=1e-12)
        assert operator_norm(s) == pytest.approx(1.0, abs=1e-12)
    # the scan's settings, drawn as (P, Q, 2) stacks per block, are never
    # re-checked at run time: each must be dichotomic as well
    for dims in ((3, 1), (2, 2, 1), (1, 4), (3, 2)):
        z = rng.standard_normal((3, 4, 2, sum(2 * d * d for d in dims)))
        for d, x in zip(dims, _random_signs(z, dims)):
            assert x.shape == (3, 4, 2, d, d)
            np.testing.assert_allclose(x, x.conj().swapaxes(-1, -2), atol=1e-12)
            np.testing.assert_allclose(x @ x, np.broadcast_to(np.eye(d), x.shape), atol=1e-12)


def test_effective_operators_reproduce_expectations():
    # the see-saw is built on Tr(H_t X) = Re omega(X (x) C_t) with
    # C = (Y1 + Y2, Y1 - Y2); check it for random states and settings on both sides
    rng = np.random.default_rng(1)
    alg_a = direct_sum(make_full(2), make_commutative(2))
    alg_b = make_full(3)
    prod = tensor(alg_a, alg_b)

    def stacks(alg):
        y1, y2 = random_dichotomic(alg, rng), random_dichotomic(alg, rng)
        c = tuple(blockwise(f, y1, y2) for f in (np.add, np.subtract))
        return [np.stack(pair) for pair in zip(y1.blocks, y2.blocks)], c

    for _ in range(10):
        st = random_mixed(prod, rng)
        for side, (own, other) in enumerate(((alg_a, alg_b), (alg_b, alg_a))):
            y, c = stacks(other)
            h = _effective(_plan(prod, st.blocks, side), y)
            assert [s.shape for s in h] == [(2, d, d) for d in own.block_dims]
            for t in (0, 1):
                x = random_dichotomic(own, rng)
                lhs = sum(np.trace(hb[t] @ xb).real for hb, xb in zip(h, x.blocks))
                pair = (x, c[t]) if side == 0 else (c[t], x)
                rhs = expectation(st, tensor_element(*pair)).real
                assert lhs == pytest.approx(rhs, abs=1e-12)


@pytest.mark.parametrize(
    "alg_a, alg_b",
    [
        (M2, M2),
        (make_full(3), make_full(3)),
        (M2, make_full(3)),
        (direct_sum(M2, make_full(1)), direct_sum(M2, make_commutative(1))),
    ],
)
def test_one_eigh_gives_the_signs_and_the_value(alg_a, alg_b):
    # _sign reads each half-step's value off the eigenvalues of its own eigh:
    # it must be the trace norm of the effective operators, and the last value
    # of a run the CHSH value of the observables it returns
    prod = tensor(alg_a, alg_b)
    rng = np.random.default_rng(14)
    for st in (random_mixed(prod, rng), random_vector_state(prod, rng)):
        b1, b2 = random_dichotomic(alg_b, rng), random_dichotomic(alg_b, rng)
        obs, history, _ = seesaw(st, b1, b2)
        assert history[-1] == pytest.approx(abs(chsh_value(st, obs)), abs=1e-12)
        x = [np.stack(pair) for pair in zip(b1.blocks, b2.blocks)]
        for side in (0, 1, 0, 1, 0, 1):
            h = _effective(_plan(prod, st.blocks, side), x)
            x, value = _half_step(_plan(prod, st.blocks, side), x)
            norms = _trace_norm(s[0] for s in h) + _trace_norm(s[1] for s in h)
            assert value == pytest.approx(norms, abs=1e-12)


def test_canonical_settings_on_singlet():
    obs = canonical_qubit_observables(M2, M2)
    value = chsh_value(singlet().state(), obs)
    assert value == pytest.approx(CHSH_QUANTUM_BOUND, abs=1e-12)


def test_chsh_value_sign_flip():
    rng = np.random.default_rng(2)
    st = random_mixed(QUBIT_PAIR, rng)
    obs = random_observables(M2, M2, rng)
    minus_b1, minus_b2 = (blockwise(np.negative, b) for b in (obs.b1, obs.b2))
    flipped = ChshObservables(obs.a1, obs.a2, minus_b1, minus_b2)
    assert chsh_value(st, flipped) == pytest.approx(-chsh_value(st, obs), abs=1e-12)


def test_seesaw_history_monotone():
    rng = np.random.default_rng(3)
    for _ in range(10):
        st = random_mixed(QUBIT_PAIR, rng)
        b1 = random_dichotomic(M2, rng)
        b2 = random_dichotomic(M2, rng)
        obs, history, converged = seesaw(st, b1, b2)
        assert converged
        diffs = np.diff(np.asarray(history))
        assert np.all(diffs >= -1e-10)
        assert history[-1] <= CHSH_QUANTUM_BOUND + 1e-9
        # the reported history ends at the value of the returned observables
        assert chsh_value(st, obs) == pytest.approx(history[-1], abs=1e-8)


def test_singlet_optimization_hits_tsirelson():
    result = chsh_optimize(singlet().state(), restarts=16, seed=7)
    assert result.value == pytest.approx(CHSH_QUANTUM_BOUND, abs=1e-6)
    assert result.converged
    assert result.restarts == 16
    assert result.iterations > 0


def test_optimize_never_below_classical_bound():
    # the identity-seeded restart pins the floor at 2 even for product states
    rng = np.random.default_rng(4)
    for _ in range(5):
        st = random_mixed(QUBIT_PAIR, rng)
        val = chsh_optimize(st, restarts=2, seed=int(rng.integers(2**31))).value
        assert val >= 2.0 - 1e-6
    mm = random_mixed(tensor(M2, make_commutative(2)), rng)
    assert chsh_optimize(mm, restarts=3, seed=0).value == pytest.approx(2.0, abs=1e-9)


def test_optimize_agrees_with_two_qubit_closed_form():
    # independent oracle: the correlation-matrix formula max(2, 2 sqrt(M))
    rng = np.random.default_rng(5)
    worst = 0.0
    for k in range(30):
        st = (
            random_vector_state(QUBIT_PAIR, rng)
            if k % 2
            else random_mixed(QUBIT_PAIR, rng)
        )
        oracle = horodecki_two_qubit(st)
        found = chsh_optimize(st, restarts=8, seed=int(rng.integers(2**31))).value
        worst = max(worst, abs(found - oracle))
    assert worst <= 1e-5


def test_werner_closed_form_and_seesaw():
    for p in (0.0, 0.3, 0.75, 0.9, 1.0):
        expected = max(2.0, CHSH_QUANTUM_BOUND * p)
        assert horodecki_two_qubit(werner(p)) == pytest.approx(expected, abs=1e-12)
    assert chsh_optimize(werner(0.5), restarts=8, seed=1).value == pytest.approx(
        2.0, abs=1e-6
    )


def test_classical_side_bound():
    rng = np.random.default_rng(6)
    prod = tensor(M2, make_commutative(3))
    for _ in range(5):
        st = random_mixed(prod, rng)
        val = chsh_optimize(st, restarts=4, seed=int(rng.integers(2**31))).value
        assert val <= 2.0 + 1e-9
        for _ in range(20):
            obs = random_observables(M2, make_commutative(3), rng)
            assert abs(chsh_value(st, obs)) <= 2.0 + 1e-9


def test_optimize_multiblock_factors():
    rng = np.random.default_rng(7)
    alg_a = direct_sum(M2, make_commutative(1))
    st = random_mixed(tensor(alg_a, M2), rng)
    res = chsh_optimize(st, restarts=4, seed=2)
    assert 2.0 - 1e-6 <= res.value <= CHSH_QUANTUM_BOUND + 1e-9


def test_optimize_is_deterministic_given_seed():
    st = werner(0.8)
    r1 = chsh_optimize(st, restarts=6, seed=42)
    r2 = chsh_optimize(st, restarts=6, seed=42)
    assert r1.value == r2.value
    assert r1.iterations == r2.iterations


def test_optimize_needs_a_tensor_product_algebra():
    with pytest.raises(UnsupportedShapeError, match="tensor product"):
        chsh_optimize(random_mixed(make_full(4), 0), restarts=2, seed=0)


def test_seesaw_requires_factors_and_budget():
    flat = maximally_mixed(make_full(4))
    with pytest.raises(UnsupportedShapeError):
        seesaw(flat, unit(M2), unit(M2))
    # 2.5 used to end in a TypeError from range, and True ran one restart
    for restarts in (0, 2.5, True):
        with pytest.raises(InvalidArgumentError, match="restarts"):
            chsh_optimize(singlet().state(), restarts=restarts, seed=0)


def test_missing_factorization_is_an_unsupported_shape():
    # the see-saw and the optimizer share the one factorization check
    assert issubclass(MissingFactorizationError, UnsupportedShapeError)
    flat = random_mixed(make_full(4), 0)
    with pytest.raises(MissingFactorizationError, match="tensor product"):
        seesaw(flat, unit(M2), unit(M2))
    with pytest.raises(MissingFactorizationError, match="tensor product"):
        chsh_optimize(flat, restarts=2, seed=0)


def test_horodecki_returns_a_python_float_on_both_sides_of_2():
    # above 2 the value used to be a numpy.float64
    for p in (0.1, 0.9):
        value = horodecki_two_qubit(werner(p))
        assert type(value) is float
    assert horodecki_two_qubit(werner(0.1)) == 2.0 < horodecki_two_qubit(werner(0.9))


def test_horodecki_requires_two_qubits():
    with pytest.raises(UnsupportedShapeError):
        horodecki_two_qubit(random_mixed(tensor(M2, make_full(3)), 0))
    with pytest.raises(UnsupportedShapeError):
        horodecki_two_qubit(random_mixed(make_full(4), 0))


def test_batched_observable_check_rejects_bad_matrices_in_a_stack():
    good = np.stack([SIGMA_X, SIGMA_Z])
    _check_observable([good], "x")
    not_self_adjoint = np.stack([SIGMA_X, np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(PreconditionError, match="self-adjoint"):
        _check_observable([good, not_self_adjoint], "x")
    not_contraction = np.stack([SIGMA_Z, 1.5 * SIGMA_X])
    with pytest.raises(PreconditionError, match="contraction"):
        _check_observable([not_contraction, good], "x")
    with pytest.raises(PreconditionError, match="self-adjoint"):
        _check_observable([good, np.stack([SIGMA_X, np.full((2, 2), np.nan)])], "x")


def test_chsh_value_rejects_foreign_observables():
    obs = canonical_qubit_observables(M2, M2)
    with pytest.raises(AlgebraMismatchError):
        chsh_value(random_mixed(tensor(M2, make_full(3)), 0), obs)
    with pytest.raises(AlgebraMismatchError):
        chsh_value(random_mixed(make_full(4), 0), obs)


def test_seeded_seesaw_history_is_pinned():
    # seeded runs must reproduce bit for bit: these values pin the draw order
    # of random_dichotomic and the arithmetic of every see-saw half-step
    rng = np.random.default_rng(2026)
    alg_a = direct_sum(M2, make_commutative(1))
    st = random_mixed(tensor(alg_a, M2), rng)
    b1, b2 = random_dichotomic(M2, rng), random_dichotomic(M2, rng)
    _, history, converged = seesaw(st, b1, b2)
    assert converged and len(history) == 56
    assert history[:4] == [
        1.1573905638497775,
        1.4001074146338301,
        1.4429928315466651,
        1.4513926789745857,
    ]
    assert history[-1] == 1.4564781015265706


def test_seeded_optimize_iterations_are_pinned():
    alg_a = direct_sum(M2, make_commutative(1))
    st = random_mixed(tensor(alg_a, make_full(3)), 31)
    res = chsh_optimize(st, restarts=5, seed=8)
    assert res.iterations == 36
    assert res.value == 2.0000000000000013
    res = chsh_optimize(werner(0.9), restarts=6, seed=99)
    assert res.iterations == 12
    assert res.value == 2.5455844122715723


def test_seeded_multiblock_seesaw_history_is_pinned():
    # on (M2 + M1) (x) (M2 + D1) every block of either factor sums two joint
    # blocks, so these values also pin the order of that accumulation
    m2 = make_full(2)
    alg_a, alg_b = direct_sum(m2, make_full(1)), direct_sum(m2, make_commutative(1))
    rng = np.random.default_rng(417)
    st = random_vector_state(tensor(alg_a, alg_b), rng)
    b1, b2 = random_dichotomic(alg_b, rng), random_dichotomic(alg_b, rng)
    _, history, converged = seesaw(st, b1, b2)
    assert converged and len(history) == 40
    assert history[:4] == [
        1.9014250282692347,
        1.9758418488202003,
        1.9952535216775575,
        2.0194402175463955,
    ]
    assert history[-1] == 2.1698331196463405
    res = chsh_optimize(st, restarts=4, seed=5)
    assert res.iterations == 25
    assert res.value == 2.1698331196426235
    assert res.converged


def test_seesaw_rejects_b_side_off_the_second_factor():
    st = random_mixed(tensor(M2, make_full(3)), 0)
    with pytest.raises(AlgebraMismatchError):
        seesaw(st, unit(M2), unit(M2))
    with pytest.raises(AlgebraMismatchError):
        seesaw(st, unit(make_full(3)), unit(M2))


def test_seesaw_rejects_starts_that_are_not_self_adjoint_contractions():
    # 10 * unit used to give a history starting at 20, above 2 sqrt(2)
    st = singlet().state()
    for bad in (element(M2, [10 * np.eye(2)]), element(M2, [np.array([[0.0, 1.0], [0.0, 0.0]])])):
        for b1, b2 in ((bad, unit(M2)), (unit(M2), bad)):
            with pytest.raises(PreconditionError):
                seesaw(st, b1, b2)


def test_optimize_rejects_negative_seed():
    with pytest.raises(InvalidArgumentError):
        chsh_optimize(singlet().state(), restarts=2, seed=-1)
    for seed in (True, False):  # True used to run as seed 1
        with pytest.raises(InvalidArgumentError, match="seed"):
            chsh_optimize(singlet(), restarts=2, seed=seed)


def test_optimize_takes_a_pure_vector_as_its_state():
    from_vector = chsh_optimize(singlet(), restarts=4, seed=7)
    from_state = chsh_optimize(singlet().state(), restarts=4, seed=7)
    for key in ("value", "restarts", "iterations", "converged"):
        assert getattr(from_vector, key) == getattr(from_state, key)
    for key in ("a1", "a2", "b1", "b2"):
        x, y = getattr(from_vector.observables, key), getattr(from_state.observables, key)
        np.testing.assert_array_equal(x.matrix, y.matrix)
    for bad in (singlet().vector, None):
        with pytest.raises(InvalidArgumentError, match="expected a State, got"):
            chsh_optimize(bad, restarts=2, seed=0)


def test_optimize_spawns_each_restart_generator_as_the_restart_begins(monkeypatch):
    # spawning all of them before the first see-saw overflowed at 2**63 restarts
    class ThirdSeesaw(Exception):
        pass

    calls = []
    seesaw_once = bell.seesaw

    def seesaw_until_the_third(*args):
        calls.append(args)
        if len(calls) == 3:
            raise ThirdSeesaw
        return seesaw_once(*args)

    monkeypatch.setattr(bell, "seesaw", seesaw_until_the_third)
    with pytest.raises(ThirdSeesaw):
        chsh_optimize(singlet(), restarts=2**63, seed=1)
