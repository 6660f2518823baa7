import hashlib
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from raggio_kit import entanglement
from raggio_kit.algebra import direct_sum, herm, make_commutative, make_full, tensor
from raggio_kit.entanglement import (
    DEFAULT_DECOMP_TOL,
    ENTANGLED_PPT,
    ENTANGLED_PURE,
    ENTANGLED_REALIGNMENT,
    LMO_DISTINCT_TOL,
    PPT_TOL,
    SEPARABLE,
    UNDETERMINED,
    Decomposition,
    _linear_minimizer,
    _product_projectors,
    _product_split,
    classical_decompose,
    is_entangled_pure,
    ppt_check,
    realignment_check,
    reconstruct,
    schmidt,
    separability_test,
)
from raggio_kit.errors import (
    AlgebraMismatchError,
    InvalidArgumentError,
    MissingFactorizationError,
    UnsupportedShapeError,
)
from raggio_kit.serialize import verdict_to_dict
from raggio_kit.states import (
    PureVector,
    State,
    mixture,
    product_state,
    random_mixed,
    random_pure,
    restrict_to_diagonal,
    singlet,
    trace_distance,
    werner,
)

QUBIT_PAIR = tensor(make_full(2), make_full(2))


def random_product_mixture(alg_a, alg_b, terms, rng):
    parts = [
        product_state(random_mixed(alg_a, rng), random_mixed(alg_b, rng))
        for _ in range(terms)
    ]
    w = rng.random(terms)
    return mixture(w / w.sum(), parts)


def test_schmidt_frozen_coefficients():
    # oracle: the singular values of [[1,2],[3,4]]/sqrt(30) are
    # sqrt((15 +- sqrt(221))/30) in closed form
    psi = PureVector(QUBIT_PAIR, np.array([1.0, 2.0, 3.0, 4.0]))
    coeffs = schmidt(psi)
    expected = np.sqrt((15.0 + np.sqrt(221.0)) / 30.0), np.sqrt(
        (15.0 - np.sqrt(221.0)) / 30.0
    )
    np.testing.assert_allclose(coeffs, expected, atol=1e-12)
    assert abs(np.sum(coeffs**2) - 1.0) < 1e-12


def test_schmidt_singlet():
    coeffs = schmidt(singlet())
    np.testing.assert_allclose(coeffs, [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-12)
    assert is_entangled_pure(singlet())


def test_schmidt_product_vectors():
    rng = np.random.default_rng(0)
    prod = tensor(make_full(3), make_full(4))
    for _ in range(20):
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi = PureVector(prod, np.kron(a, b))
        coeffs = schmidt(psi)
        assert coeffs[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(coeffs[1:] < 1e-12)
        assert not is_entangled_pure(psi)


def test_schmidt_needs_factorization():
    with pytest.raises(MissingFactorizationError):
        schmidt(PureVector(make_full(4), [1, 0, 0, 0]))


def test_vector_functions_refuse_a_density():
    # schmidt and is_entangled_pure used to end in AttributeError on a State
    for func in (schmidt, is_entangled_pure, restrict_to_diagonal):
        with pytest.raises(InvalidArgumentError, match="^expected a PureVector, got"):
            func(singlet().state())


def test_pure_dichotomy_schmidt_vs_transpose():
    # a pure state is either a product vector or entangled; the Schmidt
    # route and the partial-transpose route must agree on every draw
    rng = np.random.default_rng(1)
    disagreements = 0
    for k in range(100):
        if k % 3 == 0:
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            psi = PureVector(QUBIT_PAIR, np.kron(a, b))
        else:
            psi = random_pure(QUBIT_PAIR, rng)
        by_schmidt = bool(is_entangled_pure(psi))
        by_transpose = ppt_check(psi.state()) < -1e-9
        if by_schmidt != by_transpose:
            disagreements += 1
    assert disagreements == 0


def test_is_entangled_pure_certificate_values():
    # reduced purity: 0.5 for the singlet, 0.8^2 + 0.2^2 = 0.68 for the
    # lopsided Schmidt pair, and exactly 1 on product vectors
    v = is_entangled_pure(singlet())
    assert v.entangled and v.reduced_purity == pytest.approx(0.5, abs=1e-12)
    lopsided = PureVector(QUBIT_PAIR, [np.sqrt(0.8), 0.0, 0.0, np.sqrt(0.2)])
    v = is_entangled_pure(lopsided)
    assert v.entangled and v.reduced_purity == pytest.approx(0.68, abs=1e-12)
    v = is_entangled_pure(PureVector(QUBIT_PAIR, [1.0, 0.0, 0.0, 0.0]))
    assert not v.entangled and v.reduced_purity == pytest.approx(1.0, abs=1e-12)


def test_pure_verdict_carries_its_schmidt_coefficients():
    # the coefficients the flag was decided from, as schmidt() and the
    # separability verdict of the same vector report them
    rng = np.random.default_rng(3)
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    product = PureVector(tensor(make_full(2), make_full(3)), np.kron(a, b))
    for psi in (singlet(), product, random_pure(tensor(make_full(3), make_full(3)), rng)):
        v = is_entangled_pure(psi)
        assert v.coefficients == tuple(float(c) for c in schmidt(psi))
        assert v.coefficients == separability_test(psi, seed=0).schmidt_coefficients
        assert v.reduced_purity == float(np.sum(np.array(v.coefficients) ** 4))


def test_ppt_werner_closed_form():
    # min eigenvalue of the partially transposed Werner density is (1-3p)/4
    for p in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.75, 1.0):
        assert ppt_check(werner(p)) == pytest.approx((1.0 - 3.0 * p) / 4.0, abs=1e-12)
    assert ppt_check(werner(0.5)) == pytest.approx(-0.125, abs=1e-9)


def test_ppt_requires_factors():
    with pytest.raises(MissingFactorizationError):
        ppt_check(random_mixed(make_full(4), 3))


def test_classical_decompose_right_commutative():
    rng = np.random.default_rng(2)
    prod = tensor(make_full(2), make_commutative(3))
    for _ in range(25):
        st = random_mixed(prod, rng)
        dec = classical_decompose(st)
        assert trace_distance(reconstruct(dec, prod), st) <= 1e-9
        assert sum(dec.weights) == pytest.approx(1.0, abs=1e-12)
        # the commutative side of every term is a point measure
        for _, _, _, _, b in dec.rows:
            assert b.shape[1] == 1
            np.testing.assert_allclose(np.abs(b), 1.0, atol=1e-12)


def test_classical_decompose_left_commutative():
    rng = np.random.default_rng(3)
    prod = tensor(make_commutative(2), make_full(3))
    for _ in range(25):
        st = random_mixed(prod, rng)
        dec = classical_decompose(st)
        assert trace_distance(reconstruct(dec, prod), st) <= 1e-9


def test_classical_decompose_both_commutative():
    rng = np.random.default_rng(4)
    prod = tensor(make_commutative(3), make_commutative(2))
    st = random_mixed(prod, rng)
    dec = classical_decompose(st)
    assert trace_distance(reconstruct(dec, prod), st) <= 1e-12


def test_classical_decompose_needs_commutative_factor():
    with pytest.raises(InvalidArgumentError):
        classical_decompose(werner(0.5))


def test_classical_decompose_prunes_zero_weights():
    prod = tensor(make_full(2), make_commutative(3))
    blk = np.eye(2) / 2.0
    st = State(prod, (blk, np.zeros((2, 2)), np.zeros((2, 2))))
    dec = classical_decompose(st)
    assert len(dec.rows) == 1 and dec.num_terms == 2
    # a zero eigenvalue of the one nonzero block is pruned as well
    st = State(prod, (np.diag([1.0, 0.0]), np.zeros((2, 2)), np.zeros((2, 2))))
    assert classical_decompose(st).num_terms == 1


def test_separability_pure_inputs():
    v = separability_test(singlet(), seed=0)
    assert v.tag == ENTANGLED_PURE
    assert v.decomposable is False
    assert v.schmidt_coefficients is not None
    rng = np.random.default_rng(5)
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v2 = separability_test(PureVector(QUBIT_PAIR, np.kron(a, b)), seed=0)
    assert v2.tag == SEPARABLE
    assert v2.error <= 1e-9
    assert v2.decomposition.num_terms == 1
    # a pure product density past qubit-qubit is settled by the search
    for n, m in ((2, 3), (3, 3)):
        a, b = (random_pure(make_full(d), rng).state() for d in (n, m))
        st = product_state(a, b)
        v3 = separability_test(st, seed=0)
        assert v3.tag == SEPARABLE, (n, m)
        assert v3.error <= 1e-12


def test_separability_werner_sweep():
    # entangled exactly when p > 1/3
    for p, expect in ((0.0, SEPARABLE), (0.2, SEPARABLE), (0.3, SEPARABLE),
                      (0.5, ENTANGLED_PPT), (0.8, ENTANGLED_PPT)):
        v = separability_test(werner(p), seed=11)
        assert v.tag == expect, (p, v.tag)
        if expect == SEPARABLE:
            assert v.error <= 1e-6
            assert trace_distance(reconstruct(v.decomposition, QUBIT_PAIR), werner(p)) <= 1e-6
        else:
            assert v.negative_eigenvalue < -1e-9


def test_separability_pure_entangled_density():
    v = separability_test(werner(1.0), seed=1)
    assert v.tag == ENTANGLED_PURE
    assert v.decomposable is False


def test_separability_near_threshold():
    v = separability_test(werner(1.0 / 3.0), seed=2)
    # at the boundary the state is still decomposable
    assert v.tag == SEPARABLE
    assert v.error <= 1e-6


def test_separability_random_product_mixtures_two_qubits():
    rng = np.random.default_rng(6)
    for k in range(10):
        st = random_product_mixture(make_full(2), make_full(2), 1 + k % 4, rng)
        v = separability_test(st, seed=int(rng.integers(2**31)))
        assert v.tag == SEPARABLE
        assert v.error <= 1e-6


def test_separability_qubit_qutrit():
    rng = np.random.default_rng(7)
    prod = tensor(make_full(2), make_full(3))
    for k in range(6):
        st = random_product_mixture(make_full(2), make_full(3), 2 + k % 3, rng)
        v = separability_test(st, seed=int(rng.integers(2**31)))
        assert v.tag == SEPARABLE
        assert v.error <= 1e-6
    # the maximally entangled qubit-qutrit embedding fails the transpose test
    psi = np.zeros(6, dtype=complex)
    psi[0] = psi[4] = 1.0 / np.sqrt(2.0)
    v = separability_test(PureVector(prod, psi).state(), seed=0)
    assert v.decomposable is False


def test_separability_classical_factor_branch():
    rng = np.random.default_rng(8)
    prod = tensor(make_full(3), make_commutative(2))
    st = random_mixed(prod, rng)
    v = separability_test(st, seed=0)
    assert v.tag == SEPARABLE
    assert v.error <= 1e-9


def test_separability_multiblock_factors():
    rng = np.random.default_rng(9)
    alg_a = direct_sum(make_full(2), make_commutative(1))
    alg_b = make_full(2)
    prod = tensor(alg_a, alg_b)
    st = random_product_mixture(alg_a, alg_b, 3, rng)
    v = separability_test(st, seed=3)
    assert v.tag == SEPARABLE
    assert v.error <= 1e-6
    assert trace_distance(reconstruct(v.decomposition, prod), st) <= 1e-6


def test_separability_skips_joint_blocks_of_zero_weight():
    # (M2 + D1) (x) M3 with every term on M2 (x) M3: block (1, 0) holds no weight
    rng = np.random.default_rng(4)
    alg_a = direct_sum(make_full(2), make_commutative(1))

    def part():
        a = State(alg_a, (random_mixed(make_full(2), rng).blocks[0], np.zeros((1, 1))))
        return product_state(a, random_mixed(make_full(3), rng))

    parts = [part() for _ in range(3)]
    w = rng.random(3) + 0.05
    st = mixture(w / w.sum(), parts)
    assert np.trace(st.blocks[1]).real == 0.0
    v = separability_test(st, seed=1)
    assert v.tag == SEPARABLE
    assert v.error <= DEFAULT_DECOMP_TOL
    assert all(i == 0 for i, *_ in v.decomposition.rows)
    assert trace_distance(reconstruct(v.decomposition, st.algebra), st) == v.error


def test_separability_requires_factors():
    with pytest.raises(MissingFactorizationError):
        separability_test(random_mixed(make_full(4), 0), seed=0)


def test_separability_rejects_foreign_input():
    with pytest.raises(InvalidArgumentError):
        separability_test(np.eye(4) / 4.0, seed=0)


def test_separability_rejects_zero_budget():
    with pytest.raises(InvalidArgumentError):
        separability_test(werner(0.1), 0, seed=0)


def test_separability_rejects_non_finite_tolerance():
    for tol in (float("nan"), float("inf")):
        with pytest.raises(InvalidArgumentError, match="finite"):
            separability_test(werner(0.1), seed=0, tol=tol)
    # an int beyond the float range used to pass as finite and overflow in float()
    with pytest.raises(InvalidArgumentError, match="finite"):
        separability_test(werner(0.2), seed=0, tol=10**400)


def test_decomposition_parts_must_be_states():
    # rows that are not (i, j, w, a, b) of numbers end in InvalidArgumentError
    prod = tensor(make_full(2), make_full(2))
    e = [[1.0, 0.0]]
    for rows, match in (
        (None, "^rows must be a list or tuple"),
        ([(0, 0, [1.0], e)], r"^row 0 is not \(i, j, w, a, b\) on blocks of"),
        (["x"], r"^row 0 is not \(i, j, w, a, b\)"),
        ([(0, 0, [1.0], "x", "y")], "^entries must be numbers"),
        ([(0, 0, [1.0], e, None)], "^entries must be numbers"),
        ([(0, None, [1.0], e, e)], r"^row 0 is not \(i, j, w, a, b\)"),
    ):
        with pytest.raises(InvalidArgumentError, match=match):
            Decomposition(prod, rows)


def test_decomposition_validation():
    prod = tensor(make_full(2), direct_sum(make_full(3), make_commutative(1)))
    a, b = np.eye(2, dtype=complex), np.eye(3, dtype=complex)[:2]

    def rows(w, a=a, b=b, i=0, j=0):
        return [(i, j, w, a, b)]

    with pytest.raises(InvalidArgumentError, match="finite"):
        Decomposition(prod, rows([float("nan"), 1.0]))
    with pytest.raises(InvalidArgumentError):
        Decomposition(prod, rows([0.5, 0.2]))  # weights sum to 0.7
    with pytest.raises(InvalidArgumentError, match="must hold K weights"):
        Decomposition(prod, rows([1.0]))  # one weight, two vectors
    with pytest.raises(InvalidArgumentError, match="no term given"):
        Decomposition(prod, ())
    with pytest.raises(InvalidArgumentError, match="must hold K weights"):
        Decomposition(prod, rows([0.5, 0.5], b=np.eye(2)))  # vectors of the wrong block size
    with pytest.raises(InvalidArgumentError, match="needs real weights"):
        Decomposition(prod, rows([0.5, 0.5j]))
    for i, j in ((0, 2), (True, 0), (-1, 0)):
        with pytest.raises(InvalidArgumentError, match="on blocks of"):
            Decomposition(prod, rows([0.5, 0.5], i=i, j=j))
    # off unit norm, non-finite, and entries whose squares overflow (with no RuntimeWarning)
    for bad in ([1.0, 1.0], [np.inf, 0.0], [np.nan, 0.0], [1e200, 0.0]):
        with pytest.raises(InvalidArgumentError, match="finite unit vectors"):
            Decomposition(prod, rows([0.5, 0.5], a=np.array([bad, [0.0, 1.0]])))
    with pytest.raises(MissingFactorizationError):
        Decomposition(make_full(4), rows([0.5, 0.5]))
    for weights in ([True, False], ["0.5", "0.5"]):  # both used to be accepted
        with pytest.raises(InvalidArgumentError):
            Decomposition(prod, rows(weights))
    dec = Decomposition(prod, rows([0.25, 0.75]) + [(0, 1, [0.0], a[:1], [[1.0]])])
    assert sum(dec.weights) == pytest.approx(1.0, abs=1e-15) and dec.num_terms == 3
    assert all(not arr.flags.writeable for row in dec.rows for arr in row[2:])


def test_verdict_decomposable_property():
    assert separability_test(werner(0.5), seed=0).decomposable is False
    assert separability_test(werner(0.1), seed=0).decomposable is True


def test_separability_rejects_non_integer_budgets():
    # a non-integer budget used to reach range() on M3 (x) M3 as a TypeError
    rng = np.random.default_rng(10)
    st = random_product_mixture(make_full(3), make_full(3), 2, rng)
    for budget in (2.5, True, "3", None):
        with pytest.raises(InvalidArgumentError, match="budget"):
            separability_test(st, budget, seed=0)
    assert separability_test(werner(0.1), np.int64(5), seed=0).tag == SEPARABLE


def test_separability_rejects_non_positive_tolerance():
    # tol <= 0 can never be met, so the search would only run out its budget
    for tol in (0.0, -1e-6, "1e-6", None):
        with pytest.raises(InvalidArgumentError, match="positive"):
            separability_test(werner(0.1), seed=0, tol=tol)
    assert separability_test(werner(0.1), seed=0, tol=np.float32(1e-4)).tag == SEPARABLE


def _loop_linear_minimizer(G, n, m, rng, n_random=6):
    """The oracle as a loop over its starts, one alternating search each."""
    G4 = G.reshape(n, m, n, m)
    vecs = np.linalg.eigh(G)[1]
    starts = [_product_split(vecs[:, idx], n, m) for idx in range(vecs.shape[1])]
    for _ in range(n_random):
        a0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b0 = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        starts.append((a0 / np.linalg.norm(a0), b0 / np.linalg.norm(b0)))
    best = (np.inf, None, None)
    for a, b in starts:
        val = np.inf
        for _ in range(40):
            a = np.linalg.eigh(herm(np.einsum("ajbk,j,k->ab", G4, b.conj(), b)))[1][:, 0]
            wb, vb = np.linalg.eigh(herm(np.einsum("ajbk,a,b->jk", G4, a.conj(), a)))
            b, new = vb[:, 0], float(wb[0])
            stopped = val - new < 1e-14
            val = new
            if stopped:
                break
        if val < best[0]:
            best = (val, a, b)
    return best[1], best[2]


def _product_value(G, a, b):
    v = np.kron(a, b)
    return float(np.vdot(v, G @ v).real)


@pytest.mark.parametrize("n, m", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_linear_minimizer_matches_per_start_loop(n, m):
    for seed in range(5):
        g = np.random.default_rng([seed, n, m])
        G = herm(g.standard_normal((n * m, n * m)) + 1j * g.standard_normal((n * m, n * m)))
        rng_loop, rng_stack = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = _product_value(G, *_loop_linear_minimizer(G, n, m, rng_loop))
        a, b = _linear_minimizer(G, n, m, rng_stack)
        assert abs(_product_value(G, a[0], b[0]) - expected) <= 1e-12
        # the random starts take the same draws, so later calls see the same stream
        assert rng_stack.bit_generator.state == rng_loop.bit_generator.state


def test_linear_minimizer_runs_no_more_start_rounds_than_the_per_start_loop(monkeypatch):
    # both make one eigh of G, then two per start and round (a stack of s
    # matrices counts s): a start that reaches a lower start's atom leaves the stack
    count, eigh = [0], np.linalg.eigh

    def counting(x, *args, **kwargs):
        count[0] += int(np.prod(np.shape(x)[:-2]))
        return eigh(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    oracles = {"stack": _linear_minimizer, "loop": _loop_linear_minimizer}
    total = {"stack": 0, "loop": 0}
    for n, m in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        for seed in range(5):
            g = np.random.default_rng([seed, n, m])
            G = herm(g.standard_normal((n * m, n * m)) + 1j * g.standard_normal((n * m, n * m)))
            rho = random_mixed(tensor(make_full(n), make_full(m)), g).blocks[0]
            for form in (G, -rho):
                rounds = {}
                for name, oracle in oracles.items():
                    count[0] = 0
                    oracle(form, n, m, np.random.default_rng(seed))
                    rounds[name] = (count[0] - 1) // 2
                    total[name] += rounds[name]
                assert rounds["stack"] <= rounds["loop"]
    assert total["stack"] < total["loop"]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(strategies.integers(2, 3), strategies.integers(2, 4), strategies.integers(0, 2**32 - 1))
def test_linear_minimizer_keeps_the_loops_best_and_returns_distinct_atoms(n, m, seed):
    g = np.random.default_rng(seed)
    G = herm(g.standard_normal((n * m, n * m)) + 1j * g.standard_normal((n * m, n * m)))
    expected = _product_value(G, *_loop_linear_minimizer(G, n, m, np.random.default_rng(seed)))
    a, b = _linear_minimizer(G, n, m, np.random.default_rng(seed))
    values = [_product_value(G, x, y) for x, y in zip(a, b)]
    assert abs(values[0] - expected) <= 1e-12
    assert np.all(np.isfinite(a)) and np.all(np.isfinite(b)) and np.all(np.isfinite(values))
    assert all(val < 0.0 for val in values[1:])
    overlap = np.abs(a.conj() @ a.T) * np.abs(b.conj() @ b.T)
    assert np.all(overlap[np.triu_indices(len(a), 1)] < 1.0 - LMO_DISTINCT_TOL)


def test_product_projector_forms_the_products_kron_forms():
    rng = np.random.default_rng(2)
    for n, m in ((2, 2), (2, 3), (3, 4)):
        a = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        b = rng.standard_normal((3, m)) + 1j * rng.standard_normal((3, m))
        expected = [np.outer(v, v.conj()) for v in map(np.kron, a, b)]
        np.testing.assert_array_equal(_product_projectors(a, b), expected)


def test_seeded_product_mixture_search_is_pinned():
    # seeded searches must reproduce bit for bit: these values pin the
    # oracle's starts, its draw order and every Frank-Wolfe re-fit on 2x3
    rng = np.random.default_rng(2026)
    st = random_product_mixture(make_full(2), make_full(3), 3, rng)
    v = separability_test(st, seed=17)
    assert v.tag == SEPARABLE
    assert v.decomposition.num_terms == 33
    assert v.error == 3.674089303854255e-07
    assert v.decomposition.weights[:3] == (
        0.5302053769482244,
        0.2006590856207802,
        0.11440498004584719,
    )


def _verdict_bytes(v) -> bytes:
    """A verdict's fields, its weights and the bytes of every row's arrays."""
    out = repr((v.tag, v.error, v.realignment, v.schmidt_coefficients, v.details)).encode()
    if v.decomposition is not None:
        out += repr(v.decomposition.weights).encode()
        for i, j, w, a, b in v.decomposition.rows:
            out += repr((i, j)).encode() + w.tobytes() + a.tobytes() + b.tobytes()
    return out


def test_separability_verdicts_are_pinned_bit_for_bit():
    # every route that returns a decomposition must reproduce bit for bit:
    # Wootters' closed form, the one-dimensional side, the search (settled
    # and cut off by its budget), a product vector and classical conditioning.
    # The three search cases (M2 x M3, M3 x M3 twice) carry the bits of the
    # oracle that drops a start at a lower start's atom; the other routes keep
    # the bits their rows had when each term was still a State.  Classical
    # conditioning became the one-dimensional side per joint block, so its
    # terms (now pure) carry a digest of their own.
    rng = np.random.default_rng(28)
    m2, m3 = make_full(2), make_full(3)
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    cases = [
        (werner(0.2), {}),
        (werner(1.0 / 3.0 + 1e-10), {"tol": 1e-12}),
        (random_product_mixture(direct_sum(m2, make_commutative(1)), m2, 5, rng), {}),
        (random_product_mixture(m2, m3, 3, rng), {}),
        (random_product_mixture(m3, m3, 2, rng), {}),
        (random_product_mixture(m3, m3, 2, rng), {"budget": 3}),
        (PureVector(tensor(m2, m3), np.kron(a, b)), {}),
    ]
    digest, tags = hashlib.sha256(), []
    for st, kwargs in cases:
        v = separability_test(st, seed=5, **kwargs)
        tags.append(v.tag)
        digest.update(_verdict_bytes(v))
    assert tags == [SEPARABLE, UNDETERMINED] + [SEPARABLE] * 3 + [UNDETERMINED, SEPARABLE]
    assert digest.hexdigest() == "f9114117e9a1a11bf790346fafd733a626779f50c842c89920e33615ad7aea5e"
    v = separability_test(random_mixed(tensor(m2, make_commutative(3)), rng), seed=5)
    assert v.tag == SEPARABLE and v.decomposition.num_terms == 6
    classical = hashlib.sha256(_verdict_bytes(v)).hexdigest()
    assert classical == "deedf114645fc0cba6e1ce27e71d55ea7036c0864eca79ec870c5d0dc14c4ee2"


@pytest.mark.parametrize("n, m", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_linear_minimizer_returns_distinct_negative_atoms_best_first(n, m):
    calls = atoms = 0
    for seed in range(5):
        g = np.random.default_rng([seed, n, m])
        G = herm(g.standard_normal((n * m, n * m)) + 1j * g.standard_normal((n * m, n * m)))
        rho = random_mixed(tensor(make_full(n), make_full(m)), g).blocks[0]
        # a random form, the first search step's -rho, and a positive form
        for form in (G, -rho, rho):
            a, b = _linear_minimizer(form, n, m, np.random.default_rng(seed))
            assert a.shape == (len(a), n) and b.shape == (len(a), m) and len(a) >= 1
            np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)
            np.testing.assert_allclose(np.linalg.norm(b, axis=1), 1.0, atol=1e-12)
            values = [_product_value(form, x, y) for x, y in zip(a, b)]
            assert np.all(np.diff(values) >= -1e-12)
            assert all(val < 0.0 for val in values[1:])
            overlap = np.abs(a.conj() @ a.T) * np.abs(b.conj() @ b.T)
            assert np.all(overlap[np.triu_indices(len(a), 1)] < 1.0 - LMO_DISTINCT_TOL)
            calls, atoms = calls + 1, atoms + len(a)
        # a positive form has no negative value: the best atom comes alone
        assert len(a) == 1 and values[0] > 0.0
    assert atoms > calls


@pytest.mark.parametrize("k", [16, 26])
def test_near_boundary_3x3_product_mixtures_settle_at_the_default_budget(k):
    # two-term mixtures near the boundary (smallest density eigenvalue about
    # 1e-3), which a search adding one atom per oracle call leaves Undetermined
    rng = np.random.default_rng(5)
    for j in range(k + 1):
        st = random_product_mixture(make_full(3), make_full(3), 1 + j % 5, rng)
    v = separability_test(st, seed=k)
    assert v.tag == SEPARABLE
    assert v.error <= DEFAULT_DECOMP_TOL


def test_loose_tolerance_ends_in_a_verdict():
    # the search once stopped at the first fit within a loose tol, whose weights
    # missed 1 by more than Decomposition accepts, and raised InvalidArgumentError
    rng = np.random.default_rng(0)
    st = product_state(random_mixed(make_full(2), rng), random_mixed(make_full(3), rng))
    for tol in (1.0, 0.1, 0.01):
        v = separability_test(st, 400, tol=tol, seed=0)
        assert v.tag == SEPARABLE
        assert v.error <= tol
    # 3x3 searches cut short keep their closest fit, with a finite error
    st = random_product_mixture(make_full(3), make_full(3), 2, np.random.default_rng(1))
    for budget, tol in ((1, 1.0), (1, 0.1), (5, 1.0), (5, 1e-6)):
        v = separability_test(st, budget, tol=tol, seed=0)
        assert v.tag == (SEPARABLE if v.error <= tol else UNDETERMINED)
        json.dumps(verdict_to_dict(v), allow_nan=False)
    assert v.tag == UNDETERMINED and 0.0 < v.error < 1.0


def _best_time(fn, repeats=3):
    best, out = np.inf, None
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return out, best


def test_bound_entangled_states_are_certified_by_realignment(tiles_state, horodecki_state):
    # both families pass the transpose test; the Tiles state once ended
    # Undetermined after its whole search budget
    rng = np.random.default_rng(2003)
    cases = [("tiles", tiles_state(), 1.0874)]
    cases += [(f"tiles rotated {k}", tiles_state(rng), 1.0874) for k in range(3)]
    cases += [(f"horodecki {a}", horodecki_state(a), ccnr)
              for a, ccnr in ((0.1, 1.0025), (0.5, 1.0023), (0.9, 1.0005))]
    for label, st, ccnr in cases:
        assert ppt_check(st) >= -PPT_TOL, label
        v, seconds = _best_time(lambda: separability_test(st, 50, seed=0))
        assert v.tag == ENTANGLED_REALIGNMENT, label
        assert v.decomposable is False
        assert v.realignment == pytest.approx(ccnr, abs=1e-4), label
        assert v.realignment == realignment_check(st)
        assert seconds < 0.01, (label, seconds)


def test_two_qubit_blocks_take_the_closed_form():
    # Werner up to the threshold p = 1/3 and a multi-block product mixture:
    # at most four terms per qubit-qubit block, exact to rounding
    for p in (0.0, 0.2, 1.0 / 3.0):
        v = separability_test(werner(p), seed=0)
        assert v.tag == SEPARABLE and v.error <= 1e-12
        assert v.decomposition.num_terms <= 4
        assert v.realignment <= 1.0 + 1e-12  # Werner(1/3) sits on the bound
    alg_a = direct_sum(make_full(2), make_commutative(1))
    st = random_product_mixture(alg_a, make_full(2), 5, np.random.default_rng(12))
    v = separability_test(st, seed=0)
    assert v.tag == SEPARABLE and v.error <= 1e-12
    # the 1x2 block splits by its eigenvectors into at most 2 terms
    assert v.decomposition.num_terms <= 4 + 2


def test_two_qubit_blocks_never_reach_the_search(monkeypatch):
    # the closed form is the only route on a 2x2 block: a block it misses is
    # entangled within PPT_TOL, where no search can succeed either
    def refuse(*args, **kwargs):
        raise AssertionError("a 2x2 block reached the Frank-Wolfe search")

    monkeypatch.setattr(entanglement, "_fcfw_search", refuse)
    monkeypatch.setattr(entanglement, "_linear_minimizer", refuse)
    for p in (0.0, 0.2, 1.0 / 3.0):
        v = separability_test(werner(p), seed=0)
        assert v.tag == SEPARABLE and v.error <= 1e-12
    v = separability_test(werner(1.0 / 3.0 + 1e-10), tol=1e-12, seed=0)
    assert v.tag == UNDETERMINED
    assert v.error == pytest.approx(7.5e-11, abs=1e-12)
    assert v.details == (
        "transpose and realignment tests passed, but no decomposition came within tol: "
        f"reconstruction error {v.error:.3e} on block (0, 0)"
    )
