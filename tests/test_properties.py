"""Property tests of the joint-block layout over random factor shapes: each
factor has 1-3 blocks of size 1-3, and the product dimension is at most 12.
One property checks the numpy-built dense matrix against scipy's block_diag,
one checks the one-einsum reassembly of a decomposition against
the mixture of its product states, two cover the separability certificates
on qubit and qutrit blocks, one the terms the Frank-Wolfe search returns,
one the embedded two-qubit witnesses, one the densities built unchecked
against the checked State constructor, two the one CHSH contraction that the
value, the scan and the see-saw share, two the bits of the see-saw's shortcuts
(signs of 1x1 blocks with no eigen-solve, and each restart's start drawn as one
stack), and a last one feeds malformed counts,
tolerances, weights, see-saw starts and entries that are no numbers to the
public API."""

import json
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import block_diag

from conftest import blockwise, maximally_mixed
from raggio_kit.algebra import (
    FdAlgebra,
    _embed,
    _herm,
    _plan,
    direct_sum,
    element,
    joint_blocks,
    make_commutative,
    make_full,
    split_dense,
    tensor,
    tensor_element,
    unit,
)
from raggio_kit.bell import (
    CHSH_QUANTUM_BOUND,
    SIGN_EIGENVALUE_TOL,
    _effective,
    _sign,
    canonical_qubit_observables,
    chsh_optimize,
    chsh_value,
    random_dichotomic,
    random_observables,
    seesaw,
)
from raggio_kit.entanglement import (
    CLASSICAL_WEIGHT_TOL,
    PPT_TOL,
    REALIGN_TOL,
    SEPARABLE,
    Decomposition,
    _fcfw_search,
    _linear_minimizer,
    _product_projectors,
    _product_split,
    _reconstruction_error,
    classical_decompose,
    ppt_check,
    realignment_check,
    reconstruct,
    separability_test,
)
from raggio_kit.errors import (
    AlgebraMismatchError,
    InvalidDimensionError,
    RaggioKitError,
    UnsupportedShapeError,
)
from raggio_kit.harness import (
    bell_one_side_classical,
    embedded_singlet,
    embedded_werner,
    verify_equivalence,
)
from raggio_kit.serialize import decomposition_from_dict, decomposition_to_dict, element_from_dict
from raggio_kit.states import (
    PureVector,
    State,
    expectation,
    mixture,
    product_state,
    random_mixed,
    random_vector_state,
    restrict_to_factor,
    trace_distance,
    werner,
)

SHAPES = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple)
FACTOR_PAIRS = st.tuples(SHAPES, SHAPES).filter(lambda p: sum(p[0]) * sum(p[1]) <= 12)
SEEDS = st.integers(0, 2**32 - 1)
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(FACTOR_PAIRS)
def test_joint_blocks_follow_the_tensor_block_order(dims):
    a, b = FdAlgebra(dims[0]), FdAlgebra(dims[1])
    product = tensor(a, b)
    blocks = joint_blocks(product)
    assert [idx for idx, *_ in blocks] == list(range(product.num_blocks))
    assert [(i, j) for _, i, j, _, _ in blocks] == [
        (i, j) for i in range(a.num_blocks) for j in range(b.num_blocks)
    ]
    assert all(n == a.block_dims[i] and m == b.block_dims[j] for _, i, j, n, m in blocks)
    assert tuple(n * m for *_, n, m in blocks) == product.block_dims


@PROPERTY
@given(FACTOR_PAIRS, SEEDS, st.data())
def test_split_dense_round_trips_and_rejects_off_block_mass(dims, seed, data):
    product = tensor(FdAlgebra(dims[0]), FdAlgebra(dims[1]))
    rng = np.random.default_rng(seed)
    blocks = [
        rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in product.block_dims
    ]
    dense = block_diag(*blocks)
    back = split_dense(product, dense, tol=0.0)
    assert len(back) == len(blocks)
    assert all(np.array_equal(x, y) for x, y in zip(back, blocks))

    owner = np.repeat(np.arange(product.num_blocks), product.block_dims)
    outside = np.argwhere(owner[:, None] != owner[None, :])
    if len(outside):
        r, c = outside[data.draw(st.integers(0, len(outside) - 1))]
        dense[r, c] = 1e-6
        with pytest.raises(InvalidDimensionError):
            split_dense(product, dense, tol=1e-9)
        assert all(np.array_equal(x, y) for x, y in zip(split_dense(product, dense, 1e-5), blocks))


def _numbers(shape, kind, rng):
    """Random entries of an int, float or complex dtype."""
    x = rng.integers(-3, 4, shape)
    if kind == "int":
        return x
    x = x + rng.standard_normal(shape)
    return x if kind == "float" else x + 1j * rng.standard_normal(shape)


KINDS = st.sampled_from(["int", "float", "complex"])


@PROPERTY
@given(st.one_of(FACTOR_PAIRS, st.integers(1, 4)), SEEDS, KINDS)
def test_dense_matrix_is_the_scipy_block_diagonal(dims, seed, kind):
    # .matrix fills the diagonal slices of a numpy array; scipy is the independent reference
    rng = np.random.default_rng(seed)
    pair = isinstance(dims, tuple)
    alg = tensor(FdAlgebra(dims[0]), FdAlgebra(dims[1])) if pair else make_full(dims)
    gs = [_numbers((d, d), kind, rng) for d in alg.block_dims]
    grams = [g @ g.conj().T + np.eye(len(g), dtype=int) for g in gs]
    total = sum(np.trace(g) for g in grams)
    objects = [
        element(alg, [_numbers((d, d), kind, rng) for d in alg.block_dims]),
        State(alg, [g / total for g in grams]),
    ]
    if not pair:  # a nonzero first amplitude keeps the vector normalizable
        objects.append(PureVector(alg, np.concatenate([[4], _numbers(dims - 1, kind, rng)])))
    for obj in objects:
        ref = block_diag(*obj.blocks)
        assert obj.matrix.dtype == ref.dtype
        assert np.array_equal(obj.matrix, ref)


@PROPERTY
@given(FACTOR_PAIRS, SEEDS)
def test_restrictions_of_a_product_state_give_back_the_factors(dims, seed):
    rng = np.random.default_rng(seed)
    x, y = random_mixed(FdAlgebra(dims[0]), rng), random_mixed(FdAlgebra(dims[1]), rng)
    joint = product_state(x, y)
    for keep, want in (("a", x), ("b", y)):
        got = restrict_to_factor(joint, keep)
        assert got.algebra == want.algebra
        assert max(np.max(np.abs(g - w)) for g, w in zip(got.blocks, want.blocks)) <= 1e-12


@PROPERTY
@given(FACTOR_PAIRS, SEEDS)
def test_classical_decompose_reconstructs_with_either_side_commutative(dims, seed):
    rng = np.random.default_rng(seed)
    a, b = FdAlgebra(dims[0]), FdAlgebra(dims[1])
    products = (tensor(make_commutative(a.total_dim), b), tensor(a, make_commutative(b.total_dim)))
    for product in products:
        for state in (random_mixed(product, rng), random_vector_state(product, rng)):
            dec = classical_decompose(state)
            assert trace_distance(reconstruct(dec, product), state) <= 1e-9


def _restricted_by_joint_blocks(state, keep):
    """Reference copy of restrict_to_factor's joint_blocks loop before it read algebra._plan."""
    alg_a, alg_b = state.algebra.factors
    target = alg_a if keep == "a" else alg_b
    out = [np.zeros((d, d), dtype=complex) for d in target.block_dims]
    for idx, i, j, n, m in joint_blocks(state.algebra):
        k, spec = (i, "ajbj->ab") if keep == "a" else (j, "iaib->ab")
        out[k] = out[k] + np.einsum(spec, state.blocks[idx].reshape(n, m, n, m))
    return State._of_density(target, tuple(out))


def _conditioned_by_joint_blocks(state):
    """Reference copy of classical_decompose's joint_blocks buckets before it split each
    joint block by its spectrum: the commutative side, and per point of it that holds
    weight, the weight and the other factor's conditional blocks."""
    factors = state.algebra.factors
    side = 1 if factors[1].is_commutative else 0
    buckets = [[] for _ in range(factors[side].num_blocks)]
    for idx, i, j, _, _ in joint_blocks(state.algebra):
        buckets[(i, j)[side]].append(state.blocks[idx])
    out = {}
    for point, blocks in enumerate(buckets):
        w = float(sum(np.trace(b).real for b in blocks))
        if w > CLASSICAL_WEIGHT_TOL:
            out[point] = w, [b / w for b in blocks]
    return side, out


def _same_blocks(x, y) -> bool:
    return x.algebra == y.algebra and len(x.blocks) == len(y.blocks) and all(
        np.array_equal(bx, by) for bx, by in zip(x.blocks, y.blocks)
    )


@PROPERTY
@given(FACTOR_PAIRS, SEEDS)
def test_restriction_and_conditioning_match_the_joint_blocks_loops(dims, seed):
    # the per-factor plan must give the exact entries of the loops it replaced
    rng = np.random.default_rng(seed)
    a, b = FdAlgebra(dims[0]), FdAlgebra(dims[1])
    for state in (random_mixed(tensor(a, b), rng), random_vector_state(tensor(a, b), rng)):
        for keep in ("a", "b"):
            want = _restricted_by_joint_blocks(state, keep)
            assert _same_blocks(restrict_to_factor(state, keep), want)
    products = (tensor(make_commutative(a.total_dim), b), tensor(a, make_commutative(b.total_dim)))
    for product in products:
        for state in (random_mixed(product, rng), random_vector_state(product, rng)):
            # each point's pure terms add up to the conditional state the buckets gave
            side, want = _conditioned_by_joint_blocks(state)
            other = product.factors[1 - side]
            got = {p: [np.zeros((d, d), dtype=complex) for d in other.block_dims] for p in want}
            dec = classical_decompose(state)
            weights = iter(dec.weights)
            for i, j, _, a, b in dec.rows:
                point, k, vecs = (j, i, a) if side == 1 else (i, j, b)
                for v in vecs:
                    got[point][k] += next(weights) * np.outer(v, v.conj())
            for point, (w, blocks) in want.items():
                assert max(np.max(np.abs(g - w * c)) for g, c in zip(got[point], blocks)) <= 1e-14


@PROPERTY
@given(FACTOR_PAIRS, st.integers(1, 6), SEEDS)
def test_reconstruct_matches_the_mixture_of_product_states(dims, terms, seed):
    # one row per term, so several rows may add into one joint block
    rng = np.random.default_rng(seed)
    a, b = FdAlgebra(dims[0]), FdAlgebra(dims[1])
    w = rng.random(terms) + 0.05
    rows, pure = [], ([], [])
    for wk in w / w.sum():
        ij = [rng.integers(f.num_blocks) for f in (a, b)]
        vecs = [rng.standard_normal(f.block_dims[k]) + 1j * rng.standard_normal(f.block_dims[k])
                for f, k in zip((a, b), ij)]
        vecs = [v / np.linalg.norm(v) for v in vecs]
        rows.append((*ij, [wk], vecs[0][None], vecs[1][None]))
        for f, k, v, out in zip((a, b), ij, vecs, pure):
            out.append(State(f, _embed(f, k, np.outer(v, v.conj()))))
    product = tensor(a, b)
    dec = Decomposition(product, rows)
    parts = [product_state(x, y, product) for x, y in zip(*pure)]
    want = mixture(dec.weights, parts)
    for got in (reconstruct(dec, product), reconstruct(dec)):
        assert got.algebra == product
        assert max(np.max(np.abs(g - h)) for g, h in zip(got.blocks, want.blocks)) <= 1e-14
    # the swapped product, a larger second factor, and no recorded factors
    wider = direct_sum(b, make_commutative(1))
    for other in (tensor(b, a), tensor(a, wider), FdAlgebra(product.block_dims)):
        if other.factors != product.factors:
            with pytest.raises(AlgebraMismatchError):
                reconstruct(dec, other)


@PROPERTY
@given(FACTOR_PAIRS, st.integers(1, 3), SEEDS)
def test_separable_rows_are_unit_vectors_that_round_trip_bit_for_bit(dims, terms, seed):
    # every route: product mixtures (closed form, one-dimensional side or search) and
    # states with a commutative factor on either side
    rng = np.random.default_rng(seed)
    a, b = FdAlgebra(dims[0]), FdAlgebra(dims[1])
    states = [
        _product_mixture(a, b, terms, rng),
        random_mixed(tensor(make_commutative(a.total_dim), b), rng),
        random_vector_state(tensor(a, make_commutative(b.total_dim)), rng),
    ]
    for state in states:
        v = separability_test(state, budget=20, seed=seed)
        if v.tag != SEPARABLE:
            continue
        dec = v.decomposition
        for _, _, _, x, y in dec.rows:
            for vecs in (x, y):
                assert np.all(np.abs(np.linalg.norm(vecs, axis=1) - 1.0) <= 1e-12)
        assert v.error == trace_distance(reconstruct(dec), state)
        back = decomposition_from_dict(json.loads(json.dumps(decomposition_to_dict(dec))))
        assert back.algebra == dec.algebra and len(back.rows) == len(dec.rows)
        for got, want in zip(back.rows, dec.rows):
            assert got[:2] == want[:2]
            for g, w in zip(got[2:], want[2:]):
                assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


def _product_mixture(alg_a, alg_b, terms: int, rng):
    """A random mixture of product states; each factor is pure or full rank."""
    draw = (random_vector_state, random_mixed)
    parts = [
        product_state(draw[rng.integers(2)](alg_a, rng), draw[rng.integers(2)](alg_b, rng))
        for _ in range(terms)
    ]
    w = rng.random(terms) + 0.05
    return mixture(w / w.sum(), parts)


M2 = make_full(2)
TWO_QUBIT_PPT = st.one_of(
    st.tuples(st.just("product"), st.integers(1, 5), SEEDS),
    st.tuples(st.just("multiblock"), st.integers(1, 5), SEEDS),
    st.tuples(st.just("werner"), st.floats(0.0, 1.0 / 3.0), SEEDS),
)


@PROPERTY
@given(TWO_QUBIT_PPT)
def test_two_qubit_ppt_blocks_decompose_in_closed_form(case):
    kind, size, seed = case
    rng = np.random.default_rng(seed)
    if kind == "werner":
        state = werner(size)
    else:
        alg_a = M2 if kind == "product" else direct_sum(M2, make_commutative(1))
        state = _product_mixture(alg_a, M2, size, rng)
    v = separability_test(state, seed=0)
    assert v.tag == SEPARABLE
    assert v.error <= 1e-9
    rows = v.decomposition.rows
    assert 1 <= sum(len(w) for i, j, w, _, _ in rows if (i, j) == (0, 0)) <= 4


@PROPERTY
@given(st.sampled_from([(2, 2), (2, 3), (3, 3)]), st.integers(1, 5), SEEDS)
def test_product_mixtures_never_fail_the_realignment_test(dims, terms, seed):
    rng = np.random.default_rng(seed)
    state = _product_mixture(make_full(dims[0]), make_full(dims[1]), terms, rng)
    # past the transpose test, separability_test returns EntangledRealignment
    # exactly when this value exceeds 1 + REALIGN_TOL
    assert ppt_check(state) >= -PPT_TOL
    assert realignment_check(state) <= 1.0 + REALIGN_TOL


@PROPERTY
@given(st.integers(1, 3), st.integers(1, 3), SEEDS)
def test_linear_minimizer_returns_a_product_state_below_every_eigenvector_split(n, m, seed):
    # the alternation never raises a start's value, so the winner lies between
    # the minimum over all states and the best eigenvector-split start
    rng = np.random.default_rng(seed)
    dim = n * m
    G = _herm(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))

    def value(a, b):
        v = np.kron(a, b)
        return float(np.vdot(v, G @ v).real)

    atoms_a, atoms_b = _linear_minimizer(G, n, m, rng)
    a, b = atoms_a[0], atoms_b[0]  # the best atom comes first
    assert abs(np.linalg.norm(a) - 1.0) <= 1e-12 and abs(np.linalg.norm(b) - 1.0) <= 1e-12
    eigvals, vecs = np.linalg.eigh(G)
    best_split = min(value(*_product_split(vecs[:, k], n, m)) for k in range(dim))
    assert eigvals[0] - 1e-12 <= value(a, b) <= best_split + 1e-12


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([(2, 2), (2, 3)]), st.integers(1, 5), SEEDS, st.integers(1, 60))
def test_search_returns_at_most_dim_squared_terms_with_their_measured_error(
    dims, terms, seed, budget
):
    # NNLS keeps linearly independent columns of a (n m)^2-dimensional real
    # space, so no atom cap is needed; the error returned is the one of the
    # terms returned, whether the search succeeded or was cut short
    n, m = dims
    rng = np.random.default_rng(seed)
    rho = _product_mixture(make_full(n), make_full(m), terms, rng).blocks[0]
    w, a, b, err = _fcfw_search(rho, n, m, 1e-6, budget, rng)
    assert 1 <= len(w) <= (n * m) ** 2
    assert err == _reconstruction_error(sum(w[:, None, None] * _product_projectors(a, b)), rho)
    assert abs(sum(w) - 1.0) <= 1e-6


NONCOMMUTATIVE = SHAPES.filter(lambda dims: max(dims) >= 2)


@PROPERTY
@given(NONCOMMUTATIVE, NONCOMMUTATIVE, st.integers(1, 3), st.floats(1.0 / 3.0, 1.0))
def test_embedded_witnesses_keep_their_two_qubit_values(dims_a, dims_b, points, p):
    # the singlet and the canonical settings sit in the same corners, so the
    # value is the two-qubit one; p >= 1/3 keeps the zeros around the
    # embedded Werner block from setting the smallest transpose eigenvalue
    a, b = FdAlgebra(dims_a), FdAlgebra(dims_b)
    value = chsh_value(embedded_singlet(a, b), canonical_qubit_observables(a, b))
    assert abs(value - CHSH_QUANTUM_BOUND) <= 1e-12
    assert abs(ppt_check(embedded_werner(p, a, b)) - (1.0 - 3.0 * p) / 4.0) <= 1e-12
    d = make_commutative(points)
    for build in (canonical_qubit_observables, embedded_singlet, partial(embedded_werner, p)):
        for pair in ((d, b), (a, d)):
            with pytest.raises(UnsupportedShapeError):
                build(*pair)


def _unchecked_densities(a, b, p, rng):
    """One of each density the package builds with State._of_density, on factors a and b."""
    n, m = a.total_dim, b.total_dim
    x, y = random_mixed(a, rng), random_vector_state(b, rng)
    joint = product_state(x, y)
    u, v = (rng.standard_normal(k) + 1j * rng.standard_normal(k) for k in (n, m))
    pure = PureVector(tensor(make_full(n), make_full(m)), np.kron(u, v))
    classical = random_mixed(tensor(make_commutative(n), b), rng)
    out = [x, y, joint, restrict_to_factor(joint, "a"), restrict_to_factor(joint, "b")]
    out.append(maximally_mixed(tensor(a, b)))
    out += [pure.state(), werner(p), reconstruct(separability_test(pure).decomposition)]
    out.append(reconstruct(classical_decompose(classical)))
    if max(a.block_dims) >= 2 and max(b.block_dims) >= 2:
        out += [embedded_singlet(a, b), embedded_werner(p, a, b)]
    return out


@PROPERTY
@given(FACTOR_PAIRS, st.floats(0.0, 1.0), SEEDS)
def test_unchecked_densities_pass_the_checked_constructor(dims, p, seed):
    # State._of_density skips the positivity and trace checks on blocks that are a
    # density by construction; the checked State(...) must accept them nearly unchanged
    rng = np.random.default_rng(seed)
    for built in _unchecked_densities(FdAlgebra(dims[0]), FdAlgebra(dims[1]), p, rng):
        checked = State(built.algebra, built.blocks)
        assert max(np.max(np.abs(c - b)) for c, b in zip(checked.blocks, built.blocks)) <= 1e-12


@PROPERTY
@given(FACTOR_PAIRS, SEEDS)
def test_chsh_value_is_the_expectation_of_the_bell_operator(dims, seed):
    rng = np.random.default_rng(seed)
    a, b = FdAlgebra(dims[0]), FdAlgebra(dims[1])
    product = tensor(a, b)
    obs = random_observables(a, b, rng)
    plus, minus = (blockwise(f, obs.b1, obs.b2) for f in (np.add, np.subtract))
    bell = blockwise(np.add, tensor_element(obs.a1, plus), tensor_element(obs.a2, minus))
    # the see-saw's B half-step contracts the same functional against (A1, A2)
    x = [np.stack(pair) for pair in zip(obs.a1.blocks, obs.a2.blocks)]
    y = [np.stack(pair) for pair in zip(obs.b1.blocks, obs.b2.blocks)]
    # the observables keep the same stacks, checked, for chsh_value
    for mine, kept in ((x, obs.a), (y, obs.b)):
        assert len(mine) == len(kept)
        assert all(np.array_equal(s, k) for s, k in zip(mine, kept))
    for state in (random_mixed(product, rng), random_vector_state(product, rng)):
        want = expectation(state, bell).real
        assert abs(chsh_value(state, obs) - want) <= 1e-12
        h = _effective(_plan(product, state.blocks, 1), x)
        assert abs(sum(np.einsum("tac,tca->", ht, yt) for ht, yt in zip(h, y)).real - want) <= 1e-12


@PROPERTY
@given(FACTOR_PAIRS, SEEDS)
def test_effective_operators_of_a_stack_are_those_of_its_members(dims, seed):
    # P states, stacked as (P, 1, n m, n m), against (P, Q, 2, d, d) settings on the
    # other factor give what P * Q calls on one state and one setting give
    rng = np.random.default_rng(seed)
    product = tensor(FdAlgebra(dims[0]), FdAlgebra(dims[1]))
    states = [random_mixed(product, rng), random_vector_state(product, rng)]
    rhos = [np.array(blk)[:, None] for blk in zip(*(s.blocks for s in states))]
    for side in (0, 1):
        shapes = [(2, 3, 2, d, d) for d in product.factors[1 - side].block_dims]
        x = [_herm(rng.standard_normal(s) + 1j * rng.standard_normal(s)) for s in shapes]
        stacked = _effective(_plan(product, rhos, side), x)
        assert [h.shape for h in stacked] == [
            (2, 3, 2, d, d) for d in product.factors[side].block_dims
        ]
        for p, state in enumerate(states):
            for q in range(3):
                one = _effective(_plan(product, state.blocks, side), [s[p, q] for s in x])
                assert max(np.max(np.abs(h[p, q] - g)) for h, g in zip(stacked, one)) <= 1e-14


def _same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


TOL = SIGN_EIGENVALUE_TOL
ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, TOL, -TOL, np.nextafter(TOL, 1), np.nextafter(-TOL, -1)]),
    st.floats(-1e300, 1e300),  # Hermitian parts overflow beyond half the float range
)


@PROPERTY
@given(st.lists(st.tuples(ENTRIES, ENTRIES), min_size=1, max_size=6), st.booleans())
def test_signs_of_one_by_one_blocks_are_those_eigh_gives(entries, real):
    # _sign reads a (..., 1, 1) stack's signs and eigenvalues off its entries; they
    # must be the bits of the herm + eigh path that larger blocks take
    h = np.array([complex(re, 0.0 if real else im) for re, im in entries]).reshape(-1, 1, 1, 1)
    h = h.real.copy() if real else h
    w, v = np.linalg.eigh(_herm(h))
    s = np.where(np.abs(w) <= TOL, 1.0, np.sign(w))
    signs, eigs = _sign(h)
    assert _same_bits(eigs, w)
    assert _same_bits(signs, (v * s[..., None, :]) @ v.conj().swapaxes(-1, -2))


@PROPERTY
@given(FACTOR_PAIRS, SEEDS)
def test_optimize_starts_are_two_random_dichotomic_draws(dims, seed):
    # each random restart draws its B side as one (2, .) stack; the starts that
    # reach seesaw must be the bits of two random_dichotomic calls on its child
    alg_b = FdAlgebra(dims[1])
    state = random_mixed(tensor(FdAlgebra(dims[0]), alg_b), seed)
    starts = []

    def recording(st_, b1, b2):
        starts.append((b1, b2))
        return seesaw(st_, b1, b2)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("raggio_kit.bell.seesaw", recording)
        chsh_optimize(state, restarts=3, seed=np.random.default_rng(seed))
    assert len(starts) == 3
    rng = np.random.default_rng(seed)
    for b1, b2 in starts[1:]:
        (child,) = rng.spawn(1)
        for got in (b1, b2):
            want = random_dichotomic(alg_b, child)
            assert all(_same_bits(x, y) for x, y in zip(got.blocks, want.blocks))


M2, D2 = make_full(2), make_commutative(2)
WERNER = werner(0.9)
BAD_COUNTS = st.one_of(
    st.floats().filter(lambda x: not x.is_integer()),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.integers(max_value=-1),
)
BAD_TOLERANCES = st.one_of(
    st.sampled_from([0, -1, float("nan"), float("inf"), -float("inf")]),
    st.floats(max_value=0.0),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
)
COUNT_ARGUMENTS = [
    lambda v: separability_test(WERNER, budget=v, seed=0),
    lambda v: chsh_optimize(WERNER, restarts=v, seed=0),
    lambda v: bell_one_side_classical(M2, D2, samples=v, seed=0),
    lambda v: bell_one_side_classical(M2, D2, settings=v, seed=0),
    lambda v: verify_equivalence(M2, D2, samples=v, seed=0),
]
TOLERANCE_ARGUMENTS = [
    lambda v: separability_test(WERNER, tol=v, seed=0),
]
BAD_REAL_WEIGHTS = st.one_of(
    st.just(float("nan")),
    st.floats(-1e6, -1e-6),
    st.floats(1.001, 1e6),  # a lone weight, or a mixing parameter, above 1
)
BAD_WEIGHTS = st.one_of(
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.sampled_from([float("inf"), -float("inf")]),
    BAD_REAL_WEIGHTS,
)
WEIGHT_ARGUMENTS = [
    lambda v: mixture([v], [WERNER]),
    lambda v: Decomposition(tensor(M2, M2), [(0, 0, [v], [[1.0, 0.0]], [[1.0, 0.0]])]),
    werner,
]
# every entry is the value, so the array takes its dtype (True among ints would be an int)
NOT_NUMBERS = st.one_of(st.booleans(), st.text(max_size=3), st.none())
NUMBER_ARGUMENTS = [
    werner,
    lambda v: element_from_dict(
        {"algebra": {"block_dims": [1]}, "blocks": [{"dim": 1, "entries": [[v, 0]]}]}
    ),
    lambda v: element(M2, [[[v, v], [v, v]]]),
    lambda v: element(D2, [[[v]], [[v]]]),
    lambda v: State(M2, ([[v, v], [v, v]],)),
    lambda v: PureVector(M2, [v, v]),
]


def _weighted_sign(v):
    """(1 - v) 1 + v (-1) on M2, a contraction exactly when 0 <= v <= 1."""
    return element(M2, [(1.0 - 2.0 * v) * np.eye(2)])


# a bool or numeric string scales a start like a number, so the starts take reals
START_ARGUMENTS = [
    lambda v: seesaw(WERNER, _weighted_sign(v), unit(M2)),
    lambda v: seesaw(WERNER, unit(M2), _weighted_sign(v)),
]
BAD_ARGUMENTS = st.one_of(
    st.tuples(st.sampled_from(COUNT_ARGUMENTS), BAD_COUNTS),
    st.tuples(st.sampled_from(TOLERANCE_ARGUMENTS), BAD_TOLERANCES),
    st.tuples(st.sampled_from(WEIGHT_ARGUMENTS), BAD_WEIGHTS),
    st.tuples(st.sampled_from(NUMBER_ARGUMENTS), NOT_NUMBERS),
    st.tuples(st.sampled_from(START_ARGUMENTS), BAD_REAL_WEIGHTS),
    # a missing seed is valid: the report draws and records one
    st.tuples(
        st.just(lambda v: verify_equivalence(M2, D2, samples=1, seed=v)),
        BAD_COUNTS.filter(lambda v: v is not None),
    ),
)


@PROPERTY
@given(BAD_ARGUMENTS)
def test_bad_counts_and_tolerances_raise_domain_errors(case):
    # pytest.raises lets any other exception, such as a raw TypeError, fail the test
    call, value = case
    with pytest.raises(RaggioKitError):
        call(value)
