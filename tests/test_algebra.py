import numpy as np
import pytest

from conftest import maximally_mixed
from raggio_kit import algebra
from raggio_kit.algebra import (
    AlgebraElement,
    FdAlgebra,
    adjoint,
    direct_sum,
    element,
    element_from_matrix,
    make_commutative,
    make_full,
    multiply,
    operator_norm,
    tensor,
    tensor_element,
    unit,
)
from raggio_kit.bell import (
    canonical_qubit_observables,
    chsh_optimize,
    chsh_value,
    random_dichotomic,
)
from raggio_kit.entanglement import Decomposition, ppt_check, reconstruct, separability_test
from raggio_kit.errors import (
    AlgebraMismatchError,
    InvalidArgumentError,
    InvalidDimensionError,
    InvalidStateError,
)
from raggio_kit.harness import bell_one_side_classical, embedded_singlet, verify_equivalence
from raggio_kit.states import (
    PureVector,
    State,
    mixture,
    product_state,
    random_mixed,
    restrict_to_factor,
)


COMMUTATOR_TOL = 1e-12


def commutes_exactly(alg):
    """Brute force: no commutator of two matrix units has norm above COMMUTATOR_TOL."""
    dims = alg.block_dims
    # e_rs of block k (row-major rows of the identity), zero in every other block
    units = [
        element(alg, [e if i == k else np.zeros((c, c)) for i, c in enumerate(dims)])
        for k, d in enumerate(dims)
        for e in np.eye(d * d).reshape(d * d, d, d)
    ]
    for i, x in enumerate(units):
        for y in units[i + 1 :]:
            if operator_norm(multiply(x, y) - multiply(y, x)) > COMMUTATOR_TOL:
                return False
    return True


def random_element(alg, rng):
    return element(
        alg,
        [
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for d in alg.block_dims
        ],
    )


def test_constructors():
    assert make_full(3).block_dims == (3,)
    assert make_commutative(4).block_dims == (1, 1, 1, 1)
    assert make_full(3).total_dim == 3
    assert make_commutative(4).total_dim == 4
    assert direct_sum(make_full(2), make_commutative(2)).block_dims == (2, 1, 1)


def test_invalid_dimensions():
    with pytest.raises(InvalidDimensionError):
        make_full(0)
    with pytest.raises(InvalidDimensionError):
        make_commutative(-1)
    with pytest.raises(InvalidDimensionError):
        FdAlgebra(())
    with pytest.raises(InvalidDimensionError):
        FdAlgebra((2, 0))
    # make_full(2.5) used to fail only later and make_full(True) described itself
    # as MTrue; make_commutative(2.0) ended in a TypeError
    for bad in (2.5, 2.0, True, "2"):
        with pytest.raises(InvalidDimensionError):
            make_full(bad)
        with pytest.raises(InvalidDimensionError):
            make_commutative(bad)
    assert make_full(np.int64(2)) == make_full(2)


def test_block_dims_must_be_a_tuple_or_list():
    # FdAlgebra([2]) used to build an unhashable algebra unequal to make_full(2),
    # and FdAlgebra(3) ended in a raw TypeError from len
    assert FdAlgebra([2]) == make_full(2)
    assert FdAlgebra([2, 1]).block_dims == (2, 1)
    assert hash(FdAlgebra([2, 1])) == hash(FdAlgebra((2, 1)))
    for bad in (3, np.int64(3), 2.5, "22", None, {2: 1}, np.array([2]), []):
        with pytest.raises(InvalidDimensionError):
            FdAlgebra(bad)
    # factors=[M2, M2] used to build an unhashable algebra unequal to tensor(M2, M2),
    # and other factors ended in a raw AttributeError, ValueError or TypeError
    m2 = make_full(2)
    assert FdAlgebra((4,), factors=[m2, m2]) == tensor(m2, m2)
    assert hash(FdAlgebra((4,), factors=[m2, m2])) == hash(tensor(m2, m2))
    for bad in (("x", m2), (m2,), 5, (m2, m2, m2), "ab", [(2,), (2,)]):
        with pytest.raises(InvalidDimensionError):
            FdAlgebra((4,), factors=bad)


def test_factors_must_give_the_block_dims():
    # a mismatch once reached restrict_to_factor, ppt_check, separability_test
    # and chsh_optimize, which then failed with numpy reshape/matmul errors
    m2 = make_full(2)
    for dims in [(3,), (2, 2), (4, 4), (2, 1)]:
        with pytest.raises(InvalidDimensionError, match="do not match the factors"):
            FdAlgebra(dims, factors=(m2, m2))
    declared = FdAlgebra((4,), factors=(m2, m2))
    assert declared == tensor(m2, m2)
    st = maximally_mixed(declared)
    assert restrict_to_factor(st, "a").algebra == m2
    assert ppt_check(st) == pytest.approx(0.25)
    assert separability_test(st, seed=0).decomposable is True
    assert chsh_optimize(st, restarts=2, seed=0).value == pytest.approx(2.0)


def test_commutativity_flag():
    assert make_commutative(5).is_commutative
    assert make_full(1).is_commutative
    assert not make_full(2).is_commutative
    assert not direct_sum(make_full(2), make_commutative(3)).is_commutative


def test_commutativity_agrees_with_brute_force():
    # two routes to the same answer: the block-size criterion and explicit
    # commutators of all matrix units
    for alg in (
        make_full(1),
        make_full(2),
        make_full(3),
        make_commutative(3),
        direct_sum(make_full(2), make_commutative(1)),
        direct_sum(make_commutative(2), make_commutative(2)),
    ):
        assert alg.is_commutative == commutes_exactly(alg)


def test_tensor_block_structure():
    a = direct_sum(make_full(2), make_full(3))
    b = make_commutative(2)
    prod = tensor(a, b)
    assert prod.block_dims == (2, 2, 3, 3)
    assert prod.factors == (a, b)
    assert prod.total_dim == a.total_dim * b.total_dim
    assert tensor(make_full(2), make_full(3)).block_dims == (6,)


def test_describe():
    assert make_full(4).describe() == "M4"
    assert make_commutative(3).describe() == "D3"
    assert direct_sum(make_full(2), make_full(1)).describe() == "M2+M1"
    assert tensor(make_full(2), make_commutative(2)).describe() == "M2 (x) D2"


def test_tensor_element_single_block_is_kron():
    rng = np.random.default_rng(5)
    a, b = make_full(2), make_full(3)
    for _ in range(20):
        x, y = random_element(a, rng), random_element(b, rng)
        z = tensor_element(x, y)
        np.testing.assert_allclose(
            z.blocks[0], np.kron(x.blocks[0], y.blocks[0]), atol=1e-13
        )


def test_tensor_element_multiblock_multiplication():
    # the embedding must be an algebra homomorphism: (x1 (x) y1)(x2 (x) y2)
    # equals x1 x2 (x) y1 y2 blockwise
    rng = np.random.default_rng(6)
    a = direct_sum(make_full(2), make_commutative(2))
    b = direct_sum(make_full(2), make_full(1))
    for _ in range(10):
        x1, x2 = random_element(a, rng), random_element(a, rng)
        y1, y2 = random_element(b, rng), random_element(b, rng)
        lhs = multiply(tensor_element(x1, y1), tensor_element(x2, y2))
        rhs = tensor_element(multiply(x1, x2), multiply(y1, y2))
        for lb, rb in zip(lhs.blocks, rhs.blocks):
            np.testing.assert_allclose(lb, rb, atol=1e-12)


def test_tensor_element_mismatched_product():
    # tensor_element builds tensor(x.algebra, y.algebra) and takes no product to check
    x = unit(make_full(2))
    y = unit(make_full(3))
    with pytest.raises(TypeError):
        tensor_element(x, y, tensor(make_full(3), make_full(2)))


def test_tensor_element_defaults_to_the_tensor_algebra():
    rng = np.random.default_rng(7)
    a = direct_sum(make_full(2), make_commutative(1))
    b = direct_sum(make_commutative(1), make_full(3))
    x, y = random_element(a, rng), random_element(b, rng)
    z = tensor_element(x, y)
    assert z.algebra == tensor(a, b) and z.algebra.factors == (a, b)
    for blk, (bx, by) in zip(z.blocks, [(bx, by) for bx in x.blocks for by in y.blocks]):
        np.testing.assert_array_equal(blk, np.kron(bx, by))


def test_every_operand_check_is_one_rule():
    # product_state, reconstruct and chsh_value share one check
    a, b = make_full(2), direct_sum(make_full(2), make_commutative(1))
    sa, sb = maximally_mixed(a), maximally_mixed(b)
    assert product_state(sa, sb).algebra == tensor(a, b)
    dec = Decomposition(tensor(a, b), [(0, 0, [1.0], [[1.0, 0.0]], [[0.0, 1.0]])])
    assert reconstruct(dec).algebra == tensor(a, b)
    swapped = tensor(b, a)
    calls = (
        lambda: product_state(sa, sb, swapped),
        lambda: reconstruct(dec, swapped),
        lambda: chsh_value(maximally_mixed(swapped), canonical_qubit_observables(a, b)),
        lambda: chsh_value(maximally_mixed(make_full(6)), canonical_qubit_observables(a, b)),
    )
    for call in calls:
        with pytest.raises(AlgebraMismatchError, match="^product algebra does not factor into"):
            call()


M2 = make_full(2)
# each call used to end in a raw AttributeError (an algebra that is None) or a raw
# TypeError (blocks or parts that are no container)
WRONG_TYPES = {
    "tensor": (InvalidArgumentError, lambda: tensor(None, M2)),
    "tensor-second": (InvalidArgumentError, lambda: tensor(M2, None)),
    "direct_sum": (InvalidArgumentError, lambda: direct_sum(None, M2)),
    "unit": (InvalidArgumentError, lambda: unit(None)),
    "State": (InvalidArgumentError, lambda: State(None, ())),
    "PureVector": (InvalidArgumentError, lambda: PureVector(None, [1])),
    "random_mixed": (InvalidArgumentError, lambda: random_mixed(None)),
    "random_dichotomic": (InvalidArgumentError, lambda: random_dichotomic(None)),
    "canonical_qubit_observables": (
        InvalidArgumentError,
        lambda: canonical_qubit_observables(None, M2),
    ),
    "embedded_singlet": (InvalidArgumentError, lambda: embedded_singlet(None, M2)),
    "verify_equivalence": (InvalidArgumentError, lambda: verify_equivalence(None, M2)),
    "bell_one_side_classical": (InvalidArgumentError, lambda: bell_one_side_classical(None, M2)),
    "State-blocks-None": (InvalidStateError, lambda: State(M2, None)),
    "State-blocks-int": (InvalidStateError, lambda: State(M2, 5)),
    "element-blocks-None": (InvalidDimensionError, lambda: element(M2, None)),
    "element-blocks-int": (InvalidDimensionError, lambda: element(M2, 5)),
    "Decomposition-parts-None": (InvalidArgumentError, lambda: Decomposition(tensor(M2, M2), None)),
    "mixture-parts-None": (InvalidArgumentError, lambda: mixture([1.0], None)),
}


@pytest.mark.parametrize("error, call", WRONG_TYPES.values(), ids=WRONG_TYPES.keys())
def test_arguments_of_the_wrong_type_raise_domain_errors(error, call):
    # pytest.raises lets a raw AttributeError or TypeError through, failing the test
    with pytest.raises(error):
        call()


def test_element_still_takes_any_iterable_of_blocks():
    blocks = [np.eye(2), np.zeros((1, 1))]
    alg = direct_sum(M2, make_commutative(1))
    for given in (blocks, tuple(blocks), iter(blocks), (b for b in blocks)):
        np.testing.assert_array_equal(element(alg, given).matrix, np.diag([1.0, 1.0, 0.0]))


def test_unit_and_zero():
    alg = direct_sum(make_full(2), make_commutative(2))
    rng = np.random.default_rng(7)
    x = random_element(alg, rng)
    for blk, ref in zip(multiply(unit(alg), x).blocks, x.blocks):
        np.testing.assert_allclose(blk, ref)
    zero = element(alg, [np.zeros((d, d)) for d in alg.block_dims])
    for blk in multiply(zero, x).blocks:
        assert not blk.any()


def test_adjoint_is_involution_and_antihomomorphism():
    rng = np.random.default_rng(8)
    alg = direct_sum(make_full(3), make_full(2))
    for _ in range(20):
        x, y = random_element(alg, rng), random_element(alg, rng)
        for blk, ref in zip(adjoint(adjoint(x)).blocks, x.blocks):
            np.testing.assert_allclose(blk, ref)
        lhs = adjoint(multiply(x, y))
        rhs = multiply(adjoint(y), adjoint(x))
        for lb, rb in zip(lhs.blocks, rhs.blocks):
            np.testing.assert_allclose(lb, rb, atol=1e-12)


def test_operator_norm_frozen_values():
    alg = direct_sum(make_full(2), make_full(2))
    x = element(
        alg,
        [np.array([[0.0, 2.0], [0.0, 0.0]]), 0.3 * np.ones((2, 2))],
    )
    assert operator_norm(x) == pytest.approx(2.0, abs=1e-12)
    assert operator_norm(unit(alg)) == pytest.approx(1.0, abs=1e-12)
    assert operator_norm(element(alg, [np.zeros((d, d)) for d in alg.block_dims])) == 0.0


def test_operator_norm_matches_dense_svd():
    rng = np.random.default_rng(9)
    alg = direct_sum(direct_sum(make_full(3), make_commutative(2)), make_full(2))
    for _ in range(30):
        x = random_element(alg, rng)
        dense = np.linalg.norm(x.matrix, 2)
        assert operator_norm(x) == pytest.approx(dense, rel=1e-12, abs=1e-12)


def test_cstar_identity():
    # ||x* x|| = ||x||^2 pins down the norm; a plain Frobenius norm fails this
    rng = np.random.default_rng(10)
    alg = direct_sum(make_full(3), make_full(2))
    for _ in range(20):
        x = random_element(alg, rng)
        assert operator_norm(multiply(adjoint(x), x)) == pytest.approx(
            operator_norm(x) ** 2, rel=1e-11
        )


def test_arithmetic():
    alg = make_full(2)
    rng = np.random.default_rng(11)
    x, y = random_element(alg, rng), random_element(alg, rng)
    np.testing.assert_allclose((x + y).blocks[0], x.blocks[0] + y.blocks[0])
    np.testing.assert_allclose((x - y).blocks[0], x.blocks[0] - y.blocks[0])
    np.testing.assert_allclose((2.5 * x).blocks[0], 2.5 * x.blocks[0])
    np.testing.assert_allclose((x * (1 + 1j)).blocks[0], (1 + 1j) * x.blocks[0])
    np.testing.assert_allclose((1j * x).blocks[0], 1j * x.blocks[0])
    # True and "0.5" used to scale like numbers, None to end in a raw TypeError
    for bad in (True, "0.5", None):
        with pytest.raises(InvalidArgumentError, match="numbers"):
            bad * x
        with pytest.raises(InvalidArgumentError, match="numbers"):
            x * bad
    np.testing.assert_allclose((-x).blocks[0], -x.blocks[0])


def test_real_numbers_stay_inside_the_float_range():
    # an int beyond the largest float used to pass the rule and then overflow in
    # complex() or float(), ending in a raw OverflowError
    huge = 10**400
    for bad in (huge, -huge, 2**1024):
        assert not algebra._is_real(bad)
        assert not algebra._is_count(bad)
        with pytest.raises(InvalidArgumentError, match="numbers"):
            unit(make_full(2)) * bad
    with pytest.raises(InvalidDimensionError):
        FdAlgebra((huge,))
    largest = int(np.finfo(float).max)
    assert algebra._is_real(largest) and algebra._is_real(-largest)
    assert not algebra._is_real(largest + 1)
    np.testing.assert_array_equal((unit(make_full(2)) * 2**1023).blocks[0], 2.0**1023 * np.eye(2))


def test_algebra_mismatch_rejected():
    x = unit(make_full(2))
    y = unit(make_commutative(2))
    with pytest.raises(AlgebraMismatchError):
        _ = x + y
    with pytest.raises(AlgebraMismatchError):
        multiply(x, y)


def test_elements_are_immutable():
    x = unit(make_full(2))
    with pytest.raises(ValueError):
        x.blocks[0][0, 0] = 5.0


def test_block_shape_mismatch_rejected():
    with pytest.raises(InvalidDimensionError):
        element(make_full(2), [np.eye(3)])
    with pytest.raises(InvalidDimensionError):
        AlgebraElement(make_commutative(2), (np.eye(1),))


def test_non_finite_blocks_rejected():
    # NaN used to build, and then reached eigh through sign_operator and operator_norm
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
        with pytest.raises(InvalidArgumentError, match="finite"):
            element(make_full(2), [[[bad, 0.0], [0.0, 1.0]]])
        with pytest.raises(InvalidArgumentError, match="finite"):
            element_from_matrix(make_full(2), [[1.0, 0.0], [0.0, bad]])
        with pytest.raises(InvalidArgumentError, match="finite"):
            element(make_commutative(2), [np.eye(1), [[bad]]])
    # an entry that is no number used to end in a raw ValueError
    with pytest.raises(InvalidArgumentError, match="numbers"):
        element(make_full(2), [[["a", 1], [1, 0]]])
    with pytest.raises(InvalidArgumentError, match="numbers"):
        PureVector(make_full(2), ["a", 1])
    with pytest.raises(InvalidArgumentError, match="numbers"):
        element_from_matrix(make_full(2), [[None, 0], [0, 1]])
    # a ragged entry list used to end in numpy's raw "inhomogeneous shape" ValueError
    with pytest.raises(InvalidArgumentError, match="regular"):
        element(make_full(2), [[[1, 2], [3]]])
    with pytest.raises(InvalidArgumentError, match="regular"):
        PureVector(make_full(2), [1, [2]])


def test_bool_entries_in_nested_lists_rejected(monkeypatch):
    # numpy reads a list mixing bools with numbers as an int or float array,
    # so [[True, 0], [0, 1]] used to pass as the identity
    for bad in (
        [[True, 0], [0, 1]],
        [[np.True_, 0.5], [0.5, 1.0]],
        [np.array([False, True]), [0, 1]],
        ([1, 0], (0, True)),
    ):
        with pytest.raises(InvalidArgumentError, match="bool"):
            element(make_full(2), [bad])
        with pytest.raises(InvalidArgumentError, match="bool"):
            element_from_matrix(make_full(2), bad)
    with pytest.raises(InvalidArgumentError, match="bool"):
        PureVector(make_full(2), [1.0, False])
    np.testing.assert_array_equal(element(make_full(2), [[[1, 0], [0, 1]]]).blocks[0], np.eye(2))

    # an ndarray's dtype already settles it, so its entries are not walked
    def walked(values):
        raise AssertionError("an ndarray was searched for bools")

    monkeypatch.setattr(algebra, "_has_bool", walked)
    np.testing.assert_array_equal(element(make_full(2), (np.eye(2),)).blocks[0], np.eye(2))
    with pytest.raises(InvalidArgumentError, match="numbers"):
        element(make_full(2), (np.eye(2, dtype=bool),))


def test_element_from_matrix():
    alg = direct_sum(make_full(2), make_commutative(1))
    dense = np.diag([1.0, 2.0, 3.0]).astype(complex)
    dense[0, 1] = 4.0
    x = element_from_matrix(alg, dense)
    np.testing.assert_allclose(x.matrix, dense)
    bad = dense.copy()
    bad[0, 2] = 1e-6  # couples the two blocks
    with pytest.raises(InvalidDimensionError):
        element_from_matrix(alg, bad)
    bad[0, 2] = np.nan
    with pytest.raises(InvalidDimensionError):
        element_from_matrix(alg, bad)
    with pytest.raises(InvalidDimensionError, match="expected a 3x3 matrix"):
        element_from_matrix(alg, np.eye(2))

