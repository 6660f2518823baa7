"""Finite-dimensional *-algebras as direct sums of full complex matrix blocks.

An algebra with block dimensions ``(n_1, ..., n_k)`` is the direct sum
``M_{n_1} + ... + M_{n_k}`` acting block-diagonally on a space of dimension
``n_1 + ... + n_k``.  Every finite-dimensional C*-algebra is of this form, so
the two cases of interest - full matrix algebras ``M_n`` and commutative
algebras of functions on finitely many points - are both covered, as are
their tensor products.

Joint-block order: ``tensor(a, b)`` has one joint block per pair ``(i, j)``
of a block of ``a`` and a block of ``b``, listed lexicographically, so joint
block ``idx = i * b.num_blocks + j`` has dimension ``n_i * m_j``.  Inside it
the basis vector ``e_r (x) f_s`` sits at row ``r * m_j + s``, so
``blk.reshape(n_i, m_j, n_i, m_j)`` separates the two factors.  Code that
walks joint blocks goes through :func:`joint_blocks`, or through ``_plan``
to group them per block of one factor, rather than decoding ``idx`` itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import (
    AlgebraMismatchError,
    InvalidArgumentError,
    InvalidDimensionError,
    MissingFactorizationError,
    UnsupportedShapeError,
)

HERMITICITY_TOL = 1e-9
_FLOAT_MAX = float(np.finfo(float).max)


def _is_real(value) -> bool:
    """True for an int, float or real numpy scalar, not a bool nor an int too large for a float."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    return real and (not isinstance(value, int) or abs(value) <= _FLOAT_MAX)


def _has_bool(values) -> bool:
    """True when a nested list or tuple holds a bool, which numpy reads as 0 or 1."""
    return any(isinstance(x, (bool, np.bool_)) for x in np.asarray(values, dtype=object).flat)


def _as_numbers(values) -> np.ndarray:
    """``values`` as a complex array; its entries must be numbers (dtype kind i, u, f or c),
    and a list may hold no bool; an ndarray's dtype alone settles it."""
    try:
        arr = np.asarray(values)
    except ValueError as exc:  # numpy's "inhomogeneous shape" for a ragged nested list
        raise InvalidArgumentError(f"entries must form a regular array: {exc}") from exc
    if arr.dtype.kind not in "iufc":
        raise InvalidArgumentError(f"entries must be numbers, got dtype {arr.dtype}")
    if not isinstance(values, np.ndarray) and _has_bool(values):
        raise InvalidArgumentError("entries must be numbers, got a bool")
    return np.asarray(arr, dtype=complex)


def _frozen(arr: np.ndarray) -> np.ndarray:
    """A read-only copy of ``arr``, so no caller's array is aliased or frozen."""
    out = arr.copy()
    out.setflags(write=False)
    return out


def _hermiticity_defect(x: np.ndarray) -> float:
    """Largest entry modulus of X - X* over a (..., d, d) stack of matrices."""
    return float(np.max(np.abs(x - x.conj().swapaxes(-1, -2)), initial=0.0))


def _is_count(value, minimum: int = 1) -> bool:
    """True for an int or numpy integer, but not a bool, of at least ``minimum``."""
    return isinstance(value, (int, np.integer)) and _is_real(value) and value >= minimum


@dataclass(frozen=True)
class FdAlgebra:
    """A multi-matrix algebra, identified by its ordered block dimensions.

    ``factors`` records the two tensor factors when the algebra was built by
    :func:`tensor`; restriction maps need this because a plain dimension list
    does not determine the factorization (4 = 2x2 = 4x1).
    """

    block_dims: tuple[int, ...]
    factors: tuple[FdAlgebra, FdAlgebra] | None = field(default=None)

    def __post_init__(self):
        dims = self.block_dims
        if not isinstance(dims, (tuple, list)) or len(dims) == 0:
            raise InvalidDimensionError(f"block dimensions must be a nonempty tuple, got {dims!r}")
        object.__setattr__(self, "block_dims", tuple(dims))
        if not all(map(_is_count, self.block_dims)):
            raise InvalidDimensionError(
                f"block dimensions must be positive integers, got {self.block_dims}"
            )
        if self.factors is not None:
            pair = self.factors
            if not isinstance(pair, (tuple, list)) or len(pair) != 2 or not all(
                isinstance(f, FdAlgebra) for f in pair
            ):
                raise InvalidDimensionError(f"factors must be a pair of algebras, got {pair!r}")
            object.__setattr__(self, "factors", tuple(pair))
            da, db = (f.block_dims for f in pair)
            joint = tuple(n * m for n in da for m in db)
            if self.block_dims != joint:
                raise InvalidDimensionError(
                    f"block dimensions {list(self.block_dims)} do not match the factors, "
                    f"which give {list(joint)}"
                )

    @property
    def total_dim(self) -> int:
        """Dimension of the representation space (sum of block sizes)."""
        return sum(self.block_dims)

    @property
    def num_blocks(self) -> int:
        return len(self.block_dims)

    @property
    def is_commutative(self) -> bool:
        """True iff every block is 1x1."""
        return all(d == 1 for d in self.block_dims)

    def block_slices(self) -> list[slice]:
        """Row (and column) range of each block inside the dense representation."""
        return [slice(end - d, end) for d, end in zip(self.block_dims, accumulate(self.block_dims))]

    def describe(self) -> str:
        if self.factors is not None:
            return f"{self.factors[0].describe()} (x) {self.factors[1].describe()}"
        if len(self.block_dims) == 1:
            return f"M{self.block_dims[0]}"
        if self.is_commutative:
            return f"D{len(self.block_dims)}"
        return "+".join(f"M{d}" for d in self.block_dims)


def make_full(n: int) -> FdAlgebra:
    """The full matrix algebra M_n of complex n x n matrices."""
    return FdAlgebra((n,))


def make_commutative(m: int) -> FdAlgebra:
    """The commutative algebra of functions on m points (diagonal matrices)."""
    if not _is_count(m):
        raise InvalidDimensionError(f"D_m needs an integer m >= 1, got {m!r}")
    return FdAlgebra((1,) * m)


def direct_sum(a: FdAlgebra, b: FdAlgebra) -> FdAlgebra:
    """Direct sum: concatenated block lists."""
    return FdAlgebra(_require_algebra(a).block_dims + _require_algebra(b).block_dims)


def tensor(a: FdAlgebra, b: FdAlgebra) -> FdAlgebra:
    """Tensor product algebra, with the factorization recorded.

    Its blocks are the joint blocks, in the order given in the module
    docstring.  In finite dimension the C*-tensor product is unique, so the
    elementwise Kronecker construction is the whole story.
    """
    da, db = (_require_algebra(x).block_dims for x in (a, b))
    return FdAlgebra(tuple(na * nb for na in da for nb in db), factors=(a, b))


def _require_algebra(alg) -> FdAlgebra:
    """``alg`` itself if it is an FdAlgebra; anything else raises InvalidArgumentError."""
    if not isinstance(alg, FdAlgebra):
        raise InvalidArgumentError(f"expected an FdAlgebra, got {type(alg)!r}")
    return alg


def _require_factors(alg: FdAlgebra) -> tuple[FdAlgebra, FdAlgebra]:
    if _require_algebra(alg).factors is None:
        raise MissingFactorizationError(
            "algebra has no recorded tensor product factorization; build it with tensor(a, b)"
        )
    return alg.factors


def joint_blocks(product: FdAlgebra) -> list[tuple[int, int, int, int, int]]:
    """``(idx, i, j, n_i, m_j)`` for every joint block of a tensor product, in
    block order: joint block ``idx`` pairs block ``i`` (size ``n_i``) of the
    first factor with block ``j`` (size ``m_j``) of the second."""
    da, db = (f.block_dims for f in _require_factors(product))
    return [(i * len(db) + j, i, j, n, m) for i, n in enumerate(da) for j, m in enumerate(db)]


def _plan(product: FdAlgebra, rhos, side: int) -> list[list[tuple[np.ndarray, int]]]:
    """Per block i of factor ``side`` (0: A, 1: B), in order, one (rho, j) per joint block of i
    and block j of the other factor; rho views it in ``rhos`` as (..., n, m, n, m), swapped on B."""
    plan = [[] for _ in product.factors[side].block_dims]
    for idx, i, j, n, m in joint_blocks(product):
        rho = rhos[idx].reshape(*rhos[idx].shape[:-2], n, m, n, m)
        if side == 1:
            rho, i, j = rho.swapaxes(-4, -3).swapaxes(-2, -1), j, i
        plan[i].append((rho, j))
    return plan


def split_dense(alg: FdAlgebra, arr, tol: float) -> tuple[np.ndarray, ...]:
    """Diagonal blocks of a dense matrix on the representation space of ``alg``.

    Raises InvalidDimensionError on a wrong shape or on an entry outside the
    blocks larger than ``tol`` in modulus.
    """
    arr = _as_numbers(arr)
    n = _require_algebra(alg).total_dim
    if arr.shape != (n, n):
        raise InvalidDimensionError(f"expected a {n}x{n} matrix, got shape {arr.shape}")
    owner = np.repeat(np.arange(alg.num_blocks), alg.block_dims)
    inside = owner[:, None] == owner
    stray = np.max(np.abs(arr[~inside]), initial=0.0)
    if not stray <= tol:  # NaN off the blocks is rejected too
        raise InvalidDimensionError(
            f"matrix has off-block entries up to {stray:.3e}; "
            f"not block-diagonal for blocks {alg.block_dims}"
        )
    return tuple(arr[s, s] for s in alg.block_slices())


def _embed(alg: FdAlgebra, k: int, blk: np.ndarray) -> tuple[np.ndarray, ...]:
    """Blocks of ``alg`` holding ``blk`` in the top-left corner of block ``k``, zeros elsewhere;
    a (..., n, n) stack ``blk`` gives (..., d, d) stacks."""
    out = [np.zeros((*blk.shape[:-2], d, d), dtype=complex) for d in alg.block_dims]
    out[k][..., : blk.shape[-1], : blk.shape[-1]] = blk
    return tuple(out)


def _first_matrix_block(alg: FdAlgebra) -> int:
    for k, d in enumerate(_require_algebra(alg).block_dims):
        if d >= 2:
            return k
    raise UnsupportedShapeError("algebra is commutative: no block of dimension >= 2")


def _herm(x: np.ndarray) -> np.ndarray:
    """Hermitian part (X + X*) / 2 of a matrix or of each matrix in a (..., d, d) stack."""
    return 0.5 * (x + x.conj().swapaxes(-1, -2))


def _trace_norm(blocks) -> float:
    """Sum over the blocks of the trace norm of each block's Hermitian part."""
    return sum(float(np.sum(np.abs(np.linalg.eigvalsh(_herm(blk))))) for blk in blocks)


def _block_arrays(alg: FdAlgebra, blocks, error: type, what: str) -> list[np.ndarray]:
    """``blocks`` as complex arrays, one per block of ``alg``; a wrong block
    count or shape, or blocks that are not iterable, raise ``error``, whose message
    calls a block ``what``."""
    try:
        blocks = list(blocks)
    except TypeError as exc:
        raise error(f"{what}s must be iterable, got {type(blocks)!r}") from exc
    if len(blocks) != _require_algebra(alg).num_blocks:
        raise error(f"expected {alg.num_blocks} {what}s, got {len(blocks)}")
    arrays = [_as_numbers(blk) for blk in blocks]
    for k, (arr, dim) in enumerate(zip(arrays, alg.block_dims)):
        if arr.shape != (dim, dim):
            raise error(f"{what} {k} has shape {arr.shape}, expected {(dim, dim)}")
    return arrays


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """A block-diagonal matrix belonging to a specific :class:`FdAlgebra`.

    Elements are immutable; the wrapped arrays are marked read-only.
    """

    algebra: FdAlgebra
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        arrays = _block_arrays(self.algebra, self.blocks, InvalidDimensionError, "block")
        if not all(np.isfinite(arr).all() for arr in arrays):
            raise InvalidArgumentError("element blocks must have finite entries")
        object.__setattr__(self, "blocks", tuple(map(_frozen, arrays)))

    @property
    def matrix(self) -> np.ndarray:
        """Dense block-diagonal matrix on the full representation space."""
        out = np.zeros((self.algebra.total_dim,) * 2, dtype=np.result_type(*self.blocks))
        for s, blk in zip(self.algebra.block_slices(), self.blocks):
            out[s, s] = blk
        return out


def _as_state(value, kinds: tuple[type, ...]):
    """``value`` itself if it is one of ``kinds``; other types raise InvalidArgumentError."""
    if not isinstance(value, kinds):
        names = " or ".join(kind.__name__ for kind in kinds)
        raise InvalidArgumentError(f"expected a {names}, got {type(value)!r}")
    return value


def _require_same_algebra(first, *rest) -> FdAlgebra:
    """The algebra that ``first`` and every value in ``rest`` live on, as ``.algebra``."""
    for x in rest:
        if x.algebra != first.algebra:
            raise AlgebraMismatchError(
                f"values live on different algebras: "
                f"{first.algebra.describe()} vs {x.algebra.describe()}"
            )
    return first.algebra


def element(algebra: FdAlgebra, blocks) -> AlgebraElement:
    """Wrap an iterable of per-block matrices as an element of ``algebra``."""
    return AlgebraElement(algebra, blocks)


def unit(algebra: FdAlgebra) -> AlgebraElement:
    """The unit element 1 (identity in every block)."""
    blocks = tuple(np.eye(d, dtype=complex) for d in _require_algebra(algebra).block_dims)
    return AlgebraElement(algebra, blocks)


def _stack_norm(x: np.ndarray) -> float:
    """Largest singular value over a (..., d, d) stack of matrices; X*X is never formed,
    so entries whose squares overflow still give their norm."""
    return float(np.max(np.linalg.svd(x, compute_uv=False)[..., 0], initial=0.0))


def operator_norm(x: AlgebraElement) -> float:
    """Largest singular value over all blocks."""
    return max(_stack_norm(blk) for blk in _as_state(x, (AlgebraElement,)).blocks)


def _product_of(a: FdAlgebra, b: FdAlgebra, product: FdAlgebra | None) -> FdAlgebra:
    """``product``, which must record ``(a, b)`` as its factors, or ``tensor(a, b)`` if None."""
    if product is not None and _require_algebra(product).factors != (a, b):
        raise AlgebraMismatchError("product algebra does not factor into the operands' algebras")
    return tensor(a, b) if product is None else product


def tensor_element(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Embed x (x) y into tensor(x.algebra, y.algebra) via blockwise Kronecker products."""
    x, y = (_as_state(v, (AlgebraElement,)) for v in (x, y))
    product = tensor(x.algebra, y.algebra)
    return AlgebraElement(product, tuple(np.kron(bx, by) for bx in x.blocks for by in y.blocks))

