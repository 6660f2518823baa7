"""Finite-dimensional *-algebras as direct sums of full complex matrix blocks.

An algebra with block dimensions ``(n_1, ..., n_k)`` is the direct sum
``M_{n_1} + ... + M_{n_k}`` acting block-diagonally on a space of dimension
``n_1 + ... + n_k``.  Every finite-dimensional C*-algebra is of this form, so
the two cases of interest - full matrix algebras ``M_n`` and commutative
algebras of functions on finitely many points - are both covered, as are
their tensor products.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AlgebraMismatchError, InvalidDimensionError

HERMITICITY_TOL = 1e-9
COMMUTATOR_TOL = 1e-12


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
        if len(self.block_dims) == 0:
            raise InvalidDimensionError("algebra needs at least one block")
        if any(d < 1 for d in self.block_dims):
            raise InvalidDimensionError(
                f"block dimensions must be positive, got {self.block_dims}"
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

    def block_offsets(self) -> list[int]:
        """Start offset of each block inside the dense representation."""
        out, off = [], 0
        for d in self.block_dims:
            out.append(off)
            off += d
        return out

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
    if n < 1:
        raise InvalidDimensionError(f"M_n needs n >= 1, got {n}")
    return FdAlgebra((n,))


def make_commutative(m: int) -> FdAlgebra:
    """The commutative algebra of functions on m points (diagonal matrices)."""
    if m < 1:
        raise InvalidDimensionError(f"D_m needs m >= 1, got {m}")
    return FdAlgebra((1,) * m)


def direct_sum(a: FdAlgebra, b: FdAlgebra) -> FdAlgebra:
    """Direct sum: concatenated block lists."""
    return FdAlgebra(a.block_dims + b.block_dims)


def tensor(a: FdAlgebra, b: FdAlgebra) -> FdAlgebra:
    """Tensor product algebra, with the factorization recorded.

    Block (i, j) of the product has dimension ``a.block_dims[i] *
    b.block_dims[j]``; pairs are ordered lexicographically.  In finite
    dimension the C*-tensor product is unique, so the elementwise Kronecker
    construction is the whole story.
    """
    dims = tuple(na * nb for na in a.block_dims for nb in b.block_dims)
    return FdAlgebra(dims, factors=(a, b))


def is_commutative(a: FdAlgebra) -> bool:
    """True iff all blocks of ``a`` are 1x1 (a is a function algebra)."""
    return a.is_commutative


def _as_block(mat, dim: int) -> np.ndarray:
    arr = np.asarray(mat, dtype=complex)
    if arr.shape != (dim, dim):
        raise InvalidDimensionError(
            f"block of shape {arr.shape} does not match declared dimension {dim}"
        )
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class AlgebraElement:
    """A block-diagonal matrix belonging to a specific :class:`FdAlgebra`.

    Elements are immutable; the wrapped arrays are marked read-only.
    Arithmetic (+, -, scalar *) stays inside the owner algebra.
    """

    algebra: FdAlgebra
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.blocks) != self.algebra.num_blocks:
            raise InvalidDimensionError(
                f"expected {self.algebra.num_blocks} blocks, got {len(self.blocks)}"
            )
        cleaned = tuple(
            _as_block(blk, dim) for blk, dim in zip(self.blocks, self.algebra.block_dims)
        )
        object.__setattr__(self, "blocks", cleaned)

    @property
    def matrix(self) -> np.ndarray:
        """Dense block-diagonal matrix on the full representation space."""
        n = self.algebra.total_dim
        out = np.zeros((n, n), dtype=complex)
        for off, dim, blk in zip(
            self.algebra.block_offsets(), self.algebra.block_dims, self.blocks
        ):
            out[off : off + dim, off : off + dim] = blk
        return out

    def is_self_adjoint(self, tol: float = HERMITICITY_TOL) -> bool:
        return all(
            np.max(np.abs(blk - blk.conj().T), initial=0.0) <= tol for blk in self.blocks
        )

    def __add__(self, other: AlgebraElement) -> AlgebraElement:
        _require_same_algebra(self, other)
        return AlgebraElement(self.algebra, tuple(x + y for x, y in zip(self.blocks, other.blocks)))

    def __sub__(self, other: AlgebraElement) -> AlgebraElement:
        _require_same_algebra(self, other)
        return AlgebraElement(self.algebra, tuple(x - y for x, y in zip(self.blocks, other.blocks)))

    def __neg__(self) -> AlgebraElement:
        return AlgebraElement(self.algebra, tuple(-x for x in self.blocks))

    def __mul__(self, scalar) -> AlgebraElement:
        s = complex(scalar)
        return AlgebraElement(self.algebra, tuple(s * x for x in self.blocks))

    __rmul__ = __mul__


def _require_same_algebra(x: AlgebraElement, y: AlgebraElement) -> None:
    if x.algebra != y.algebra:
        raise AlgebraMismatchError(
            f"elements live on different algebras: "
            f"{x.algebra.describe()} vs {y.algebra.describe()}"
        )


def element(algebra: FdAlgebra, blocks) -> AlgebraElement:
    """Wrap a list of per-block matrices as an element of ``algebra``."""
    return AlgebraElement(algebra, tuple(blocks))


def element_from_matrix(algebra: FdAlgebra, mat, off_block_tol: float = 1e-12) -> AlgebraElement:
    """Split a dense matrix into blocks, rejecting off-block mass above tolerance."""
    arr = np.asarray(mat, dtype=complex)
    n = algebra.total_dim
    if arr.shape != (n, n):
        raise InvalidDimensionError(f"expected a {n}x{n} matrix, got shape {arr.shape}")
    blocks = []
    mask = np.ones((n, n), dtype=bool)
    for off, dim in zip(algebra.block_offsets(), algebra.block_dims):
        blocks.append(arr[off : off + dim, off : off + dim])
        mask[off : off + dim, off : off + dim] = False
    stray = np.max(np.abs(arr[mask]), initial=0.0)
    if stray > off_block_tol:
        raise InvalidDimensionError(
            f"matrix has off-block entries up to {stray:.3e}; "
            f"not block-diagonal for blocks {algebra.block_dims}"
        )
    return AlgebraElement(algebra, tuple(blocks))


def unit(algebra: FdAlgebra) -> AlgebraElement:
    """The unit element 1 (identity in every block)."""
    return AlgebraElement(algebra, tuple(np.eye(d, dtype=complex) for d in algebra.block_dims))


def zero(algebra: FdAlgebra) -> AlgebraElement:
    return AlgebraElement(
        algebra, tuple(np.zeros((d, d), dtype=complex) for d in algebra.block_dims)
    )


def diagonal_element(algebra: FdAlgebra, values) -> AlgebraElement:
    """Element with the given diagonal (handy for commutative algebras)."""
    vals = np.asarray(values, dtype=complex)
    if vals.shape != (algebra.total_dim,):
        raise InvalidDimensionError(
            f"need {algebra.total_dim} diagonal values, got shape {vals.shape}"
        )
    blocks, off = [], 0
    for d in algebra.block_dims:
        blocks.append(np.diag(vals[off : off + d]))
        off += d
    return AlgebraElement(algebra, tuple(blocks))


def adjoint(x: AlgebraElement) -> AlgebraElement:
    """Blockwise conjugate transpose (the involution A -> A*)."""
    return AlgebraElement(x.algebra, tuple(blk.conj().T for blk in x.blocks))


def multiply(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Blockwise matrix product; both factors must share an owner."""
    _require_same_algebra(x, y)
    return AlgebraElement(x.algebra, tuple(a @ b for a, b in zip(x.blocks, y.blocks)))


def _stack_norm(x: np.ndarray) -> float:
    """Largest singular value over a (..., d, d) stack of matrices.

    Singular values come from an eigen-solve of X*X, symmetrized first so the
    solver always sees an exactly Hermitian input.
    """
    gram = x.conj().swapaxes(-1, -2) @ x
    gram = 0.5 * (gram + gram.conj().swapaxes(-1, -2))
    top = np.max(np.linalg.eigvalsh(gram)[..., -1], initial=0.0)
    return float(np.sqrt(top))


def operator_norm(x: AlgebraElement) -> float:
    """Largest singular value over all blocks."""
    return max(_stack_norm(blk) for blk in x.blocks)


def tensor_element(x: AlgebraElement, y: AlgebraElement, product: FdAlgebra | None = None) -> AlgebraElement:
    """Embed x (x) y into the tensor algebra via blockwise Kronecker products."""
    if product is None:
        product = tensor(x.algebra, y.algebra)
    elif product.factors != (x.algebra, y.algebra):
        raise AlgebraMismatchError("product algebra does not factor through the given elements")
    blocks = tuple(np.kron(bx, by) for bx in x.blocks for by in y.blocks)
    return AlgebraElement(product, blocks)


def matrix_units(algebra: FdAlgebra):
    """Yield the matrix-unit generators e_{rs} of every block.

    These generate the algebra linearly, so commutator checks over all pairs
    decide commutativity exactly.
    """
    for k, d in enumerate(algebra.block_dims):
        for r in range(d):
            for s in range(d):
                blocks = [np.zeros((dd, dd), dtype=complex) for dd in algebra.block_dims]
                blocks[k][r, s] = 1.0
                yield AlgebraElement(algebra, tuple(blocks))


def commutes_exactly(algebra: FdAlgebra, tol: float = COMMUTATOR_TOL) -> bool:
    """Brute-force commutativity check over all pairs of matrix units."""
    units = list(matrix_units(algebra))
    for i, x in enumerate(units):
        for y in units[i + 1 :]:
            comm = multiply(x, y) - multiply(y, x)
            if operator_norm(comm) > tol:
                return False
    return True
