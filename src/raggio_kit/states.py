"""States on multi-matrix algebras, their densities, and restriction maps.

A state on ``M_{n_1} + ... + M_{n_k}`` is represented by its block-diagonal
density matrix: positive blocks with total trace one, paired with the
algebra via ``omega(A) = sum_k Tr(rho_k A_k)``.  Vector states, product
states, mixtures, restrictions to a tensor factor, and restrictions to the
diagonal subalgebra are all provided here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .algebra import (
    HERMITICITY_TOL,
    AlgebraElement,
    FdAlgebra,
    _as_numbers,
    _as_state,
    _block_arrays,
    _frozen,
    _hermiticity_defect,
    _is_count,
    _is_real,
    _plan,
    _product_of,
    _require_algebra,
    _require_factors,
    _herm,
    _require_same_algebra,
    _trace_norm,
    make_full,
    tensor,
)
from .errors import InvalidArgumentError, InvalidStateError, UnsupportedShapeError

STATE_EIGENVALUE_TOL = 1e-9
STATE_TRACE_TOL = 1e-9


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, bool):
        raise InvalidArgumentError(f"invalid seed {seed!r}: a bool is not a seed")
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"invalid seed {seed!r}: {exc}") from exc


def _check_count(value, name: str, minimum: int = 1) -> int:
    """``value`` as an int; it must be an integer (not a bool) of at least ``minimum``."""
    if not _is_count(value, minimum):
        raise InvalidArgumentError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _check_tol(value) -> float:
    """``value`` as a float; it must be a positive finite real number (not a bool)."""
    if not _is_real(value) or not 0.0 < value < np.inf:
        raise InvalidArgumentError(f"tolerance must be positive and finite, got {value!r}")
    return float(value)


def _check_weights(weights, count: int, slack: float) -> np.ndarray:
    """``weights`` as a float array: ``count >= 1`` finite real numbers (not
    bools), none below -1e-12, that sum to 1 within ``slack``."""
    sequence = isinstance(weights, (list, tuple)) or np.ndim(weights) == 1
    # every element of an ndarray of a real dtype passes _is_real, so it is not walked
    real = isinstance(weights, np.ndarray) and weights.dtype.kind in "fiu"
    if not (sequence and count >= 1 and len(weights) == count
            and (real or all(map(_is_real, weights)))):
        need = f"{count} real number(s), one per term" if count else "at least one; no term given"
        raise InvalidArgumentError(f"weights must be {need}, got {weights!r}")
    w = np.array(weights, dtype=float)
    if not np.all(np.isfinite(w)) or np.any(w < -1e-12) or abs(w.sum() - 1.0) > slack:
        raise InvalidArgumentError(f"weights must be finite, nonnegative and sum to 1, got {w}")
    return w


def _clean_density_block(blk: np.ndarray, label: str) -> np.ndarray:
    """Validate one density block: Hermitian, positive up to tolerance.

    Small negative eigenvalues (>= -STATE_EIGENVALUE_TOL) are clipped to
    zero so that downstream eigen-decompositions stay positive; anything
    more negative is a genuine error, not noise.
    """
    if not np.all(np.isfinite(blk)):
        raise InvalidStateError(f"{label} has non-finite entries")
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries overflow to inf here
        herm_defect = _hermiticity_defect(blk)
        blk = _herm(blk)
    if herm_defect > HERMITICITY_TOL:
        raise InvalidStateError(f"{label} is not Hermitian (defect {herm_defect:.3e})")
    if not np.all(np.isfinite(blk)):
        raise InvalidStateError(f"{label} has a Hermitian part that overflows")
    w, v = np.linalg.eigh(blk)
    if w[0] < -STATE_EIGENVALUE_TOL:
        raise InvalidStateError(f"{label} has negative eigenvalue {w[0]:.3e}")
    if w[0] < 0.0:
        w = np.clip(w, 0.0, None)
        blk = (v * w) @ v.conj().T
    return blk


@dataclass(frozen=True, eq=False)
class State:
    """A state given by its block-diagonal density matrix.

    Construction validates positivity and renormalizes the trace.  The blocks are stored
    as read-only copies; the caller's arrays stay its own.
    """

    algebra: FdAlgebra
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        blocks = _block_arrays(self.algebra, self.blocks, InvalidStateError, "density block")
        blocks = [_clean_density_block(b, f"density block {k}") for k, b in enumerate(blocks)]
        with np.errstate(over="ignore"):  # an overflowing trace is rejected just below
            tr = float(sum(np.trace(b).real for b in blocks))
        if abs(tr - 1.0) > STATE_TRACE_TOL:
            raise InvalidStateError(f"density trace is {tr!r}, expected 1")
        object.__setattr__(self, "blocks", tuple(_frozen(b / tr) for b in blocks))

    @classmethod
    def _of_density(cls, algebra: FdAlgebra, blocks) -> State:
        """Blocks that are a density by construction, kept as read-only copies with no
        eigen-solve and no rescaling; only their count and shapes are checked."""
        arrays = _block_arrays(algebra, blocks, InvalidStateError, "density block")
        st = object.__new__(cls)
        vars(st).update(algebra=algebra, blocks=tuple(map(_frozen, arrays)))
        return st

    matrix = AlgebraElement.matrix


@dataclass(frozen=True, eq=False)
class PureVector:
    """A unit vector on a single-block algebra, inducing the state <psi, A psi>.

    The vector is normalized on construction, so callers may pass rounded amplitudes; only
    the zero vector is rejected, which is any vector of norm below 1e-12 (an absolute cut,
    so tiny amplitudes such as [1e-170, 1e-170] count as zero).  ``blocks`` holds the
    induced density ``(|psi><psi|,)``, so a PureVector is accepted wherever a State is.
    """

    algebra: FdAlgebra
    vector: np.ndarray
    blocks: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if _require_algebra(self.algebra).num_blocks != 1:
            raise UnsupportedShapeError(
                "vector states with a single wavefunction need a single-block algebra; "
                f"got blocks {self.algebra.block_dims}"
            )
        psi = _as_numbers(self.vector).reshape(-1)
        if psi.shape != (self.algebra.total_dim,):
            raise InvalidStateError(
                f"vector has {psi.size} entries, algebra dimension is {self.algebra.total_dim}"
            )
        if not np.all(np.isfinite(psi)):
            raise InvalidStateError("vector has non-finite amplitudes")
        with np.errstate(over="ignore"):
            nrm = float(np.linalg.norm(psi))
        if not np.isfinite(nrm):  # the squares overflow: scale the largest |re| or |im| to 1
            psi = psi / max(np.abs(psi.real).max(), np.abs(psi.imag).max())
            nrm = float(np.linalg.norm(psi))
        if nrm < 1e-12:
            raise InvalidStateError("cannot normalize the zero vector")
        psi = _frozen(psi / nrm)
        object.__setattr__(self, "vector", psi)
        object.__setattr__(self, "blocks", (_frozen(np.outer(psi, psi.conj())),))

    matrix = AlgebraElement.matrix

    def state(self) -> State:
        """The induced density matrix |psi><psi| as a State."""
        return State._of_density(self.algebra, self.blocks)


_STATES = (State, PureVector)  # what _as_state takes where a state is asked for


def expectation(state: State, x: AlgebraElement) -> complex:
    """omega(A) = sum of blockwise Tr(rho_k A_k)."""
    _require_same_algebra(_as_state(state, _STATES), _as_state(x, (AlgebraElement,)))
    return complex(sum(np.trace(r @ a) for r, a in zip(state.blocks, x.blocks)))


def purity(state: State) -> float:
    """Tr(rho^2); equals 1 exactly for vector states on a full matrix block."""
    return float(sum(np.trace(b @ b).real for b in _as_state(state, _STATES).blocks))


def trace_distance(a: State, b: State) -> float:
    """(1/2) ||rho_a - rho_b||_1 via blockwise eigenvalues."""
    _require_same_algebra(_as_state(a, _STATES), _as_state(b, _STATES))
    return 0.5 * _trace_norm(x - y for x, y in zip(a.blocks, b.blocks))


def mixture(weights, parts) -> State:
    """Convex combination sum_i w_i rho_i of a list or tuple of states on a shared algebra."""
    if not isinstance(parts, (list, tuple)):
        raise InvalidArgumentError(f"parts must be a list or tuple of states, got {type(parts)!r}")
    w = _check_weights(weights, len(parts), 1e-12)
    alg = _require_same_algebra(*(_as_state(s, _STATES) for s in parts))
    blocks = [sum(wi * s.blocks[k] for wi, s in zip(w, parts)) for k in range(alg.num_blocks)]
    return State(alg, blocks)


def product_state(sa: State, sb: State, product: FdAlgebra | None = None) -> State:
    """The product state (omega_a x omega_b) on the tensor algebra."""
    sa, sb = _as_state(sa, _STATES), _as_state(sb, _STATES)
    blocks = tuple(np.kron(ra, rb) for ra in sa.blocks for rb in sb.blocks)
    return State._of_density(_product_of(sa.algebra, sb.algebra, product), blocks)


def restrict_to_factor(state: State, keep: str) -> State:
    """Restriction of a state on A (x) B to one factor, omega(x (x) 1).

    Works blockwise: each block of the kept factor sums the joint-block views
    of its row of ``algebra._plan``, with the other factor's pair of axes
    traced out.  The tensor factorization must have been recorded on the algebra.
    """
    factors = _require_factors(_as_state(state, _STATES).algebra)
    if not (isinstance(keep, str) and keep in ("a", "b")):
        raise InvalidArgumentError(f"keep must be 'a' or 'b', got {keep!r}")
    side = "ab".index(keep)
    rows = _plan(state.algebra, state.blocks, side)
    out = tuple(sum(np.einsum("ajbj->ab", rho) for rho, _ in row) for row in rows)
    return State._of_density(factors[side], out)


def restrict_to_diagonal(psi: PureVector) -> np.ndarray:
    """Born probabilities p(i) = |psi_i|^2 of a unit vector.

    Restricting the vector state <psi, . psi> to the diagonal matrices
    forgets everything except the squared amplitudes, which are exactly
    the diagonal of the density matrix |psi><psi|.
    """
    return np.abs(_as_state(psi, (PureVector,)).vector) ** 2


def random_pure(algebra: FdAlgebra, rng=None) -> PureVector:
    """Haar-random unit vector on a single-block algebra."""
    rng = _as_rng(rng)
    n = _require_algebra(algebra).total_dim
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return PureVector(algebra, psi)


def _random_densities(algebra: FdAlgebra, vector_mask, rng) -> list[np.ndarray]:
    """Per block, (K, d, d) stacks of K random densities from one standard_normal call: row k
    has the stream and bits of random_vector_state if ``vector_mask[k]``, else of random_mixed."""
    rng, dims, n = _as_rng(rng), _require_algebra(algebra).block_dims, algebra.total_dim
    vec, w = np.asarray(vector_mask, dtype=bool), sum(2 * d * d for d in dims)
    owner = np.repeat(vec, np.where(vec, 2 * n, w))  # the normals that vector rows take
    z = rng.standard_normal(owner.size)
    zv, zm = z[owner].reshape(-1, 2 * n), z[~owner].reshape(-1, w)
    psi = zv[:, :n] + 1j * zv[:, n:]
    psi /= np.array([np.linalg.norm(p) for p in psi]).reshape(-1, 1)  # an axis= norm moves bits
    mixed = []
    for d, hi in zip(dims, accumulate(2 * d * d for d in dims)):
        x = zm[:, hi - 2 * d * d : hi].reshape(-1, 2, d, d)
        g = x[:, 0] + 1j * x[:, 1]
        mixed.append(g @ g.conj().swapaxes(-1, -2))
    tr = sum(b.trace(axis1=-2, axis2=-1).real for b in mixed)
    out = [np.empty((len(vec), d, d), dtype=complex) for d in dims]
    for blk, s, b in zip(out, algebra.block_slices(), mixed):
        blk[vec], blk[~vec] = psi[:, s, None] * psi[:, None, s].conj(), b / tr[:, None, None]
    return out


def random_vector_state(algebra: FdAlgebra, rng=None) -> State:
    """State induced by a random unit vector of the full representation space; on a
    multi-block algebra, the blockwise pinch of |Psi><Psi|, the general vector state here."""
    return State._of_density(algebra, [b[0] for b in _random_densities(algebra, [True], rng)])


def random_mixed(algebra: FdAlgebra, rng=None) -> State:
    """Full-rank random density: blockwise G G* normalized to unit trace."""
    return State._of_density(algebra, [b[0] for b in _random_densities(algebra, [False], rng)])


def qubit_pair() -> FdAlgebra:
    """The algebra M2 (x) M2 with its factorization recorded."""
    return tensor(make_full(2), make_full(2))


def singlet() -> PureVector:
    """The two-qubit singlet (e1 (x) e2 - e2 (x) e1) / sqrt(2) on qubit_pair()."""
    return PureVector(qubit_pair(), np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0))


def werner(p: float) -> State:
    """Werner mixture p |singlet><singlet| + (1 - p) 1/4 on qubit_pair()."""
    if not _is_real(p) or not 0.0 <= p <= 1.0:
        raise InvalidArgumentError(f"mixing parameter must lie in [0, 1], got {p!r}")
    pure = singlet()
    rho = p * pure.blocks[0] + (1.0 - p) * np.eye(4) / 4.0
    return State._of_density(pure.algebra, (rho,))
