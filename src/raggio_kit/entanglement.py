"""Decomposability tests: Schmidt rank, partial transposition, realignment,
and explicit convex decompositions into product states.

A state on A (x) B is decomposable (separable) when it is a convex
combination of product states.  Four certificates are produced here:

* pure states: the Schmidt coefficients of the wavefunction,
* entangled mixed states: a negative eigenvalue of the blockwise partial
  transpose, or else a realigned joint block of trace norm above 1,
* separable mixed states: an explicit decomposition, per joint block as
  (w, a, b) arrays of weights and product vectors a (x) b: the spectral
  decomposition where a side is one-dimensional (every joint block, when a
  factor is commutative), Wootters' closed form on qubit-qubit blocks or a
  Frank-Wolfe search, each re-measured against the state.

Both entanglement tests are one-sided in general, so the verdict is
``Undetermined`` when no certificate is found within budget; for
qubit-qubit and qubit-qutrit blocks the transpose test is exact, and the
closed form or the search always finds the decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    FdAlgebra,
    _as_numbers,
    _as_state,
    _frozen,
    _herm,
    _is_count,
    _product_of,
    _require_factors,
    _trace_norm,
    joint_blocks,
)
from .errors import InvalidArgumentError
from .states import (
    STATE_TRACE_TOL,
    PureVector,
    State,
    _as_rng,
    _check_count,
    _check_tol,
    _check_weights,
    purity,
    trace_distance,
)

SEPARABLE = "Separable"
ENTANGLED_PURE = "EntangledPure"
ENTANGLED_PPT = "EntangledPPT"
ENTANGLED_REALIGNMENT = "EntangledRealignment"
UNDETERMINED = "Undetermined"

SCHMIDT_TOL = 1e-9
PPT_TOL = 1e-9
REALIGN_TOL = 1e-9
CLASSICAL_WEIGHT_TOL = 1e-12
PURE_PURITY = 1.0 - 1e-12  # a density with Tr(rho^2) at least this is read as pure
DEFAULT_DECOMP_TOL = 1e-6
DEFAULT_BUDGET = 400  # separability_test's budget, in oracle calls
_WEIGHT_SUM_TOL = 1e-6  # slack on sum(weights) = 1, in Decomposition and the search
LMO_RANDOM_STARTS, LMO_ROUNDS = 6, 40  # per call of the product-state oracle
LMO_DISTINCT_TOL = 1e-6  # oracle minimizers whose product overlap reaches 1 - this are one atom
NNLS_SUM_GAIN = 4.0  # weight of the soft unit-sum row in the Frank-Wolfe re-fit

# dims (n, m) beyond qubit-qubit for which a positive partial transpose
# already implies separability, so the search cannot legitimately fail
_EXACT_PPT_SHAPES = {(2, 3), (3, 2)}

# sigma_y (x) sigma_y, whose form v^T Y v vanishes exactly on product vectors,
# and the orthogonal 4x4 Hadamard sign pattern
_SPIN_FLIP = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]]).real
_HADAMARD = np.kron([[1, 1], [1, -1]], [[1, 1], [1, -1]]) / 2.0


@dataclass(frozen=True, eq=False)
class Decomposition:
    """A convex combination sum_k w_k |a_k><a_k| (x) |b_k><b_k| of pure product states.

    ``algebra`` is a product with recorded factors.  ``rows`` holds one (i, j, w, a, b)
    per joint block: read-only (K,) weights and (K, n_i) and (K, m_j) arrays of unit
    vectors on block i of the first factor and block j of the second.  The weights are
    kept as given, clipped at 0; ``weights`` and ``reconstruct`` renormalize them.
    """

    algebra: FdAlgebra
    rows: tuple

    def __post_init__(self):
        dims = [f.block_dims for f in _require_factors(self.algebra)]
        if not isinstance(self.rows, (list, tuple)):
            raise InvalidArgumentError(f"rows must be a list or tuple, got {type(self.rows)!r}")
        rows = []
        for r, row in enumerate(self.rows):
            shape = isinstance(row, (list, tuple)) and len(row) == 5
            if not (shape and all(_is_count(k, 0) and k < len(d) for k, d in zip(row, dims))):
                raise InvalidArgumentError(f"row {r} is not (i, j, w, a, b) on blocks of {dims}")
            i, j, w, a, b = *row[:2], *map(_as_numbers, row[2:])
            k = a.shape[:1]
            if (w.shape, a.shape, b.shape) != (k, k + (dims[0][i],), k + (dims[1][j],)):
                raise InvalidArgumentError(f"row {r} must hold K weights, then K vectors per side")
            with np.errstate(over="ignore"):  # squares of huge entries overflow to inf
                norms = np.concatenate([np.sum(np.abs(v) ** 2, axis=1) for v in (a, b)])
            if np.any(w.imag) or not np.all(np.abs(norms - 1.0) <= STATE_TRACE_TOL):
                raise InvalidArgumentError(f"row {r} needs real weights and finite unit vectors")
            rows.append((int(i), int(j), w.real, a, b))
        w = np.concatenate([np.zeros(0), *(row[2] for row in rows)])
        _check_weights(w, len(w), _WEIGHT_SUM_TOL)
        rows = tuple((i, j, *map(_frozen, (np.clip(w, 0.0, None), a, b))) for i, j, w, a, b in rows)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _of_rows(cls, algebra: FdAlgebra, rows) -> Decomposition:
        """The package's own rows (unit vectors, weights >= 0), kept read-only with no check."""
        dec = object.__new__(cls)
        vars(dec).update(algebra=algebra, rows=tuple((i, j, *map(_frozen, x)) for i, j, *x in rows))
        return dec

    @property
    def weights(self) -> tuple[float, ...]:
        """Every term's weight in row order, renormalized to sum to 1."""
        w = np.concatenate([row[2] for row in self.rows])
        return tuple(float(x) for x in w / float(w.sum()))

    @property
    def num_terms(self) -> int:
        return sum(len(row[2]) for row in self.rows)


def reconstruct(dec: Decomposition, product: FdAlgebra | None = None) -> State:
    """Reassemble sum_k w_k |a_k><a_k| (x) |b_k><b_k|, one einsum of outer products per row,
    added into its joint block; ``product`` must record ``dec.algebra``'s factors."""
    product = _product_of(*_as_state(dec, (Decomposition,)).algebra.factors, product)
    index = {(i, j): idx for idx, i, j, _, _ in joint_blocks(product)}
    blocks = [np.zeros((d, d), dtype=complex) for d in product.block_dims]
    total = float(np.concatenate([row[2] for row in dec.rows]).sum())  # as ``weights`` divides
    for i, j, w, a, b in dec.rows:
        aa, bb = (v[:, :, None] * v[:, None, :].conj() for v in (a, b))
        term = np.einsum("k,kac,kbd->abcd", w / total, aa, bb)
        blocks[index[i, j]] += term.reshape(a.shape[1] * b.shape[1], -1)
    return State._of_density(product, blocks)


@dataclass(frozen=True)
class SeparabilityVerdict:
    """Outcome of a decomposability test, with whatever certificate applies."""

    tag: str
    decomposition: Decomposition | None = None
    error: float | None = None
    schmidt_coefficients: tuple[float, ...] | None = None
    negative_eigenvalue: float | None = None
    realignment: float | None = None
    details: str = field(default="", compare=False)

    @property
    def decomposable(self) -> bool | None:
        """True/False when settled, None when the search was inconclusive."""
        if self.tag == SEPARABLE:
            return True
        if self.tag in (ENTANGLED_PURE, ENTANGLED_PPT, ENTANGLED_REALIGNMENT):
            return False
        return None


def schmidt(psi: PureVector) -> np.ndarray:
    """Schmidt coefficients of a wavefunction on M_n (x) M_m, descending."""
    psi = _as_state(psi, (PureVector,))
    n, m = (f.total_dim for f in _require_factors(psi.algebra))
    return np.linalg.svd(psi.vector.reshape(n, m), compute_uv=False)


@dataclass(frozen=True)
class PureVerdict:
    """Entanglement flag for a pure state; truthiness follows the flag.

    ``coefficients`` are the Schmidt coefficients the flag was decided
    from, descending, as :func:`schmidt` returns them.
    """

    entangled: bool
    reduced_purity: float
    coefficients: tuple[float, ...] = ()

    def __bool__(self) -> bool:
        return self.entangled


def is_entangled_pure(psi: PureVector) -> PureVerdict:
    """Entangled iff more than one Schmidt coefficient exceeds SCHMIDT_TOL.

    The certificate is the purity of either reduced state, sum_i s_i^4,
    which drops below 1 exactly when the state is entangled.
    """
    coeffs = schmidt(psi)
    entangled = int(np.sum(coeffs > SCHMIDT_TOL)) > 1
    return PureVerdict(entangled, float(np.sum(coeffs**4)), tuple(float(c) for c in coeffs))


def _product_split(vecs: np.ndarray, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Best product approximation a (x) b of each (..., n m) vector, via its top singular pair."""
    u, _, vh = np.linalg.svd(vecs.reshape(*vecs.shape[:-1], n, m))
    return u[..., 0], vh[..., 0, :]


def ppt_check(state: State) -> float:
    """Smallest eigenvalue of the blockwise partial transpose.

    A value below -PPT_TOL certifies entanglement.  Transposition acts on
    the second factor of each joint block.
    """
    worst = np.inf
    for idx, _, _, n, m in joint_blocks(_as_state(state, (State,)).algebra):
        pt = state.blocks[idx].reshape(n, m, n, m).transpose(0, 3, 2, 1).reshape(n * m, n * m)
        worst = min(worst, float(np.linalg.eigvalsh(_herm(pt))[0]))
    return float(worst)


def realignment_check(state: State) -> float:
    """Largest trace norm of a realigned, normalized joint block.

    The block rho[(a b), (c d)] is read as R[(a c), (b d)]; a value above
    1 + REALIGN_TOL certifies entanglement (K. Chen, L.-A. Wu, QIC 3, 193, 2003).
    """
    worst = 0.0
    for idx, _, _, n, m in joint_blocks(_as_state(state, (State,)).algebra):
        blk = state.blocks[idx]
        w = float(np.trace(blk).real)
        if w > CLASSICAL_WEIGHT_TOL:
            r = blk.reshape(n, m, n, m).transpose(0, 2, 1, 3).reshape(n * n, m * m)
            worst = max(worst, float(np.linalg.svd(r, compute_uv=False).sum()) / w)
    return worst


def classical_decompose(state: State) -> Decomposition:
    """Decompose a state on A (x) B with a commutative factor.

    Every joint block then has a one-dimensional side, so the spectral
    decomposition of each block's other side is exact: every state of this
    kind is decomposable, into pure products.
    """
    if not any(f.is_commutative for f in _require_factors(_as_state(state, (State,)).algebra)):
        raise InvalidArgumentError("classical decomposition needs a commutative factor")
    return Decomposition._of_rows(state.algebra, [r[:5] for r in _block_rows(state, 0.0, 1, None)])


# ---------------------------------------------------------------------------
# fully-corrective Frank-Wolfe search for an explicit product decomposition


def _linear_minimizer(G: np.ndarray, n: int, m: int, rng):
    """Product states a (x) b of low <., G .>, by alternating eigenvector updates.

    Deterministic starts come from the product split of every eigenvector of
    G; a few random starts guard against shared local minima.  All starts
    alternate as one stack, and each drops out once its value stops falling,
    or once its product overlap with a start of lower value reaches
    1 - LMO_DISTINCT_TOL: that start already holds its atom, so it is not
    returned.  Returns (k, n) and (k, m) arrays of unit vectors, best value
    first: the best start always, then every start of negative value whose
    product overlap with each better start stays below 1 - LMO_DISTINCT_TOL.
    """
    G4 = G.reshape(n, m, n, m)
    a0, b0 = _product_split(np.linalg.eigh(G)[1].T, n, m)
    # per random start: n reals, n imaginaries, m reals, m imaginaries; each
    # is normalized on its own, since a row-wise norm rounds differently
    r = rng.standard_normal((LMO_RANDOM_STARTS, 2 * (n + m)))
    ra, rb = r[:, :n] + 1j * r[:, n : 2 * n], r[:, 2 * n : 2 * n + m] + 1j * r[:, 2 * n + m :]
    a = np.concatenate([a0, [v / np.linalg.norm(v) for v in ra]])
    b = np.concatenate([b0, [v / np.linalg.norm(v) for v in rb]])
    val = np.full(len(a), np.inf)
    live = np.arange(len(a))
    for _ in range(LMO_ROUNDS):
        bl = b[live]
        a[live] = np.linalg.eigh(_herm(np.einsum("ajbk,sj,sk->sab", G4, bl.conj(), bl)))[1][:, :, 0]
        al = a[live]
        wb, vb = np.linalg.eigh(_herm(np.einsum("ajbk,sa,sb->sjk", G4, al.conj(), al)))
        b[live] = vb[:, :, 0]
        stopped = val[live] - wb[:, 0] < 1e-14
        val[live] = wb[:, 0]
        # a live start at a lower start's atom is dropped: value +inf, never returned
        same = np.abs(al.conj() @ a.T) * np.abs(b[live].conj() @ b.T) >= 1.0 - LMO_DISTINCT_TOL
        dup = (same & (val < val[live, None])).any(axis=1)
        val[live[dup]] = np.inf
        live = live[~(stopped | dup)]
        if not len(live):
            break
    order = np.argsort(val, kind="stable")
    a, b, val = a[order], b[order], val[order]
    # |<a_s b_s, a_t b_t>| = |<a_s, a_t>| |<b_s, b_t>|, for every pair of starts
    same = np.abs(a.conj() @ a.T) * np.abs(b.conj() @ b.T) >= 1.0 - LMO_DISTINCT_TOL
    keep = (val < 0.0) & ~np.tril(same, -1).any(axis=1)
    keep[0] = True
    return a[keep], b[keep]


def _nnls_weights(projs: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Nonnegative weights fitting sum_k w_k P_k to a (K, d, d) stack of P_k.

    The unit-sum constraint enters as a soft extra row (NNLS_SUM_GAIN); hard
    normalization after the fit would fight the least-squares solution.
    """
    # imported here: scipy.optimize triples the package's import time, and few runs search
    from scipy.optimize import nnls
    cols = projs.reshape(len(projs), -1).T
    target = np.concatenate([rho.reshape(-1).real, rho.reshape(-1).imag, [NNLS_SUM_GAIN]])
    w, _ = nnls(np.vstack([cols.real, cols.imag, np.full(len(projs), NNLS_SUM_GAIN)]), target)
    return w


def _reconstruction_error(x: np.ndarray, rho: np.ndarray) -> float:
    return 0.5 * _trace_norm([x / float(np.trace(x).real) - rho])


def _product_projectors(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(K, n m, n m) projectors onto a_k (x) b_k, each entry formed as kron and outer form it."""
    v = (a[:, :, None] * b[:, None, :]).reshape(len(a), -1)
    return v[:, :, None] * v[:, None, :].conj()


def _fcfw_search(rho: np.ndarray, n: int, m: int, tol: float, max_iters: int, rng):
    """Frank-Wolfe with full weight reoptimization at every round.

    Each round makes one oracle call, so ``max_iters`` counts oracle calls,
    and adds every atom that the call returns before the one NNLS re-fit.
    Returns (w, a, b, error) arrays of the first iterate within ``tol`` whose
    weights sum to 1 within _WEIGHT_SUM_TOL, else of the closest iterate,
    rescaled to sum to 1.  NNLS keeps independent columns: at most (n m)^2 terms.
    """
    a, b, projs = np.empty((0, n)), np.empty((0, m)), np.empty((0, n * m, n * m))
    x, best = np.zeros((n * m, n * m), dtype=complex), (np.inf,)
    for _ in range(max_iters):
        new_a, new_b = _linear_minimizer(_herm(x - rho), n, m, rng)
        a, b = np.concatenate([a, new_a]), np.concatenate([b, new_b])
        projs = np.concatenate([projs, _product_projectors(new_a, new_b)])
        w = _nnls_weights(projs, rho)
        keep = w > 1e-14
        w, a, b, projs = w[keep], a[keep], b[keep], projs[keep]
        # Python's sum runs over k in order, so x keeps the bits of a term-by-term sum
        x = sum(w[:, None, None] * projs)
        err = _reconstruction_error(x, rho)
        # the soft unit-sum row lets a loose fit miss 1 however small its error
        if err <= tol and abs(w.sum() - 1.0) <= _WEIGHT_SUM_TOL:
            return w, a, b, err
        if err < best[0]:
            best = err, w, a, b, projs
    _, w, a, b, projs = best
    w = w / sum(w)
    return w, a, b, _reconstruction_error(sum(w[:, None, None] * projs), rho)


def _wootters_terms(rho: np.ndarray):
    """At most four product terms of a two-qubit density of zero concurrence.

    W. K. Wootters, PRL 80, 2245 (1998): with rho = V V*, Takagi-factor
    tau = V^T Y V as U^T tau U = diag(lam) by one eigh of its real embedding,
    phase the columns of V U so that sum_k lam_k e^{2i phi_k} = 0, and mix
    them with Hadamard signs; each mixed vector v has v^T Y v = 0, so it is
    a product vector.  Returns (w, a, b, error) arrays like the search.
    """
    w, e = np.linalg.eigh(rho)
    v = e * np.sqrt(np.clip(w, 0.0, None))
    tau = v.T @ _SPIN_FLIP @ v
    lam, s = np.linalg.eigh(np.block([[tau.real, tau.imag], [tau.imag, -tau.real]]))
    # the positive half, descending; its polar factor restores the unitarity
    # that near-zero Takagi values leave ill-determined
    lam = np.clip(lam[:3:-1], 0.0, None)
    p, _, q = np.linalg.svd((s[:4] - 1j * s[4:])[:, :3:-1])
    # close the quadrilateral of sides lam across a diagonal d: the shorter
    # side of each triangle is placed by angle, the longer one by difference
    d = max(lam[0] - lam[1], lam[2] - lam[3])
    cos = (d * d + lam[1::2] ** 2 - lam[::2] ** 2) / np.maximum(2 * d * lam[1::2], 1e-300)
    t = lam[1::2] * np.exp(1j * np.arccos(np.clip(cos, -1.0, 1.0)))
    phase = np.exp(0.5j * np.angle([d - t[0], t[0], t[1] - d, -t[1]]))
    vecs = (v @ p @ q * phase @ _HADAMARD).T
    w = np.array([np.vdot(vec, vec).real for vec in vecs])
    keep = w > CLASSICAL_WEIGHT_TOL
    w, (a, b) = w[keep], _product_split(vecs[keep], 2, 2)
    return w, a, b, _reconstruction_error(sum(w[:, None, None] * _product_projectors(a, b)), rho)


def _block_pair_decomposition(rho, n: int, m: int, tol, max_iters, rng):
    """(w, a, b, error) arrays of one PPT density on M_n (x) M_m: (K,) weights, (K, n) and
    (K, m) unit vectors; an error above ``tol`` means that no route succeeded."""
    # a one-dimensional factor carries no correlations: the spectral
    # decomposition of the other side already is a product decomposition
    if n == 1 or m == 1:
        w, v = np.linalg.eigh(rho)
        keep = w > CLASSICAL_WEIGHT_TOL
        vecs, ones = v.T[keep], np.ones((keep.sum(), 1), dtype=complex)
        return (w[keep], ones, vecs, 0.0) if n == 1 else (w[keep], vecs, ones, 0.0)

    if (n, m) == (2, 2):
        return _wootters_terms(rho)
    if (n, m) in _EXACT_PPT_SHAPES:
        max_iters = max(max_iters, 2000)
    return _fcfw_search(rho, n, m, tol, max_iters, rng)


def _block_rows(state: State, tol: float, max_iters: int, rng):
    """(i, j, w, a, b, error) per joint block of weight above CLASSICAL_WEIGHT_TOL, in order."""
    for idx, i, j, n, m in joint_blocks(state.algebra):
        blk = state.blocks[idx]
        w_blk = float(np.trace(blk).real)
        if w_blk > CLASSICAL_WEIGHT_TOL:
            w, a, b, err = _block_pair_decomposition(blk / w_blk, n, m, tol, max_iters, rng)
            yield i, j, w_blk * w, a, b, err


def _separable(state: State, dec: Decomposition, **fields) -> SeparabilityVerdict:
    """A Separable verdict measuring ``dec`` against ``state``."""
    err = trace_distance(reconstruct(dec, state.algebra), state)
    return SeparabilityVerdict(SEPARABLE, decomposition=dec, error=err, **fields)


def separability_test(
    state,
    budget: int = DEFAULT_BUDGET,
    tol: float = DEFAULT_DECOMP_TOL,
    seed=None,
) -> SeparabilityVerdict:
    """Decide decomposability of a state on A (x) B, with certificate.

    Pure wavefunctions are settled by their Schmidt coefficients.  States
    with a commutative factor are decomposed exactly (classical_decompose).  For
    the rest, a negative partial transpose certifies entanglement, and so
    does a realigned joint block of trace norm above 1 + REALIGN_TOL (tag
    ``EntangledRealignment``, value in ``realignment``).  Otherwise each
    joint block is decomposed: one with a one-dimensional side exactly, by
    the spectral decomposition of its other side, qubit-qubit blocks by
    Wootters' closed form, and the rest by a Frank-Wolfe search.  ``budget``
    counts the search's oracle calls; one call can add several product atoms
    before the weights are re-fit.  On qubit-qubit and qubit-qutrit blocks
    this succeeds unless the block is entangled within PPT_TOL; larger blocks
    may also exhaust the budget and end ``Undetermined``, which thus needs a
    positive partial transpose, realignment at most 1 + REALIGN_TOL, and a
    decomposition that misses ``tol``.  Only the search draws from ``seed``.
    """
    count = _check_count(budget, "search budget")
    tol = _check_tol(tol)
    rng = _as_rng(seed)
    if isinstance(state, PureVector):
        pure = is_entangled_pure(state)
        if pure.entangled:
            return SeparabilityVerdict(ENTANGLED_PURE, schmidt_coefficients=pure.coefficients)
        split = _product_split(state.vector, *(f.total_dim for f in state.algebra.factors))
        a, b = (v[None] / np.linalg.norm(v) for v in split)  # each normalized as PureVector does
        dec = Decomposition._of_rows(state.algebra, [(0, 0, np.ones(1), a, b)])
        return _separable(state, dec, schmidt_coefficients=pure.coefficients)

    state = _as_state(state, (State,))
    if any(f.is_commutative for f in _require_factors(state.algebra)):
        return _separable(state, classical_decompose(state))

    neg = ppt_check(state)
    if neg < -PPT_TOL:
        tag = ENTANGLED_PURE if purity(state) >= PURE_PURITY else ENTANGLED_PPT
        return SeparabilityVerdict(tag, negative_eigenvalue=neg)
    ccnr = realignment_check(state)
    if ccnr > 1.0 + REALIGN_TOL:
        return SeparabilityVerdict(ENTANGLED_REALIGNMENT, realignment=ccnr)

    # per-block decompositions; every joint block must admit one
    rows = []
    for *row, err in _block_rows(state, tol, count, rng):
        if err > tol:
            details = (f"transpose and realignment tests passed, but no decomposition came within "
                       f"tol: reconstruction error {err:.3e} on block {tuple(row[:2])}")
            return SeparabilityVerdict(UNDETERMINED, error=err, realignment=ccnr, details=details)
        rows.append(row)
    return _separable(state, Decomposition._of_rows(state.algebra, rows), realignment=ccnr)
