"""Decomposability tests: Schmidt rank, partial transposition, realignment,
and explicit convex decompositions into product states.

A state on A (x) B is decomposable (separable) when it is a convex
combination of product states.  Four certificates are produced here:

* pure states: the Schmidt coefficients of the wavefunction,
* entangled mixed states: a negative eigenvalue of the blockwise partial
  transpose, or else a realigned joint block of trace norm above 1,
* separable mixed states: an explicit decomposition, by conditioning on the
  commutative factor in the classical case, else per joint block as (w, a, b)
  arrays of weights and product vectors a (x) b: the spectral decomposition
  where a side is one-dimensional, Wootters' closed form on qubit-qubit
  blocks or a Frank-Wolfe search, each re-measured against the state.

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
    _product_of,
    _require_factors,
    _require_same_algebra,
    embed,
    herm,
    joint_blocks,
    trace_norm,
)
from .errors import InvalidArgumentError
from .states import (
    PureVector,
    State,
    _as_rng,
    _as_state,
    check_count,
    check_tol,
    check_weights,
    point_state,
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


@dataclass(frozen=True)
class Decomposition:
    """A convex combination sum_k w_k alpha_k (x) beta_k of product states."""

    weights: tuple[float, ...]
    a_parts: tuple[State, ...]
    b_parts: tuple[State, ...]

    def __post_init__(self):
        if len(self.a_parts) != len(self.b_parts):
            raise InvalidArgumentError("a_parts and b_parts must have matching lengths")
        w = check_weights(self.weights, len(self.a_parts), _WEIGHT_SUM_TOL)
        w = np.clip(w, 0.0, None) / float(w.sum())
        object.__setattr__(self, "weights", tuple(float(x) for x in w))
        for parts in (self.a_parts, self.b_parts):
            _require_same_algebra(*map(_as_state, parts))

    @property
    def num_terms(self) -> int:
        return len(self.weights)


def reconstruct(dec: Decomposition, product: FdAlgebra | None = None) -> State:
    """Reassemble sum_k w_k alpha_k (x) beta_k, one einsum per joint block over the
    parts' blocks stacked along k; ``product`` must factor through the parts."""
    dec = _as_state(dec, (Decomposition,))
    product = _product_of(dec.a_parts[0].algebra, dec.b_parts[0].algebra, product)
    a, b = ([np.stack(x) for x in zip(*(s.blocks for s in p))] for p in (dec.a_parts, dec.b_parts))
    blocks = tuple(
        np.einsum("k,kac,kbd->abcd", dec.weights, a[i], b[j]).reshape(n * m, n * m)
        for _, i, j, n, m in joint_blocks(product)
    )
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
    for idx, _, _, n, m in joint_blocks(_as_state(state).algebra):
        pt = state.blocks[idx].reshape(n, m, n, m).transpose(0, 3, 2, 1).reshape(n * m, n * m)
        worst = min(worst, float(np.linalg.eigvalsh(herm(pt))[0]))
    return float(worst)


def realignment_check(state: State) -> float:
    """Largest trace norm of a realigned, normalized joint block.

    The block rho[(a b), (c d)] is read as R[(a c), (b d)]; a value above
    1 + REALIGN_TOL certifies entanglement (K. Chen, L.-A. Wu, QIC 3, 193, 2003).
    """
    worst = 0.0
    for idx, _, _, n, m in joint_blocks(_as_state(state).algebra):
        blk = state.blocks[idx]
        w = float(np.trace(blk).real)
        if w > CLASSICAL_WEIGHT_TOL:
            r = blk.reshape(n, m, n, m).transpose(0, 2, 1, 3).reshape(n * n, m * m)
            worst = max(worst, float(np.linalg.svd(r, compute_uv=False).sum()) / w)
    return worst


def classical_decompose(state: State) -> Decomposition:
    """Decompose a state on A (x) B with a commutative factor.

    Conditioning on the points of the commutative side is exact: the terms
    are (conditional state) (x) (point measure), so every state of this kind
    is decomposable.  Conditions on B when B is commutative, else on A.
    """
    factors = _require_factors(_as_state(state).algebra)
    side = 1 if factors[1].is_commutative else 0
    if not factors[side].is_commutative:
        raise InvalidArgumentError("classical decomposition needs a commutative factor")
    points, other = factors[side], factors[1 - side]

    # blocks of the conditional state on the other factor, one bucket per point
    buckets = [[] for _ in range(points.num_blocks)]
    for idx, i, j, _, _ in joint_blocks(state.algebra):
        buckets[(i, j)[side]].append(state.blocks[idx])
    weights, parts = [], ([], [])
    for point, blocks in enumerate(buckets):
        w = float(sum(np.trace(b).real for b in blocks))
        if w <= CLASSICAL_WEIGHT_TOL:
            continue
        weights.append(w)
        parts[side].append(point_state(points, point))
        parts[1 - side].append(State._of_density(other, tuple(b / w for b in blocks)))
    return Decomposition(tuple(weights), tuple(parts[0]), tuple(parts[1]))


# ---------------------------------------------------------------------------
# fully-corrective Frank-Wolfe search for an explicit product decomposition


def _linear_minimizer(G: np.ndarray, n: int, m: int, rng):
    """Product states a (x) b of low <., G .>, by alternating eigenvector updates.

    Deterministic starts come from the product split of every eigenvector of
    G; a few random starts guard against shared local minima.  All starts
    alternate as one stack, and each drops out once its value stops falling.
    Returns (k, n) and (k, m) arrays of unit vectors, best value first: the
    best start always, then every start of negative value whose product
    overlap with each better start stays below 1 - LMO_DISTINCT_TOL.
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
        a[live] = np.linalg.eigh(herm(np.einsum("ajbk,sj,sk->sab", G4, bl.conj(), bl)))[1][:, :, 0]
        al = a[live]
        wb, vb = np.linalg.eigh(herm(np.einsum("ajbk,sa,sb->sjk", G4, al.conj(), al)))
        b[live] = vb[:, :, 0]
        stopped = val[live] - wb[:, 0] < 1e-14
        val[live] = wb[:, 0]
        live = live[~stopped]
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
    return 0.5 * trace_norm([x / float(np.trace(x).real) - rho])


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
        new_a, new_b = _linear_minimizer(herm(x - rho), n, m, rng)
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


def _separable(state: State, dec, **fields) -> SeparabilityVerdict:
    """A Separable verdict measuring ``dec`` against ``state``; ``dec`` is a Decomposition
    or rows (w, i, a, j, b) of block arrays, a and b on blocks i and j of the factors."""
    if not isinstance(dec, Decomposition):
        def pure(side, k, v):
            alg = state.algebra.factors[side]
            return State._of_density(alg, embed(alg, k, np.outer(v, v.conj())))

        a_parts = tuple(pure(0, i, v) for _, i, a, _, _ in dec for v in a)
        b_parts = tuple(pure(1, j, v) for _, _, _, j, b in dec for v in b)
        dec = Decomposition(tuple(np.concatenate([row[0] for row in dec])), a_parts, b_parts)
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
    with a commutative factor are decomposed exactly by conditioning.  For
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
    count = check_count(budget, "search budget")
    tol = check_tol(tol)
    rng = _as_rng(seed)
    if isinstance(state, PureVector):
        pure = is_entangled_pure(state)
        if pure.entangled:
            return SeparabilityVerdict(ENTANGLED_PURE, schmidt_coefficients=pure.coefficients)
        alg_a, alg_b = state.algebra.factors
        a, b = _product_split(state.vector, alg_a.total_dim, alg_b.total_dim)
        # each factor normalized as PureVector does
        rows = [(np.ones(1), 0, a[None] / np.linalg.norm(a), 0, b[None] / np.linalg.norm(b))]
        return _separable(state, rows, schmidt_coefficients=pure.coefficients)

    state = _as_state(state)
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
    for idx, i, j, n, m in joint_blocks(state.algebra):
        blk = state.blocks[idx]
        w_blk = float(np.trace(blk).real)
        if w_blk <= CLASSICAL_WEIGHT_TOL:
            continue
        w, a, b, err = _block_pair_decomposition(blk / w_blk, n, m, tol, count, rng)
        if err > tol:
            return SeparabilityVerdict(
                UNDETERMINED,
                error=err,
                realignment=ccnr,
                details=(
                    f"transpose and realignment tests passed, but no decomposition came "
                    f"within tol: reconstruction error {err:.3e} on block {(i, j)}"
                ),
            )
        rows.append((w_blk * w, i, a, j, b))
    return _separable(state, rows, realignment=ccnr)
