"""CHSH correlation bounds: evaluation, see-saw maximization, and the
closed-form two-qubit benchmark.

The quantity of interest is

    beta(omega) = sup |omega(A1 (x) (B1 + B2) + A2 (x) (B1 - B2))|

over self-adjoint contractions A_i in A and B_j in B.  Classical (one side
commutative) correlations obey beta <= 2; the overall maximum is 2 sqrt(2).

The supremum is computed by alternating optimization: with one side fixed
the functional is linear, its maximizer over the unit ball of self-adjoint
elements is the sign of the effective operator, and the attained value is a
trace norm.  Each half-step is exact, so the value history never decreases;
random restarts plus an identity-seeded restart (whose fixed point is 2 up
to rounding) handle the nonconvexity in the pair of sides.  A see-saw call
plans its joint-block reads once; 1x1 signs and the scan's 2x2 stacks take no eigen-solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    HERMITICITY_TOL,
    AlgebraElement,
    FdAlgebra,
    _as_state,
    _embed,
    _first_matrix_block,
    _herm,
    _hermiticity_defect,
    _plan,
    _product_of,
    _require_algebra,
    _require_factors,
    _require_same_algebra,
    _stack_norm,
    element,
    unit,
)
from .errors import AlgebraMismatchError, PreconditionError, UnsupportedShapeError
from .states import State, _as_rng, _check_count, qubit_pair

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
# (A1, A2, B1, B2) on M2 (x) M2 reaching 2 sqrt(2) on the singlet
CANONICAL_QUBIT_SETTINGS = (
    SIGMA_Z,
    SIGMA_X,
    -_INV_SQRT2 * (SIGMA_Z + SIGMA_X),
    _INV_SQRT2 * (SIGMA_X - SIGMA_Z),
)

OBSERVABLE_TOL = 1e-9  # slack on the operator norm of a contraction
SIGN_EIGENVALUE_TOL, SIGN_CLOSED_FORM_STACK = 1e-12, 10  # _sign: zero band, least closed-form stack
SEESAW_GAIN_TOL, SEESAW_MAX_ROUNDS = 1e-10, 500  # per see-saw run: convergence gain, round cap
CHSH_CLASSICAL_BOUND = 2.0
CHSH_QUANTUM_BOUND = 2.0 * np.sqrt(2.0)
DEFAULT_RESTARTS = 16  # chsh_optimize's see-saw restarts
# random settings drawn and evaluated at once by _random_settings_chsh
SCAN_CHUNK_SETTINGS = 1000


def _check_observable(blocks, label: str) -> None:
    """Require self-adjoint contractions in every (..., d, d) block stack."""
    if not all(_hermiticity_defect(b) <= HERMITICITY_TOL for b in blocks):
        raise PreconditionError(f"{label} must be self-adjoint")
    nrm = max(_stack_norm(b) for b in blocks)
    if nrm > 1.0 + OBSERVABLE_TOL:
        raise PreconditionError(f"{label} must be a contraction, norm is {nrm!r}")


def _observable_side(x1: AlgebraElement, x2: AlgebraElement, label: str) -> tuple[np.ndarray, ...]:
    """Per block, the read-only (2, d, d) stack of (x1, x2), checked by _check_observable."""
    stacks = tuple(map(np.stack, zip(x1.blocks, x2.blocks)))
    for x in stacks:
        x.setflags(write=False)
    _check_observable(stacks, label)
    return stacks


@dataclass(frozen=True, init=False, eq=False)
class ChshObservables:
    """Two self-adjoint contractions per side of a tensor product, kept once: per block of
    ``alg_a`` (``alg_b``), the read-only (2, d, d) stack ``a`` (``b``) of (X1, X2), from
    which ``a1, a2, b1, b2`` build the elements when read."""

    alg_a: FdAlgebra
    a: tuple[np.ndarray, ...]
    alg_b: FdAlgebra
    b: tuple[np.ndarray, ...]
    a1 = property(lambda self: element(self.alg_a, [x[0] for x in self.a]))
    a2 = property(lambda self: element(self.alg_a, [x[1] for x in self.a]))
    b1 = property(lambda self: element(self.alg_b, [x[0] for x in self.b]))
    b2 = property(lambda self: element(self.alg_b, [x[1] for x in self.b]))

    def __init__(self, a1: AlgebraElement, a2: AlgebraElement, b1: AlgebraElement, b2: AlgebraElement):
        a1, a2, b1, b2 = (_as_state(x, (AlgebraElement,)) for x in (a1, a2, b1, b2))
        alg_a, alg_b = _require_same_algebra(a1, a2), _require_same_algebra(b1, b2)
        a, b = _observable_side(a1, a2, "(a1, a2)"), _observable_side(b1, b2, "(b1, b2)")
        vars(self).update(alg_a=alg_a, a=a, alg_b=alg_b, b=b)

    @classmethod
    def _of_stacks(cls, alg_a: FdAlgebra, a, alg_b: FdAlgebra, b) -> ChshObservables:
        """Fresh (2, d, d) stacks the package built as contractions, kept with no check."""
        for s in (*a, *b):
            s.setflags(write=False)
        obs = object.__new__(cls)
        vars(obs).update(alg_a=alg_a, a=tuple(a), alg_b=alg_b, b=tuple(b))
        return obs


@dataclass(frozen=True)
class ChshResult:
    value: float
    observables: ChshObservables
    restarts: int
    iterations: int
    converged: bool


def _chsh_values(product: FdAlgebra, rhos, a, b) -> np.ndarray:
    """(P, Q) CHSH values of P states on ``product``, per joint block a (P, n m, n m) density
    stack in ``rhos``, under Q settings, per factor block a (P, Q, 2, d, d) stack of (X1, X2),
    or one that broadcasts to it, in ``a`` and ``b``: the sum of Tr(H_t A_t) over t and the
    blocks of A, for the _effective operators H of the states, (P, 1, n m, n m), against ``b``."""
    h = _effective(_plan(product, [rho[:, None] for rho in rhos], 0), b)
    return np.real(sum(np.einsum("...tac,...tca->...", ht, at) for ht, at in zip(h, a)))


def chsh_value(state: State, obs: ChshObservables) -> float:
    """omega(A1 (x) (B1 + B2) + A2 (x) (B1 - B2)) for the given observables."""
    obs = _as_state(obs, (ChshObservables,))
    product = _product_of(obs.alg_a, obs.alg_b, _as_state(state, (State,)).algebra)
    return float(_chsh_values(product, [blk[None] for blk in state.blocks], obs.a, obs.b)[0, 0])


def _random_settings_chsh(product: FdAlgebra, rhos, settings: int, rng) -> np.ndarray:
    """(P, Q) CHSH values of ``settings`` random dichotomic settings for each of P states,
    given per joint block as (P, n m, n m) density stacks in ``rhos`` (states._random_densities
    draws them), the settings drawn from ``rng`` in the order of a random_observables call each.
    Chunks of at most SCAN_CHUNK_SETTINGS settings bound the memory: runs of
    consecutive states, or runs of one state's settings when it has more; they
    draw the same stream.  Densities and settings are not re-checked: _sign builds each setting
    as a sign, +-1 on eigenvectors, from finite draws; bell_one_side_classical checks the rest."""
    alg_a, alg_b = _require_factors(product)
    wa, wb = (sum(2 * d * d for d in alg.block_dims) for alg in (alg_a, alg_b))
    step = max(1, SCAN_CHUNK_SETTINGS // max(settings, 1))
    values = np.empty((len(rhos[0]), settings))
    for lo in range(0, len(rhos[0]), step):
        part = [rho[lo : lo + step] for rho in rhos]
        for q in range(0, settings, SCAN_CHUNK_SETTINGS):
            run = min(settings - q, SCAN_CHUNK_SETTINGS)
            z = rng.standard_normal((len(part[0]), run, 2 * (wa + wb)))
            a = _random_signs(z[..., : 2 * wa].reshape(*z.shape[:2], 2, wa), alg_a.block_dims)
            b = _random_signs(z[..., 2 * wa :].reshape(*z.shape[:2], 2, wb), alg_b.block_dims)
            values[lo : lo + step, q : q + run] = _chsh_values(product, part, a, b)
    return values


def _sign(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sign of every self-adjoint matrix in a (..., d, d) stack, sign(0) = +1, and
    the (..., d) eigenvalues it was read from, ascending, which also give the trace norms.
    For n = 1 LAPACK returns W = Re a and Z = 1; those bits are read with no eigen-solve.
    A 2x2 stack of SIGN_CLOSED_FORM_STACK matrices or more takes none either: its eigenvalues
    are m -+ r and its sign (s0 + s1) / 2 I + (s1 - s0) / 2 (H - m I) / r, up to rounding."""
    closed = h.shape[-1] == 2 and h.size >= 4 * SIGN_CLOSED_FORM_STACK
    if closed:  # H = [[m + d, z], [z*, m - d]] = _herm(h), r = hypot(d, |z|)
        p, q = 0.5 * h[..., 0, 0].real, 0.5 * h[..., 1, 1].real
        z, d = 0.5 * (h[..., 0, 1] + h[..., 1, 0].conj()), p - q
        r = np.hypot(d, np.abs(z))
        w = np.stack((p + q - r, p + q + r), axis=-1)
    else:
        w, v = (h[..., 0].real, None) if h.shape[-1] == 1 else np.linalg.eigh(_herm(h))
    s = np.where(np.abs(w) <= SIGN_EIGENVALUE_TOL, 1.0, np.sign(w))
    if closed:  # (H - m I) / r = [[d, z], [z*, -d]] / r; s0 = s1 where r = 0
        a, c = (s[..., 0] + s[..., 1]) / 2, (s[..., 1] - s[..., 0]) / np.where(r > 0, 2 * r, 2.0)
        return np.stack((a + c * d, c * z, (c * z).conj(), a - c * d), -1).reshape(h.shape), w
    if v is None:
        return s[..., None].astype(h.dtype), w
    return (v * s[..., None, :]) @ v.conj().swapaxes(-1, -2), w


def sign_operator(h: AlgebraElement) -> AlgebraElement:
    """Blockwise sign of a self-adjoint element, with sign(0) = +1.

    This is the norm-one maximizer of X -> Tr(H X) over self-adjoint
    contractions; eigenvalues within SIGN_EIGENVALUE_TOL of zero do not
    affect the trace norm, so they are sent to +1 to keep the result
    dichotomic.
    """
    return element(_as_state(h, (AlgebraElement,)).algebra, [_sign(blk)[0] for blk in h.blocks])


def _effective(plan, x) -> list[np.ndarray]:
    """Per block of the factor ``plan`` maximizes on, the (..., 2, d, d) stack of the H_t with
    Tr(H_t Y) = omega(Y (x) C_t), or omega(C_t (x) Y) on B, for C = (X1 + X2, X1 - X2) and ``x``
    the other factor's (..., 2, d, d) stacks of (X1, X2), leading axes broadcast: H_t[a, c] =
    sum rho[a, b, c, d] C_t[d, b] over the planned rhos in order, Hermitian up to rounding."""
    pairs = ((s[..., :1, :, :], s[..., 1:, :, :]) for s in x)
    c = [np.concatenate((x1 + x2, x1 - x2), axis=-3) for x1, x2 in pairs]
    return [sum(np.einsum("...abcd,...tdb->...tac", rho, c[j]) for rho, j in row) for row in plan]


def _half_step(plan, x) -> tuple[list[np.ndarray], float]:
    """Exact maximization on the factor of ``plan`` against the (X1, X2) stacks ``x``: the
    (2, d, d) signs of the effective operators per block, and the sum of their trace norms."""
    signs, eigs = zip(*map(_sign, _effective(plan, x)))
    return list(signs), float(sum(np.abs(w).sum(axis=-1) for w in eigs).sum())


def seesaw(state: State, b1: AlgebraElement, b2: AlgebraElement):
    """Alternating maximization from a given B side.

    ``b1`` and ``b2`` must be self-adjoint contractions on the second factor, as in
    :class:`ChshObservables`: a start on another algebra raises AlgebraMismatchError,
    and one that is no self-adjoint contraction PreconditionError.  Returns
    ``(observables, history, converged)``, ``history`` holding the value after each
    half-step, nondecreasing up to rounding since each half-step maximizes exactly.
    The run converges at the first round gaining less than SEESAW_GAIN_TOL, or stops
    at SEESAW_MAX_ROUNDS.  The state's joint blocks are read into one _plan per side per call.
    """
    alg_a, alg_b = _require_factors(_as_state(state, (State,)).algebra)
    b1, b2 = (_as_state(x, (AlgebraElement,)) for x in (b1, b2))
    if _require_same_algebra(b1, b2) != alg_b:
        raise AlgebraMismatchError("b1 and b2 must live on the second factor")
    prev, history, converged = -np.inf, [], False
    b = _observable_side(b1, b2, "see-saw start (b1, b2)")
    plan_a, plan_b = (_plan(state.algebra, state.blocks, side) for side in (0, 1))
    for _ in range(SEESAW_MAX_ROUNDS):
        a, value = _half_step(plan_a, b)
        history.append(value)
        b, value = _half_step(plan_b, a)
        history.append(value)
        if value - prev < SEESAW_GAIN_TOL:
            converged = True
            break
        prev = value
    return ChshObservables._of_stacks(alg_a, a, alg_b, b), history, converged


def _random_signs(z: np.ndarray, dims) -> list[np.ndarray]:
    """Per block of ``dims``, the (..., d, d) signs of (G + G*) / 2, where G takes
    its real and then its imaginary part from the next 2 d^2 entries of ``z``."""
    out, off = [], 0
    for d in dims:
        g = z[..., off : off + 2 * d * d].reshape(*z.shape[:-1], 2, d, d)
        out.append(_sign(g[..., 0, :, :] + 1j * g[..., 1, :, :])[0])
        off += 2 * d * d
    return out


def random_dichotomic(alg: FdAlgebra, rng=None) -> AlgebraElement:
    """Random self-adjoint unitary (a norm-one extreme point), blockwise."""
    z = _as_rng(rng).standard_normal(sum(2 * d * d for d in _require_algebra(alg).block_dims))
    return element(alg, _random_signs(z, alg.block_dims))


def random_observables(alg_a: FdAlgebra, alg_b: FdAlgebra, rng=None) -> ChshObservables:
    rng = _as_rng(rng)
    return ChshObservables(*(random_dichotomic(x, rng) for x in (alg_a, alg_a, alg_b, alg_b)))


def chsh_optimize(state, restarts: int = DEFAULT_RESTARTS, seed=None) -> ChshResult:
    """Best see-saw value over restarts, for a State (a PureVector is one).

    Restart 0 seeds both B observables with the unit; its fixed point has value 2 up
    to rounding.  Each later restart draws random dichotomic observables from a
    generator spawned from ``seed`` as it begins, as one (2, .) draw that gives what
    two :func:`random_dichotomic` calls give.  Each restart is one :func:`seesaw`
    call; the value reported is the last history value of the winning restart (the
    first with the largest one).
    """
    restarts = _check_count(restarts, "restarts")
    state = _as_state(state, (State,))
    alg_b = _require_factors(state.algebra)[1]
    rng, best, iterations = _as_rng(seed), None, 0
    for r in range(restarts):
        if r:
            (child,) = rng.spawn(1)
            z = child.standard_normal((2, sum(2 * d * d for d in alg_b.block_dims)))
            b1, b2 = (element(alg_b, x) for x in zip(*_random_signs(z, alg_b.block_dims)))
        else:
            b1 = b2 = unit(alg_b)
        obs, history, converged = seesaw(state, b1, b2)
        iterations += len(history) // 2
        if best is None or history[-1] > best[0]:
            best = history[-1], obs, converged
    value, obs, converged = best
    return ChshResult(value, obs, restarts, iterations, converged)


def canonical_qubit_observables(alg_a: FdAlgebra, alg_b: FdAlgebra) -> ChshObservables:
    """The standard settings reaching 2 sqrt(2) on the singlet, in the top-left 2x2
    corner of each factor's first matrix block (on M2, all of it), zero elsewhere."""
    sides = np.reshape(CANONICAL_QUBIT_SETTINGS, (2, 2, 2, 2))  # (A1, A2), (B1, B2)
    a, b = (_embed(alg, _first_matrix_block(alg), x) for alg, x in zip((alg_a, alg_b), sides))
    return ChshObservables._of_stacks(alg_a, a, alg_b, b)


def horodecki_two_qubit(state: State) -> float:
    """Closed-form CHSH supremum for a two-qubit state.

    With T_uv = omega(sigma_u (x) sigma_v) and M the sum of the two largest
    eigenvalues of T^T T, the supremum over contractions is
    max(2, 2 sqrt(M)); the classical value 2 is always available.
    """
    if _as_state(state, (State,)).algebra != qubit_pair():
        raise UnsupportedShapeError("the closed form needs a state on M2 (x) M2")
    paulis = (SIGMA_X, SIGMA_Y, SIGMA_Z)
    rho = state.blocks[0]
    t = np.array([[np.trace(rho @ np.kron(su, sv)).real for sv in paulis] for su in paulis])
    eigs = np.linalg.eigvalsh(t.T @ t)
    m = float(eigs[-1] + eigs[-2])
    return max(CHSH_CLASSICAL_BOUND, 2.0 * float(np.sqrt(m)))
