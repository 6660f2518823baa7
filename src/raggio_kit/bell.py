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
to rounding) handle the nonconvexity in the pair of sides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    HERMITICITY_TOL,
    AlgebraElement,
    FdAlgebra,
    _first_matrix_block,
    _hermiticity_defect,
    _stack_norm,
    element,
    embed,
    herm,
    joint_blocks,
    unit,
)
from .errors import AlgebraMismatchError, PreconditionError, UnsupportedShapeError
from .states import State, _as_rng, _as_state, check_count, qubit_pair

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
SIGN_EIGENVALUE_TOL = 1e-12
SEESAW_GAIN_TOL, SEESAW_MAX_ROUNDS = 1e-10, 500  # per see-saw run: convergence gain, round cap
CHSH_CLASSICAL_BOUND = 2.0
CHSH_QUANTUM_BOUND = 2.0 * np.sqrt(2.0)
# random settings drawn and evaluated at once by random_settings_chsh
SCAN_CHUNK_SETTINGS = 1000


def _check_observable(blocks, label: str) -> None:
    """Require self-adjoint contractions in every (..., d, d) block stack."""
    if not all(_hermiticity_defect(b) <= HERMITICITY_TOL for b in blocks):
        raise PreconditionError(f"{label} must be self-adjoint")
    nrm = max(_stack_norm(b) for b in blocks)
    if nrm > 1.0 + OBSERVABLE_TOL:
        raise PreconditionError(f"{label} must be a contraction, norm is {nrm!r}")


@dataclass(frozen=True)
class ChshObservables:
    """Two self-adjoint contractions per side of a tensor product."""

    a1: AlgebraElement
    a2: AlgebraElement
    b1: AlgebraElement
    b2: AlgebraElement

    def __post_init__(self):
        if self.a1.algebra != self.a2.algebra:
            raise PreconditionError("a1 and a2 must live on the same algebra")
        if self.b1.algebra != self.b2.algebra:
            raise PreconditionError("b1 and b2 must live on the same algebra")
        for label, x in (("a1", self.a1), ("a2", self.a2), ("b1", self.b1), ("b2", self.b2)):
            _check_observable(x.blocks, label)


@dataclass(frozen=True)
class ChshResult:
    value: float
    observables: ChshObservables
    restarts: int
    iterations: int
    converged: bool


def _chsh_values(product: FdAlgebra, states, a, b) -> np.ndarray:
    """(P, Q) CHSH values of P states on ``product`` under Q settings, given per
    factor block a (P, Q, 2, d, d) stack of (X1, X2) in ``a`` and ``b``: the sum
    of Tr(H_t A_t) over t and the blocks of A, for the _effective operators H of
    the states, stacked as (P, 1, n m, n m), against ``b``."""
    rhos = [np.array(blk)[:, None] for blk in zip(*(st.blocks for st in states))]
    h = _effective(product, rhos, b, 0)
    return np.real(sum(np.einsum("...tac,...tca->...", ht, at) for ht, at in zip(h, a)))


def chsh_value(state: State, obs: ChshObservables) -> float:
    """omega(A1 (x) (B1 + B2) + A2 (x) (B1 - B2)) for the given observables."""
    if state.algebra.factors != (obs.a1.algebra, obs.b1.algebra):
        raise AlgebraMismatchError("product algebra does not factor through the given elements")
    a = [np.stack(pair)[None, None] for pair in zip(obs.a1.blocks, obs.a2.blocks)]
    b = [np.stack(pair)[None, None] for pair in zip(obs.b1.blocks, obs.b2.blocks)]
    return float(_chsh_values(state.algebra, [state], a, b)[0, 0])


def random_settings_chsh(product: FdAlgebra, states, settings: int, rng) -> np.ndarray:
    """(P, Q) CHSH values of ``settings`` random dichotomic settings per state,
    drawn from ``rng`` in the order of a random_observables call per setting.
    Chunks of consecutive states with at most SCAN_CHUNK_SETTINGS settings (and
    at least one state) bound the memory; they draw the same stream.  Settings
    are not re-checked: _sign builds each as v diag(+-1) v*, from finite draws."""
    alg_a, alg_b = product.factors
    wa, wb = (sum(2 * d * d for d in alg.block_dims) for alg in (alg_a, alg_b))
    step = max(1, SCAN_CHUNK_SETTINGS // max(settings, 1))
    values = np.empty((len(states), settings))
    for lo in range(0, len(states), step):
        part = states[lo : lo + step]
        z = rng.standard_normal((len(part), settings, 2 * (wa + wb)))
        a = _random_signs(z[..., : 2 * wa].reshape(len(part), settings, 2, wa), alg_a.block_dims)
        b = _random_signs(z[..., 2 * wa :].reshape(len(part), settings, 2, wb), alg_b.block_dims)
        values[lo : lo + step] = _chsh_values(product, part, a, b)
    return values


def _sign(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sign of every self-adjoint matrix in a (..., d, d) stack, sign(0) = +1, and
    the (..., d) eigenvalues it was read from, which also give the trace norms."""
    w, v = np.linalg.eigh(herm(h))
    s = np.where(np.abs(w) <= SIGN_EIGENVALUE_TOL, 1.0, np.sign(w))
    return (v * s[..., None, :]) @ v.conj().swapaxes(-1, -2), w


def sign_operator(h: AlgebraElement) -> AlgebraElement:
    """Blockwise sign of a self-adjoint element, with sign(0) = +1.

    This is the norm-one maximizer of X -> Tr(H X) over self-adjoint
    contractions; eigenvalues within SIGN_EIGENVALUE_TOL of zero do not
    affect the trace norm, so they are sent to +1 to keep the result
    dichotomic.
    """
    return element(h.algebra, [_sign(blk)[0] for blk in h.blocks])


def _effective(product: FdAlgebra, rhos, x, side: int) -> list[np.ndarray]:
    """Per block of factor ``side`` (0: A, 1: B), the (..., 2, d, d) stack of the
    H_t with Tr(H_t Y) = omega(Y (x) C_t), respectively omega(C_t (x) Y), where
    C = (X1 + X2, X1 - X2), ``rhos`` holds the state's (..., n m, n m) joint
    blocks and ``x`` the (..., 2, d, d) stack of (X1, X2) per block of the other
    factor; leading axes broadcast.  Reading a joint block as rho[a, b, c, d],
    H_t[a, c] = sum rho[a, b, c, d] C_t[d, b]; side 1 swaps the factor axes of
    rho.  H_t is Hermitian up to rounding; _sign projects it."""
    c = [s[..., :1, :, :] + np.array([1.0, -1.0])[:, None, None] * s[..., 1:, :, :] for s in x]
    out = [0.0] * product.factors[side].num_blocks
    for idx, i, j, n, m in joint_blocks(product):
        rho = rhos[idx].reshape(*rhos[idx].shape[:-2], n, m, n, m)
        if side == 1:
            rho, i, j = rho.swapaxes(-4, -3).swapaxes(-2, -1), j, i
        out[i] = out[i] + np.einsum("...abcd,...tdb->...tac", rho, c[j])
    return out


def _half_step(state: State, x, side: int) -> tuple[list[np.ndarray], float]:
    """Exact maximization on factor ``side`` against the (X1, X2) stacks ``x`` of
    the other factor: the signs of the effective operators, as (2, d, d) stacks
    per block, and the value reached, the sum of their trace norms."""
    signs, eigs = zip(*map(_sign, _effective(state.algebra, state.blocks, x, side)))
    return list(signs), float(sum(np.abs(w).sum(axis=-1) for w in eigs).sum())


def seesaw(state: State, b1: AlgebraElement, b2: AlgebraElement):
    """Alternating maximization from a given B side.

    ``b1`` and ``b2`` must be self-adjoint contractions on the second factor,
    as in :class:`ChshObservables`; other starts raise PreconditionError.
    Returns ``(observables, history, converged)`` where ``history`` holds the
    value after every half-step.  Each half-step maximizes exactly, so the
    history is nondecreasing up to rounding.  The run converges at the first
    round gaining less than SEESAW_GAIN_TOL, or stops at SEESAW_MAX_ROUNDS.
    """
    if state.algebra.factors is None:
        raise UnsupportedShapeError("see-saw needs a state on a tensor product algebra")
    alg_a, alg_b = state.algebra.factors
    if not b1.algebra == b2.algebra == alg_b:
        raise AlgebraMismatchError("b1 and b2 must live on the second factor")
    prev = -np.inf
    history: list[float] = []
    converged = False
    b = [np.stack(pair) for pair in zip(b1.blocks, b2.blocks)]
    _check_observable(b, "see-saw start (b1, b2)")
    for _ in range(SEESAW_MAX_ROUNDS):
        a, value = _half_step(state, b, 0)
        history.append(value)
        b, value = _half_step(state, a, 1)
        history.append(value)
        if value - prev < SEESAW_GAIN_TOL:
            converged = True
            break
        prev = value
    obs = [element(alg, [s[t] for s in x]) for alg, x in ((alg_a, a), (alg_b, b)) for t in (0, 1)]
    return ChshObservables(*obs), history, converged


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
    z = _as_rng(rng).standard_normal(sum(2 * d * d for d in alg.block_dims))
    return element(alg, _random_signs(z, alg.block_dims))


def random_observables(alg_a: FdAlgebra, alg_b: FdAlgebra, rng=None) -> ChshObservables:
    rng = _as_rng(rng)
    return ChshObservables(*(random_dichotomic(x, rng) for x in (alg_a, alg_a, alg_b, alg_b)))


def chsh_optimize(state, restarts: int = 16, seed=None) -> ChshResult:
    """Best see-saw value over restarts, for a State or a PureVector.

    Restart 0 seeds both B observables with the unit; its fixed point has
    value 2 up to rounding.  Each later restart draws random dichotomic
    observables from a generator spawned from ``seed`` as it begins.  Each
    restart is one :func:`seesaw` call; the value reported is the last
    history value of the winning restart (the first with the largest one).
    """
    restarts = check_count(restarts, "restarts")
    state = _as_state(state)
    if state.algebra.factors is None:
        raise UnsupportedShapeError("CHSH optimization needs a tensor product algebra")
    alg_b = state.algebra.factors[1]
    rng, best, iterations = _as_rng(seed), None, 0
    for r in range(restarts):
        if r:
            (child,) = rng.spawn(1)
            b1, b2 = random_dichotomic(alg_b, child), random_dichotomic(alg_b, child)
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
    obs = []
    for alg, x in zip((alg_a, alg_a, alg_b, alg_b), CANONICAL_QUBIT_SETTINGS):
        obs.append(element(alg, embed(alg, _first_matrix_block(alg), x)))
    return ChshObservables(*obs)


def horodecki_two_qubit(state: State) -> float:
    """Closed-form CHSH supremum for a two-qubit state.

    With T_uv = omega(sigma_u (x) sigma_v) and M the sum of the two largest
    eigenvalues of T^T T, the supremum over contractions is
    max(2, 2 sqrt(M)); the classical value 2 is always available.
    """
    if state.algebra != qubit_pair():
        raise UnsupportedShapeError("the closed form needs a state on M2 (x) M2")
    paulis = (SIGMA_X, SIGMA_Y, SIGMA_Z)
    rho = state.blocks[0]
    t = np.array([[np.trace(rho @ np.kron(su, sv)).real for sv in paulis] for su in paulis])
    eigs = np.linalg.eigvalsh(t.T @ t)
    m = float(eigs[-1] + eigs[-2])
    return max(CHSH_CLASSICAL_BOUND, 2.0 * np.sqrt(m))
