"""End-to-end consistency checks for the decomposability theorem.

For finite-dimensional factors the following are equivalent:

1. every state on A (x) B is decomposable into product states,
2. A or B is commutative,
3. every state satisfies the classical CHSH bound beta <= 2.

The harness exercises both directions on sampled states.  When a factor is
commutative it demands explicit decompositions and the classical bound for
every sample; when neither is, random samples prove nothing by themselves
(they may all happen to be separable), so two witnesses join them, placed
where ``canonical_qubit_observables`` puts its settings, in the top-left 2x2
corners of the first matrix blocks: ``singlet()`` (beta = 2 sqrt(2)) and
``werner(0.5)``, entangled by partial transposition yet at beta = 2 (the two
failure modes differ pointwise, though the theorem ties them together globally).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import cycle, islice

import numpy as np

from .algebra import FdAlgebra, _first_matrix_block, _require_algebra, embed, joint_blocks, tensor
from .bell import (
    CHSH_CLASSICAL_BOUND,
    CHSH_QUANTUM_BOUND,
    _random_settings_chsh,
    canonical_qubit_observables,
    chsh_optimize,
    chsh_value,
)
from .entanglement import separability_test
from .errors import ResourceLimitError
from .states import State, _as_rng, _random_densities, check_count, singlet, werner

PRODUCT_DIM_CAP = 64
CHSH_SLACK = 1e-6
SCAN_SLACK = 1e-9  # bell_one_side_classical's slack on the classical bound 2
SEARCH_BUDGET = 150  # separability_test budget per state examined by verify_equivalence
DEFAULT_SAMPLES, DEFAULT_CHECK_RESTARTS = 100, 4  # verify_equivalence's samples and restarts
RECONSTRUCTION_TOL = 1e-9
VERDICT_CONSISTENT = "ConsistentWithTheorem"
VERDICT_INCONSISTENT = "InconsistentWithTheorem"


def _embed_two_qubit_density(alg_a: FdAlgebra, alg_b: FdAlgebra, rho4: np.ndarray) -> State:
    """Place a validated two-qubit density on the first 2x2 corners of matrix blocks.

    The result is a genuine state on tensor(alg_a, alg_b) supported on one
    joint block; restriction to the chosen corners reproduces ``rho4``.
    """
    ia, jb = _first_matrix_block(alg_a), _first_matrix_block(alg_b)
    product = tensor(alg_a, alg_b)
    idx, n, m = next((idx, n, m) for idx, i, j, n, m in joint_blocks(product) if (i, j) == (ia, jb))
    blk = np.zeros((n, m, n, m), dtype=complex)
    blk[:2, :2, :2, :2] = rho4.reshape(2, 2, 2, 2)
    return State._of_density(product, embed(product, idx, blk.reshape(n * m, n * m)))


def embedded_singlet(alg_a: FdAlgebra, alg_b: FdAlgebra) -> State:
    """singlet() carried on the first noncommutative block of each factor."""
    return _embed_two_qubit_density(alg_a, alg_b, singlet().blocks[0])


def embedded_werner(p: float, alg_a: FdAlgebra, alg_b: FdAlgebra) -> State:
    """werner(p), with its check on ``p``, carried like embedded_singlet."""
    return _embed_two_qubit_density(alg_a, alg_b, werner(p).blocks[0])


def _capped_product(a: FdAlgebra, b: FdAlgebra) -> FdAlgebra:
    dim = _require_algebra(a).total_dim * _require_algebra(b).total_dim
    if dim > PRODUCT_DIM_CAP:
        raise ResourceLimitError(f"product dimension {dim} exceeds the cap {PRODUCT_DIM_CAP}")
    return tensor(a, b)


def _sample_densities(product: FdAlgebra, count: int, rng) -> tuple[list[str], list[np.ndarray]]:
    """The kinds of ``count`` samples, alternating vector states and full-rank mixtures (both
    matter: decomposability fails differently for pure and mixed inputs), and per block of
    ``product`` their (count, d, d) densities, drawn by one states._random_densities call."""
    kinds = list(islice(cycle(("vector", "mixed")), count))
    return kinds, _random_densities(product, [kind == "vector" for kind in kinds], rng)


@dataclass(frozen=True)
class BellScan:
    """Result of sampling CHSH values over random states and settings."""

    bound_holds: bool
    max_abs_value: float
    samples: int
    settings: int

    def __bool__(self) -> bool:
        return self.bound_holds


def bell_one_side_classical(
    a: FdAlgebra, b: FdAlgebra, samples: int = 100, seed=None, settings: int = 50
) -> BellScan:
    """Scan for violations of the classical bound |beta| <= 2.

    The bound holds when no value exceeds 2 + SCAN_SLACK in modulus.  With a
    commutative factor no violation can exist, and the scan confirms the
    bound on every sample.  With two noncommutative factors the scan
    also evaluates the canonical settings on an embedded singlet, so it
    reports a violation regardless of what the random draws happen to find.

    The draws keep their historical order (all states, then one
    random_observables draw per setting), so seeded scans reproduce.  The states are
    drawn in one normal draw as per-block density stacks, with no State per sample;
    random_vector_state and random_mixed are that draw's one-row case, same bits.
    """
    samples = check_count(samples, "samples", minimum=0)
    settings = check_count(settings, "settings", minimum=0)
    product = _capped_product(a, b)
    rng = _as_rng(seed)
    _, rhos = _sample_densities(product, samples, rng)
    values = _random_settings_chsh(product, rhos, settings, rng)
    worst = float(np.max(np.abs(values), initial=0.0))
    if not (a.is_commutative or b.is_commutative):
        witness = chsh_value(embedded_singlet(a, b), canonical_qubit_observables(a, b))
        worst = max(worst, abs(witness))
    return BellScan(
        bound_holds=worst <= CHSH_CLASSICAL_BOUND + SCAN_SLACK,
        max_abs_value=worst,
        samples=samples,
        settings=settings,
    )


@dataclass(frozen=True)
class RaggioReport:
    """Evidence gathered for one pair of factors, plus the final verdict."""

    algebra_a: str
    algebra_b: str
    a_commutative: bool
    b_commutative: bool
    samples: int
    entangled_found: bool
    entangled_witness: str | None
    max_chsh: float
    max_chsh_witness: str
    decomposition_success_rate: float
    undetermined_count: int
    verdict: str
    seed: int
    notes: tuple[str, ...] = field(default=())

    @property
    def consistent(self) -> bool:
        return self.verdict == VERDICT_CONSISTENT


def verify_equivalence(
    a: FdAlgebra,
    b: FdAlgebra,
    samples: int = DEFAULT_SAMPLES,
    seed=None,
    restarts: int = DEFAULT_CHECK_RESTARTS,
) -> RaggioReport:
    """Check both directions of the equivalence on one pair of factors.

    Every examined state goes through separability_test, with budget
    SEARCH_BUDGET and its default tolerance, and chsh_optimize.
    With a commutative factor, the share of verdicts whose reconstruction
    error is within RECONSTRUCTION_TOL is recorded as the success rate; the
    verdict then demands no entanglement, success rate 1, and max CHSH
    within CHSH_SLACK of the classical bound.  With both factors
    noncommutative, an embedded singlet and Werner(0.5) join the sample
    set, and the verdict demands a witnessed entangled state together with
    a CHSH value above the bound.  Undetermined search outcomes are counted
    but never flip the verdict.  ``max_chsh`` is the largest optimized
    value, and ``max_chsh_witness`` names the first state examined whose
    value lies within CHSH_SLACK of it, so values that differ by rounding
    name the same state.  Sampling, search, and optimization are all
    driven by generators spawned from ``seed``.
    """
    samples = check_count(samples, "samples")
    product = _capped_product(a, b)
    if seed is None:
        seed = int(np.random.SeedSequence().entropy % 2**32)
    seed = check_count(seed, "seed", minimum=0)
    expected_all = a.is_commutative or b.is_commutative
    master = _as_rng(seed)

    labeled: list[tuple[str, State]] = []
    if not expected_all:
        labeled.append(("injected singlet", embedded_singlet(a, b)))
        labeled.append(("injected Werner(0.5)", embedded_werner(0.5, a, b)))
    kinds, rhos = _sample_densities(product, samples, master)
    for k, kind in enumerate(kinds):
        labeled.append((f"sample {k} ({kind})", State._of_density(product, [r[k] for r in rhos])))
    job_seeds = master.integers(0, 2**63 - 1, size=(len(labeled), 2))

    results = []
    for (label, state), (s_search, s_chsh) in zip(labeled, job_seeds):
        v = separability_test(state, SEARCH_BUDGET, seed=int(s_search))
        r = chsh_optimize(state, restarts=restarts, seed=int(s_chsh))
        results.append((label, v, r.value))

    entangled_witness = next((label for label, v, _ in results if v.decomposable is False), None)
    entangled_found = entangled_witness is not None
    undetermined = sum(1 for _, v, _ in results if v.decomposable is None)
    max_chsh = float(max(value for _, _, value in results))
    max_chsh_witness = next(label for label, _, value in results if value >= max_chsh - CHSH_SLACK)

    notes = [
        f"ensemble: alternating random vector states and Hilbert-Schmidt "
        f"mixtures, {samples} samples"
    ]
    if expected_all:
        success_rate = np.mean([v.error <= RECONSTRUCTION_TOL for _, v, _ in results])
        consistent = (
            not entangled_found
            and max_chsh <= CHSH_CLASSICAL_BOUND + CHSH_SLACK
            and success_rate == 1.0
        )
    else:
        # conditioning needs a commutative factor; vacuously successful here
        success_rate = 1.0
        notes.append("witnesses injected alongside the samples: singlet, Werner(0.5)")
        consistent = entangled_found and max_chsh > CHSH_CLASSICAL_BOUND + CHSH_SLACK
    if undetermined:
        notes.append(
            f"{undetermined} of {len(results)} examined states left undetermined "
            "(does not affect the verdict)"
        )
    if max_chsh > CHSH_QUANTUM_BOUND + CHSH_SLACK:
        notes.append(f"optimized value {max_chsh} exceeds 2*sqrt(2): numerical fault")

    return RaggioReport(
        algebra_a=a.describe(),
        algebra_b=b.describe(),
        a_commutative=a.is_commutative,
        b_commutative=b.is_commutative,
        samples=samples,
        entangled_found=entangled_found,
        entangled_witness=entangled_witness,
        max_chsh=max_chsh,
        max_chsh_witness=max_chsh_witness,
        decomposition_success_rate=float(success_rate),
        undetermined_count=undetermined,
        verdict=VERDICT_CONSISTENT if consistent else VERDICT_INCONSISTENT,
        seed=seed,
        notes=tuple(notes),
    )
