"""The benchmark's workloads: seeded inputs, one round of public calls, checks.

Every workload is a closed loop driven by one caller: the runner makes one
public call, waits for it to return, then makes the next.  A round is a
fixed list of jobs; round ``r`` of a run with seed ``s`` draws its inputs
from ``numpy.random.default_rng([s, r, <workload tag>])``, so the same seed
gives the same inputs and every round has the same shape of work.

* ``chsh_scan``: ``bell_one_side_classical`` on M3 (x) D4 and M2 (x) D2,
  where the classical bound must hold, and on M2 (x) M2, where the injected
  singlet must reach 2 sqrt(2); 12 scans per pair and round, each of 10
  states x 10 settings.  This is acceptance criterion 1's path (there at
  100 x 50, which is the same loop made longer); it runs no search and no
  see-saw, so a batched CHSH core (ROADMAP item 2) shows here and nowhere
  else.
* ``decompose``: ``separability_test`` on known product mixtures (M2 (x) M2,
  M2 (x) M3, M3 (x) M3 and the multi-block (M2+D1) (x) M2), PPT-negative
  states, ``PureVector`` inputs, states with a commutative factor, and a
  locally rotated Tiles UPB state.  The search is the tail and the early
  exits are the median, so a faster oracle (item 3) and a new pre-check
  (item 4) move different metrics.  This is criterion 8's round-trip path.
* ``raggio_check``: ``raggio-kit raggio-check --format json`` through
  ``cli.run`` on seven pairs, including the multi-block ones that drive the
  joint-block loops, with 12 samples each.  It is the user's end-to-end
  path and criterion 7's; the see-saw dominates it (items 2 and 5).  Its
  command seeds are fixed per pair (see ``raggio_check_round``).

A job's ``check`` judges the returned value independently of the value's own
bookkeeping, and its ``key`` is the part of the result that must repeat bit
for bit when the same job runs again (for example under tracing).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

import raggio_kit as rk
from raggio_kit import cli as rk_cli
from raggio_kit.serialize import load_schema

CLASSICAL_SLACK = 1e-9
TSIRELSON_SLACK = 1e-6
DECOMP_TOL = 1e-6
TILES_BUDGET = 50
SCAN_SAMPLES = 10
SCAN_SETTINGS = 10
SCANS_PER_PAIR = 12
CHECK_SAMPLES = 12

SCAN_PAIRS = (("M3", "D4"), ("M2", "D2"), ("M2", "M2"))
CHECK_PAIRS = (
    ("M2", "M2"),
    ("M2", "M3"),
    ("M3", "M3"),
    ("M2", "D3"),
    ("M3", "D4"),
    ("M2+D1", "M2"),
    ("M2+M1", "M2+D1"),
)


@dataclass(frozen=True)
class Outcome:
    """What the runner learns from one checked call."""

    ok: bool
    items: int
    verdicts: int
    settled: int
    key: object
    output_bytes: int = 0
    problem: str = ""


@dataclass(frozen=True)
class Job:
    """One public call: ``run`` makes it, ``check`` judges its return value."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    digest: bytes


def _digest(*parts) -> bytes:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str((part.shape, part.dtype.str)).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.digest()


def _state_digest(state) -> bytes:
    if isinstance(state, rk.PureVector):
        return _digest(state.algebra.block_dims, state.vector)
    return _digest(state.algebra.block_dims, *state.blocks)


def inputs_digest(jobs) -> str:
    h = hashlib.sha256()
    for job in jobs:
        h.update(job.label.encode())
        h.update(job.digest)
    return h.hexdigest()


def failure(problem: str) -> Outcome:
    """Outcome of a call whose output is missing or wrong; it completes no work."""
    return Outcome(False, 0, 0, 0, None, problem=problem)


# ---------------------------------------------------------------------------
# chsh_scan


def _scan_job(a_text: str, b_text: str, seed: int, samples: int, settings: int) -> Job:
    a, b = rk_cli.parse_algebra(a_text), rk_cli.parse_algebra(b_text)
    classical = a.is_commutative or b.is_commutative
    items = samples * settings + (0 if classical else 1)

    def run():
        return rk.bell_one_side_classical(a, b, samples=samples, seed=seed, settings=settings)

    def check(scan) -> Outcome:
        value = float(scan.max_abs_value)
        if classical:
            good = scan.bound_holds and value <= 2.0 + CLASSICAL_SLACK
            problem = "" if good else f"classical bound broken: {value!r}"
        else:
            good = (
                not scan.bound_holds
                and abs(value - rk.CHSH_QUANTUM_BOUND) <= TSIRELSON_SLACK
            )
            problem = "" if good else f"singlet value {value!r} is not 2 sqrt(2)"
        key = (value, bool(scan.bound_holds), scan.samples, scan.settings)
        return Outcome(good, items, 1, 1, key, problem=problem)

    return Job(f"scan/{a_text}x{b_text}", run, check, _digest(a_text, b_text, seed, samples, settings))


def chsh_scan_round(rng, samples: int = SCAN_SAMPLES, settings: int = SCAN_SETTINGS,
                    scans: int = SCANS_PER_PAIR) -> list[Job]:
    return [
        _scan_job(a, b, int(rng.integers(2**32)), samples, settings)
        for _ in range(scans)
        for a, b in SCAN_PAIRS
    ]


# ---------------------------------------------------------------------------
# decompose


def _product_mixture(alg_a, alg_b, terms: int, rng):
    product = rk.tensor(alg_a, alg_b)
    parts = [
        rk.product_state(rk.random_mixed(alg_a, rng), rk.random_mixed(alg_b, rng), product)
        for _ in range(terms)
    ]
    w = rng.random(terms) + 0.05
    return rk.mixture(w / w.sum(), parts)


def _min_partial_transpose_eig(state) -> float:
    """Independent partial-transpose test for a single-block state."""
    alg_a, alg_b = state.algebra.factors
    n, m = alg_a.total_dim, alg_b.total_dim
    rho = state.blocks[0].reshape(n, m, n, m).transpose(0, 3, 2, 1).reshape(n * m, n * m)
    return float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])


def _npt_mixture(product, rng):
    """A Hilbert-Schmidt random state drawn until its partial transpose is negative."""
    while True:
        state = rk.random_mixed(product, rng)
        if _min_partial_transpose_eig(state) < -1e-3:
            return state


def _local_unitary(n: int, rng) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def tiles_state(rng=None):
    """The Tiles UPB bound-entangled state on M3 (x) M3, optionally rotated.

    Built from the unextendible product basis of Bennett et al., PRL 82,
    5385 (1999): rho = (1 - sum_i |psi_i><psi_i|) / 4.  It has a positive
    partial transpose yet is entangled, so no decomposition exists.  With a
    generator, a random local unitary U (x) V is applied, which keeps both
    properties.
    """
    e = np.eye(3)
    s2, s3 = np.sqrt(2.0), 3.0
    vectors = [
        np.kron(e[0], (e[0] - e[1]) / s2),
        np.kron((e[0] - e[1]) / s2, e[2]),
        np.kron(e[2], (e[1] - e[2]) / s2),
        np.kron((e[1] - e[2]) / s2, e[0]),
        np.kron(e.sum(axis=0), e.sum(axis=0)) / s3,
    ]
    rho = np.eye(9, dtype=complex)
    for v in vectors:
        rho -= np.outer(v, v)
    rho /= 4.0
    if rng is not None:
        u = np.kron(_local_unitary(3, rng), _local_unitary(3, rng))
        rho = u @ rho @ u.conj().T
        rho = 0.5 * (rho + rho.conj().T)
    return rk.State(rk.tensor(rk.make_full(3), rk.make_full(3)), (rho,))


def _separable_problem(state, verdict) -> str:
    """Rebuild a Separable verdict's decomposition and measure it ourselves."""
    if verdict.decomposition is None:
        return "Separable verdict without a decomposition"
    target = state.state() if isinstance(state, rk.PureVector) else state
    err = rk.trace_distance(rk.reconstruct(verdict.decomposition, target.algebra), target)
    if not err <= DECOMP_TOL:
        return f"decomposition misses the state by {err:.3e}"
    return ""


def _decompose_job(label: str, state, expect: str, seed: int, budget: int = 400) -> Job:
    """``expect`` is 'separable', 'not_entangled', 'entangled' or 'not_separable'."""

    def run():
        return rk.separability_test(state, budget, tol=DECOMP_TOL, seed=seed)

    def check(verdict) -> Outcome:
        tag = verdict.tag
        problem = ""
        if tag == rk.SEPARABLE:
            problem = _separable_problem(state, verdict)
        if expect == "separable" and tag != rk.SEPARABLE:
            problem = f"expected Separable, got {tag}"
        elif expect == "not_entangled" and tag in (rk.ENTANGLED_PURE, rk.ENTANGLED_PPT):
            problem = f"known product mixture came back {tag}"
        elif expect == "entangled" and tag not in (rk.ENTANGLED_PURE, rk.ENTANGLED_PPT):
            problem = f"expected an entangled verdict, got {tag}"
        elif expect == "not_separable" and tag == rk.SEPARABLE:
            problem = "bound-entangled state came back Separable"
        settled = int(tag != rk.UNDETERMINED)
        key = (tag, verdict.error, verdict.negative_eigenvalue, verdict.schmidt_coefficients)
        return Outcome(not problem, 1, 1, settled, key, problem=problem)

    return Job(label, run, check, _digest(label, seed, budget) + _state_digest(state))


def decompose_round(rng) -> list[Job]:
    m2, m3 = rk.make_full(2), rk.make_full(3)
    m2d1 = rk.direct_sum(m2, rk.make_commutative(1))
    jobs: list[Job] = []

    def seed() -> int:
        return int(rng.integers(2**31))

    def add(label, state, expect, budget=400):
        jobs.append(_decompose_job(label, state, expect, seed(), budget))

    # The class sizes put each latency percentile inside one class: the 33
    # early exits at the transpose or Schmidt test (58% of the 57 calls)
    # hold the median, and the 6 searches on 2x3 (11%, below tiles and
    # 3x3) hold p90.  Two-term mixtures on 2x3 and 3x3 are left out: their
    # search time is heavy-tailed (0.2 s to 4 s on 2x3), which a run of
    # seconds cannot average; five terms on 3x3 vary least (0.8 s, CV 0.12).
    for k in range(8):
        add("product/2x2", _product_mixture(m2, m2, 1 + k % 5, rng), "not_entangled")
    for k in range(6):
        add("product/2x3", _product_mixture(m2, m3, 3 + k % 3, rng), "not_entangled")
    add("product/3x3", _product_mixture(m3, m3, 5, rng), "not_entangled")
    for k in range(3):
        add("multiblock/2x2", _product_mixture(m2d1, m2, 1 + k % 3, rng), "not_entangled")
    add("tiles/3x3", tiles_state(rng), "not_separable", budget=TILES_BUDGET)
    for product in (rk.tensor(m2, m2), rk.tensor(m2, m3), rk.tensor(m3, m3)):
        dims = "x".join(str(f.total_dim) for f in product.factors)
        a, b = product.factors
        for k in range(6):
            add(f"npt/{dims}", _npt_mixture(product, rng), "entangled")
        for k in range(4):
            add(f"pure/{dims}", rk.random_pure(product, rng), "entangled")
        vec = np.kron(rk.random_pure(a, rng).vector, rk.random_pure(b, rng).vector)
        add(f"pure/{dims}", rk.PureVector(product, vec), "separable")
        add("npt/2x2", rk.werner(float(rng.uniform(0.4, 0.95))), "entangled")
    add("commutative/3x1", rk.random_mixed(rk.tensor(m3, rk.make_commutative(4)), rng), "separable")
    add("commutative/1x2", rk.random_mixed(rk.tensor(rk.make_commutative(3), m2), rng), "separable")
    return jobs


# ---------------------------------------------------------------------------
# raggio_check


class ReportChecker:
    """Validates ``raggio-check --format json`` output against the shipped schema."""

    def __init__(self):
        import jsonschema

        schema = load_schema("report")
        cls = jsonschema.validators.validator_for(schema)
        cls.check_schema(schema)
        self.validator = cls(schema)


def _check_job(a_text: str, b_text: str, seed: int, samples: int, checker) -> Job:
    """``checker`` returns the :class:`ReportChecker`, loaded on first use."""
    argv = [
        "raggio-check", "--a", a_text, "--b", b_text,
        "--seed", str(seed), "--samples", str(samples), "--format", "json",
    ]
    a, b = rk_cli.parse_algebra(a_text), rk_cli.parse_algebra(b_text)
    injected = 0 if (a.is_commutative or b.is_commutative) else 2
    items = samples + injected

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = rk_cli.run(argv)
        return code, out.getvalue()

    def check(result) -> Outcome:
        code, text = result
        if code != 0:
            return failure(f"exit code {code}")
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            return failure(f"output is not JSON: {exc}")
        errors = [e.message for e in checker().validator.iter_errors(payload)]
        if errors:
            return failure(f"report violates its schema: {errors[0]}")
        if payload["verdict"] != "ConsistentWithTheorem" or payload["samples"] != samples:
            return failure(f"unexpected report {payload['verdict']}")
        settled = items - int(payload.get("undetermined_count", 0))
        return Outcome(True, items, items, settled, text, output_bytes=len(text.encode()))

    return Job(f"check/{a_text}x{b_text}", run, check, _digest(argv))


def raggio_check_round(checker, samples: int = CHECK_SAMPLES) -> list[Job]:
    """Every round runs each pair at the same fixed command seed.

    The command seeds do not depend on the run's seed: one examined state
    that passes the transpose test can cost seconds of search, so seeded
    draws made runs of this workload differ by a fifth in throughput.
    """
    return [_check_job(a, b, k, samples, checker) for k, (a, b) in enumerate(CHECK_PAIRS)]


# ---------------------------------------------------------------------------

WORKLOAD_TAGS = {"chsh_scan": 1, "decompose": 2, "raggio_check": 3}


class Workload:
    """Builds the jobs of each round of one named workload from the run's seed."""

    def __init__(self, name: str, seed: int):
        if name not in WORKLOAD_TAGS:
            raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOAD_TAGS)}")
        self.name = name
        self.seed = seed
        self._checker = None

    def report_checker(self) -> ReportChecker:
        """The schema validator; loaded outside the set-up time, before timing."""
        if self._checker is None:
            self._checker = ReportChecker()
        return self._checker

    def round(self, index: int) -> list[Job]:
        rng = np.random.default_rng([self.seed, index, WORKLOAD_TAGS[self.name]])
        if self.name == "chsh_scan":
            return chsh_scan_round(rng)
        if self.name == "decompose":
            return decompose_round(rng)
        return raggio_check_round(self.report_checker)
