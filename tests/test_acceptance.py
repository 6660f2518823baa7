"""Acceptance battery: the headline guarantees, each reported on one line.

Every test prints ``PASS:``/``FAIL:`` with the measured numbers so a run of
``pytest -v`` doubles as an acceptance report (the project pytest options
include ``-rA``, which echoes these lines for passing tests too).
"""

import time

import numpy as np
import pytest

from raggio_kit.algebra import (
    direct_sum,
    element,
    make_commutative,
    make_full,
    operator_norm,
    tensor,
    tensor_element,
    unit,
)
from raggio_kit.bell import (
    CHSH_QUANTUM_BOUND,
    chsh_optimize,
    horodecki_two_qubit,
    random_dichotomic,
    seesaw,
)
from raggio_kit.entanglement import (
    ENTANGLED_PPT,
    classical_decompose,
    is_entangled_pure,
    ppt_check,
    reconstruct,
    schmidt,
    separability_test,
)
from raggio_kit.harness import bell_one_side_classical, verify_equivalence
from raggio_kit.states import (
    PureVector,
    expectation,
    mixture,
    product_state,
    purity,
    random_mixed,
    random_pure,
    random_vector_state,
    restrict_to_diagonal,
    restrict_to_factor,
    singlet,
    trace_distance,
    werner,
)


def _report(ok: bool, line: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {line}")
    assert ok, line


def test_criterion_1_classical_side_chsh_bound():
    """Both-route classical bound: 100 states x 50 settings per pair stay
    within 2 + 1e-9 on every {M2, M3} x {D1..D4} product."""
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 3):
        for m in (1, 2, 3, 4):
            scan = bell_one_side_classical(
                make_full(n),
                make_commutative(m),
                samples=100,
                seed=1000 * n + m,
                settings=50,
            )
            worst = max(worst, scan.max_abs_value)
            if not scan.bound_holds:
                break
    elapsed = time.perf_counter() - t0
    ok = worst <= 2.0 + 1e-9 and elapsed < 30.0
    _report(
        ok,
        "commutative-side CHSH bound on {M2,M3}x{D1..D4}: "
        f"max |value| = {worst:.12f} <= 2+1e-9 over 8 pairs x 100 states x 50 settings "
        f"({elapsed:.1f}s < 30s)",
    )


def test_criterion_2_singlet_seesaw_reaches_tsirelson():
    """See-saw on the singlet reaches 2 sqrt(2) within 1e-6 and agrees with
    the closed-form two-qubit value within 1e-5, in under a second."""
    st = singlet().state()
    t0 = time.perf_counter()
    result = chsh_optimize(st, restarts=16, seed=2024)
    elapsed = time.perf_counter() - t0
    oracle = horodecki_two_qubit(st)
    ok = (
        abs(result.value - CHSH_QUANTUM_BOUND) <= 1e-6
        and abs(result.value - oracle) <= 1e-5
        and elapsed < 1.0
    )
    _report(
        ok,
        f"singlet see-saw: value = {result.value:.10f} "
        f"(|value - 2sqrt2| = {abs(result.value - CHSH_QUANTUM_BOUND):.2e} <= 1e-6, "
        f"|value - closed form| = {abs(result.value - oracle):.2e} <= 1e-5, "
        f"{elapsed:.2f}s < 1s)",
    )


def test_criterion_3_classical_decomposition_exact():
    """Conditioning on a commutative factor decomposes 500/500 sampled
    states with reconstruction error <= 1e-9."""
    rng = np.random.default_rng(33)
    products = (
        tensor(make_full(2), make_commutative(2)),
        tensor(make_full(3), make_commutative(3)),
    )
    t0 = time.perf_counter()
    worst = 0.0
    good = 0
    for k in range(500):
        prod = products[k % 2]
        st = random_mixed(prod, rng) if k % 3 else random_vector_state(prod, rng)
        dec = classical_decompose(st)
        err = trace_distance(reconstruct(dec, prod), st)
        worst = max(worst, err)
        good += err <= 1e-9
    elapsed = time.perf_counter() - t0
    ok = good == 500 and elapsed < 10.0
    _report(
        ok,
        f"classical decomposition: {good}/500 states on M2(x)D2 and M3(x)D3 "
        f"reconstructed within 1e-9 (worst error {worst:.2e}, {elapsed:.1f}s < 10s)",
    )


def test_criterion_4_pure_state_dichotomy():
    """Schmidt-rank flag agrees with the independently computed reduced
    purity (< 1 - 1e-9 iff entangled) on 500 two-qubit pure states."""
    rng = np.random.default_rng(44)
    pair = tensor(make_full(2), make_full(2))
    disagreements = 0
    entangled = 0
    worst_cert = 0.0
    for k in range(500):
        if k % 4 == 0:
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            psi = PureVector(pair, np.kron(a, b))
        else:
            psi = random_pure(pair, rng)
        verdict = is_entangled_pure(psi)
        reduced = purity(restrict_to_factor(psi.state(), "a"))
        disagreements += verdict.entangled != (reduced < 1.0 - 1e-9)
        worst_cert = max(worst_cert, abs(verdict.reduced_purity - reduced))
        entangled += verdict.entangled
    ok = disagreements == 0 and worst_cert <= 1e-9
    _report(
        ok,
        f"pure-state dichotomy on M2(x)M2: {disagreements} disagreements between "
        f"the Schmidt flag and reduced purity over 500 states ({entangled} "
        f"entangled, certificate vs partial trace within {worst_cert:.2e})",
    )


def test_criterion_5_born_rule_restriction():
    """Restricting a vector state to the diagonal subalgebra returns the
    diagonal of the density matrix within 1e-12 on 500 draws with n <= 8."""
    rng = np.random.default_rng(55)
    worst = 0.0
    for k in range(500):
        n = 1 + k % 8
        psi = random_pure(make_full(n), rng)
        p = restrict_to_diagonal(psi)
        diag = np.diagonal(psi.state().blocks[0]).real
        worst = max(
            worst,
            float(np.max(np.abs(p - diag))),
            abs(float(p.sum()) - 1.0),
        )
    ok = worst <= 1e-12
    _report(
        ok,
        f"squared-amplitude rule: worst deviation {worst:.2e} <= 1e-12 "
        "against the density diagonal over 500 vector states on C^n, n <= 8",
    )


def test_criterion_6_werner_gap_state():
    """Werner(1/2) is entangled by partial transposition (eigenvalue -1/8)
    yet its optimized CHSH value stays at the classical bound."""
    st = werner(0.5)
    verdict = separability_test(st, seed=66)
    neg = ppt_check(st)
    value = chsh_optimize(st, restarts=16, seed=66).value
    ok = (
        verdict.tag == ENTANGLED_PPT
        and abs(neg - (-0.125)) <= 1e-9
        and abs(value - 2.0) <= 1e-6
    )
    _report(
        ok,
        f"Werner(1/2) gap: tag = {verdict.tag}, transpose eigenvalue = {neg:.10f} "
        f"(=-0.125 +- 1e-9), optimized CHSH = {value:.8f} (=2 +- 1e-6)",
    )


def test_criterion_7_equivalence_harness_all_pairs():
    """All 49 pairs over {M1, M2, M3, D1, D2, D3, D4} come back consistent
    with the decomposability equivalence."""
    algs = [make_full(n) for n in (1, 2, 3)] + [make_commutative(m) for m in (1, 2, 3, 4)]
    t0 = time.perf_counter()
    failures = []
    for a in algs:
        for b in algs:
            rep = verify_equivalence(a, b, samples=12, seed=777, restarts=4)
            if rep.verdict != "ConsistentWithTheorem":
                failures.append((rep.algebra_a, rep.algebra_b, rep.verdict, rep.notes))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300.0
    _report(
        ok,
        f"equivalence harness: 49/49 pairs ConsistentWithTheorem "
        f"({elapsed:.1f}s < 300s)" if ok else f"equivalence harness failures: {failures}",
    )


def _random_element(alg, rng):
    blocks = [
        rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for d in alg.block_dims
    ]
    return element(alg, blocks)


def _random_product_mixture(alg_a, alg_b, terms, rng):
    parts = [
        product_state(random_mixed(alg_a, rng), random_mixed(alg_b, rng))
        for _ in range(terms)
    ]
    w = rng.random(terms)
    return mixture(w / w.sum(), parts)


def test_criterion_8_structural_property_battery():
    """The four named property suites at their module tolerances, plus the
    structural identities the rest of the battery leans on."""
    rng = np.random.default_rng(88)
    checks = []

    # C*-identity on 500 random elements
    alg = direct_sum(direct_sum(make_full(3), make_commutative(2)), make_full(2))
    worst_cstar = 0.0
    for _ in range(500):
        x = _random_element(alg, rng)
        nx = operator_norm(x)
        xstar_x = element(alg, [b.conj().T @ b for b in x.blocks])
        gap = abs(operator_norm(xstar_x) - nx**2)
        worst_cstar = max(worst_cstar, gap / (1.0 + nx**2))
    checks.append(worst_cstar <= 1e-9)

    # see-saw histories never decrease (within 1e-12) and respect 2 sqrt(2)
    pair = tensor(make_full(2), make_full(2))
    for _ in range(10):
        st = random_mixed(pair, rng)
        _, history, _ = seesaw(st, random_dichotomic(make_full(2), rng),
                               random_dichotomic(make_full(2), rng))
        checks.append(bool(np.all(np.diff(history) >= -1e-12)))
        checks.append(history[-1] <= CHSH_QUANTUM_BOUND + 1e-6)

    # decomposition round-trip: rebuilding a known product mixture never
    # comes back entangled (500 decompositions across three shapes)
    rounds = (
        (make_full(2), make_full(2), 400),
        (make_full(2), make_full(3), 50),
        (make_full(2), make_commutative(2), 50),
    )
    bad_roundtrip = 0
    for alg_a, alg_b, count in rounds:
        for k in range(count):
            st = _random_product_mixture(alg_a, alg_b, 1 + k % 5, rng)
            v = separability_test(st, seed=int(rng.integers(2**31)))
            bad_roundtrip += v.decomposable is False
    checks.append(bad_roundtrip == 0)

    # Tsirelson sanity rail on optimized values
    for _ in range(5):
        st = random_vector_state(pair, rng)
        val = chsh_optimize(st, restarts=2, seed=int(rng.integers(2**31))).value
        checks.append(val <= CHSH_QUANTUM_BOUND + 1e-6)

    # restriction is compatible with tensoring the unit
    alg_a, alg_b = make_full(2), direct_sum(make_full(2), make_commutative(1))
    prod = tensor(alg_a, alg_b)
    for _ in range(10):
        st = random_mixed(prod, rng)
        x = random_dichotomic(alg_a, rng)
        lhs = expectation(restrict_to_factor(st, "a"), x)
        rhs = expectation(st, tensor_element(x, unit(alg_b)))
        checks.append(abs(lhs - rhs) <= 1e-12)

    # the involution and the state positivity: omega(x* x) >= 0
    for _ in range(10):
        st = random_mixed(alg_b, rng)
        x = random_dichotomic(alg_b, rng)
        xstar_x = element(alg_b, [b.conj().T @ b for b in x.blocks])
        checks.append(expectation(st, xstar_x).real >= -1e-12)

    # Schmidt coefficients are a unit vector for any wavefunction
    for _ in range(10):
        psi = random_pure(pair, rng)
        checks.append(abs(np.sum(schmidt(psi) ** 2) - 1.0) <= 1e-12)

    ok = all(checks)
    _report(
        ok,
        f"structural property battery: {sum(checks)}/{len(checks)} checks passed "
        f"(C*-identity on 500 elements, rel. defect {worst_cstar:.2e} <= 1e-9; "
        "see-saw monotone within 1e-12; 500 decomposition round-trips never "
        "entangled; Tsirelson rail; restriction and positivity identities)",
    )
