import dataclasses
import hashlib

import numpy as np
import pytest

from conftest import CHECK_PAIRS, blockwise
from raggio_kit import bell, harness
from raggio_kit.algebra import (
    _embed,
    _first_matrix_block,
    _herm,
    direct_sum,
    element,
    make_commutative,
    make_full,
    tensor,
    tensor_element,
)
from raggio_kit.bell import (
    CANONICAL_QUBIT_SETTINGS,
    CHSH_QUANTUM_BOUND,
    SCAN_CHUNK_SETTINGS,
    SIGN_EIGENVALUE_TOL,
    ChshObservables,
    _check_observable,
    _random_settings_chsh,
    canonical_qubit_observables,
    chsh_optimize,
    random_observables,
)
from raggio_kit.cli import parse_algebra
from raggio_kit.entanglement import UNDETERMINED, SeparabilityVerdict, separability_test
from raggio_kit.errors import (
    InvalidArgumentError,
    ResourceLimitError,
    UnsupportedShapeError,
)
from raggio_kit.harness import (
    VERDICT_CONSISTENT,
    _sample_densities,
    bell_one_side_classical,
    embedded_singlet,
    embedded_werner,
    verify_equivalence,
)
from raggio_kit.states import State, expectation, purity, restrict_to_factor, singlet, werner

M2, M3 = make_full(2), make_full(3)
D2, D3 = make_commutative(2), make_commutative(3)


def test_embedded_singlet_plain_qubits():
    st = embedded_singlet(M2, M2)
    assert purity(st) == pytest.approx(1.0, abs=1e-12)
    assert separability_test(st, seed=0).decomposable is False
    val = chsh_optimize(st, restarts=8, seed=0).value
    assert val == pytest.approx(CHSH_QUANTUM_BOUND, abs=1e-6)


def test_embedded_singlet_bigger_blocks():
    alg_a = direct_sum(make_commutative(1), M3)  # noncommutative block is second
    alg_b = M2
    st = embedded_singlet(alg_a, alg_b)
    assert separability_test(st, seed=1).decomposable is False
    val = chsh_optimize(st, restarts=8, seed=1).value
    assert val == pytest.approx(CHSH_QUANTUM_BOUND, abs=1e-6)
    # restrictions are valid states of the factors
    assert np.trace(restrict_to_factor(st, "a").matrix).real == pytest.approx(1.0)


def test_embedded_singlet_needs_matrix_blocks():
    with pytest.raises(UnsupportedShapeError):
        embedded_singlet(D2, M2)


def test_embedded_werner_transpose_eigenvalue():
    from raggio_kit.entanglement import ppt_check

    st = embedded_werner(0.5, M3, M2)
    assert ppt_check(st) == pytest.approx(-0.125, abs=1e-9)
    assert separability_test(st, seed=0).decomposable is False


def test_embedded_witnesses_on_two_qubits_are_the_plain_ones():
    # both witnesses are built from states.singlet and states.werner, so on
    # M2 (x) M2 the embedding is the identity, bit for bit
    pairs = [(embedded_singlet(M2, M2), singlet().state())]
    pairs += [(embedded_werner(p, M2, M2), werner(p)) for p in (0.0, 0.2, 0.5, 1.0)]
    for got, want in pairs:
        assert got.algebra == want.algebra
        assert all(np.array_equal(x, y) for x, y in zip(got.blocks, want.blocks))


def test_embedded_werner_checks_its_parameter():
    # used to return a non-positive "state" for p = 1.5, whose CHSH value
    # passed 2 sqrt(2), and to hand NaN to LAPACK
    for bad in (1.5, float("nan"), True, "x"):
        for a, b in ((M2, M2), (M2, M3)):
            with pytest.raises(InvalidArgumentError):
                embedded_werner(bad, a, b)


def test_bell_scan_classical_side():
    scan = bell_one_side_classical(M2, D2, samples=15, seed=3, settings=15)
    assert bool(scan)
    assert scan.bound_holds
    assert scan.max_abs_value <= 2.0 + 1e-9


def test_bell_scan_flags_two_noncommutative_sides():
    # random draws might miss the violation; the injected singlet cannot
    scan = bell_one_side_classical(M2, M2, samples=4, seed=4, settings=4)
    assert not bool(scan)
    assert scan.max_abs_value >= CHSH_QUANTUM_BOUND - 1e-9


def _loop_scan_values(a, b, samples, seed, settings):
    """The scan as a plain loop: one random_observables draw per setting,
    evaluated through tensor_element and expectation."""
    product = tensor(a, b)
    rng = np.random.default_rng(seed)
    values = []
    _, rhos = _sample_densities(product, samples, rng)
    for k in range(samples):
        state = State._of_density(product, [rho[k] for rho in rhos])
        for _ in range(settings):
            obs = random_observables(a, b, rng)
            plus, minus = (blockwise(f, obs.b1, obs.b2) for f in (np.add, np.subtract))
            op = blockwise(np.add, tensor_element(obs.a1, plus), tensor_element(obs.a2, minus))
            values.append(expectation(state, op).real)
    return np.reshape(values, (samples, settings))


@pytest.mark.parametrize(
    "a, b",
    [
        (M3, make_commutative(4)),
        (M2, D2),
        (M2, M2),
        (direct_sum(M2, make_commutative(1)), M2),
        (direct_sum(M2, make_full(1)), direct_sum(M2, make_commutative(1))),
    ],
)
def test_bell_scan_matches_loop_reference(a, b):
    # same draws in the same order; only the summation order differs
    product = tensor(a, b)
    for seed in (0, 17):
        reference = _loop_scan_values(a, b, 6, seed, 7)
        rng = np.random.default_rng(seed)
        _, rhos = _sample_densities(product, 6, rng)
        values = _random_settings_chsh(product, rhos, 7, rng)
        np.testing.assert_allclose(values, reference, rtol=0.0, atol=1e-12)
        expected = np.abs(reference).max()
        if not (a.is_commutative or b.is_commutative):
            expected = max(expected, CHSH_QUANTUM_BOUND)
        scan = bell_one_side_classical(a, b, samples=6, seed=seed, settings=7)
        assert abs(scan.max_abs_value - expected) <= 1e-12


def _count_chunks(monkeypatch):
    calls = []
    evaluate = bell._chsh_values

    def counted(product, rhos, a, b):
        calls.append(len(rhos[0]))
        return evaluate(product, rhos, a, b)

    monkeypatch.setattr(bell, "_chsh_values", counted)
    return calls


def test_bell_scan_chunks_match_loop_reference(monkeypatch):
    # one state per chunk: three chunks, drawing the same stream as the loop
    settings = SCAN_CHUNK_SETTINGS // 2 + 1
    reference = _loop_scan_values(M2, D2, 3, 5, settings)
    calls = _count_chunks(monkeypatch)
    rng = np.random.default_rng(5)
    product = tensor(M2, D2)
    _, rhos = _sample_densities(product, 3, rng)
    values = _random_settings_chsh(product, rhos, settings, rng)
    assert calls == [1, 1, 1]
    np.testing.assert_allclose(values, reference, rtol=0.0, atol=1e-12)
    scan = bell_one_side_classical(M2, D2, samples=3, seed=5, settings=settings)
    assert abs(scan.max_abs_value - np.abs(reference).max()) <= 1e-12


class _RecordingRng:
    """Passes standard_normal draws through to a generator and records their sizes."""

    def __init__(self, rng):
        self.rng, self.sizes = rng, []

    def standard_normal(self, size):
        self.sizes.append(size)
        return self.rng.standard_normal(size)


def test_bell_scan_splits_one_states_settings_into_chunks(monkeypatch):
    # more settings than a chunk holds: each state's settings are drawn in
    # runs of at most SCAN_CHUNK_SETTINGS, in the same stream as the loop
    monkeypatch.setattr(bell, "SCAN_CHUNK_SETTINGS", 4)
    reference = _loop_scan_values(M2, M2, 3, 8, 10)
    rng = np.random.default_rng(8)
    product = tensor(M2, M2)
    _, rhos = _sample_densities(product, 3, rng)
    recorder = _RecordingRng(rng)
    values = _random_settings_chsh(product, rhos, 10, recorder)
    assert [size[:2] for size in recorder.sizes] == [(1, 4), (1, 4), (1, 2)] * 3
    np.testing.assert_allclose(values, reference, rtol=0.0, atol=1e-12)


def test_bell_scan_small_sizes_are_one_chunk(monkeypatch):
    calls = _count_chunks(monkeypatch)
    bell_one_side_classical(M3, make_commutative(4), samples=10, seed=0, settings=10)
    assert calls == [10]


SCAN_PIN_PAIRS = [
    (M3, make_commutative(4)),
    (M2, D2),
    (M2, M2),
    (direct_sum(M2, make_commutative(1)), M2),
    (direct_sum(M2, make_full(1)), direct_sum(M2, make_commutative(1))),
]


def _eigh_sign(h):
    """The reference sign step: every matrix of the stack signed through np.linalg.eigh."""
    w, v = np.linalg.eigh(_herm(h))
    s = np.where(np.abs(w) <= SIGN_EIGENVALUE_TOL, 1.0, np.sign(w))
    return (v * s[..., None, :]) @ v.conj().swapaxes(-1, -2), w


def test_seeded_scans_agree_with_eigh_signs(monkeypatch):
    # 2x2 scan stacks are signed in closed form, which rounds unlike eigh: on the pinned
    # seeds, every value stays within 1e-13 of the eigh reference and every verdict holds
    for i, (a, b) in enumerate(SCAN_PIN_PAIRS):
        product = tensor(a, b)
        for samples in (1, 5, 10):
            seed, runs = 31 * i + samples, []
            for sign in (bell._sign, _eigh_sign):
                monkeypatch.setattr(bell, "_sign", sign)
                scan = bell_one_side_classical(a, b, samples=samples, seed=seed, settings=10)
                rng = np.random.default_rng(seed)
                _, rhos = _sample_densities(product, samples, rng)
                runs.append((scan.bound_holds, _random_settings_chsh(product, rhos, 10, rng)))
            assert runs[0][0] == runs[1][0]
            np.testing.assert_allclose(runs[0][1], runs[1][1], rtol=0.0, atol=1e-13)


def _element_route(a, b):
    """The canonical settings built as four elements and checked by ChshObservables."""
    algs = (a, a, b, b)
    xs = (_embed(alg, _first_matrix_block(alg), x) for alg, x in zip(algs, CANONICAL_QUBIT_SETTINGS))
    return ChshObservables(*(element(alg, x) for alg, x in zip(algs, xs)))


@pytest.mark.parametrize(
    "a, b", SCAN_PIN_PAIRS + [tuple(map(parse_algebra, pair)) for pair in CHECK_PAIRS]
)
def test_canonical_settings_are_the_checked_element_route(a, b):
    # canonical_qubit_observables builds its stacks unchecked; they must pass the
    # observable check and be the bits the element route builds
    if a.is_commutative or b.is_commutative:
        for build in (canonical_qubit_observables, _element_route):
            with pytest.raises(UnsupportedShapeError):
                build(a, b)
        return
    obs, ref = canonical_qubit_observables(a, b), _element_route(a, b)
    _check_observable(obs.a, "(a1, a2)")
    _check_observable(obs.b, "(b1, b2)")
    assert (obs.alg_a, obs.alg_b) == (ref.alg_a, ref.alg_b)
    assert len(obs.a) == len(ref.a) and len(obs.b) == len(ref.b)
    for x, y in zip(obs.a + obs.b, ref.a + ref.b):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        assert not x.flags.writeable


def test_seeded_scan_values_are_pinned_bit_for_bit():
    # the scan's results and its (P, Q) value arrays, seeded, on every pair shape of
    # the loop reference; the digest was taken when 2x2 stacks of 10 or more matrices
    # were first signed in closed form (test_seeded_scans_agree_with_eigh_signs)
    h = hashlib.sha256()
    for i, (a, b) in enumerate(SCAN_PIN_PAIRS):
        product = tensor(a, b)
        for samples in (0, 1, 5, 10):
            seed = 31 * i + samples
            scan = bell_one_side_classical(a, b, samples=samples, seed=seed, settings=10)
            fields = (scan.bound_holds, scan.max_abs_value.hex(), scan.samples, scan.settings)
            h.update(repr(fields).encode())
            rng = np.random.default_rng(seed)
            _, rhos = _sample_densities(product, samples, rng)
            values = _random_settings_chsh(product, rhos, 10, rng)
            h.update(repr(values.shape).encode() + values.tobytes())
    assert h.hexdigest() == "f8a3a0235f0ef5c7a357d21594dd4ac71c8c9e99969fb3022415737b416861ef"


def test_bell_scan_argument_checks():
    with pytest.raises(InvalidArgumentError):
        bell_one_side_classical(M2, D2, samples=2, seed=-1, settings=2)
    with pytest.raises(InvalidArgumentError):
        bell_one_side_classical(M2, D2, samples=-1, seed=0, settings=2)
    with pytest.raises(InvalidArgumentError):
        bell_one_side_classical(M2, D2, samples=2, seed=0, settings=-1)
    for bad in (2.5, True):
        with pytest.raises(InvalidArgumentError, match="samples"):
            bell_one_side_classical(M2, D2, samples=bad, seed=0, settings=2)
        with pytest.raises(InvalidArgumentError, match="settings"):
            bell_one_side_classical(M2, D2, samples=2, seed=0, settings=bad)
    empty = bell_one_side_classical(M2, D2, samples=0, seed=0, settings=3)
    assert empty.bound_holds and empty.max_abs_value == 0.0


def test_bell_scan_dimension_cap():
    with pytest.raises(ResourceLimitError):
        bell_one_side_classical(make_full(9), make_full(8), samples=1, seed=0, settings=1)


def test_verify_commutative_pair():
    rep = verify_equivalence(M2, D3, samples=8, seed=10)
    assert rep.b_commutative and not rep.a_commutative
    assert rep.verdict == VERDICT_CONSISTENT
    assert rep.consistent
    assert not rep.entangled_found
    assert rep.entangled_witness is None
    assert rep.undetermined_count == 0
    assert rep.decomposition_success_rate == 1.0
    assert rep.max_chsh <= 2.0 + 1e-6
    assert rep.samples == 8
    assert rep.seed == 10


def test_verify_noncommutative_pair():
    rep = verify_equivalence(M2, M2, samples=8, seed=11)
    assert not (rep.a_commutative or rep.b_commutative)
    assert rep.verdict == VERDICT_CONSISTENT
    assert rep.entangled_found
    assert rep.entangled_witness == "injected singlet"
    assert rep.max_chsh == pytest.approx(CHSH_QUANTUM_BOUND, abs=1e-6)
    assert rep.max_chsh_witness == "injected singlet"


def test_verify_sum_algebra_factors():
    rep = verify_equivalence(direct_sum(M2, make_commutative(1)), M2, samples=6, seed=12)
    assert rep.verdict == VERDICT_CONSISTENT
    assert not (rep.a_commutative or rep.b_commutative)
    rep2 = verify_equivalence(direct_sum(D2, D3), M3, samples=6, seed=13)
    assert rep2.a_commutative and not rep2.b_commutative
    assert rep2.verdict == VERDICT_CONSISTENT


def test_verify_reports_are_deterministic():
    r1 = verify_equivalence(M2, M3, samples=6, seed=21)
    r2 = verify_equivalence(M2, M3, samples=6, seed=21)
    assert r1 == r2


def test_verify_dimension_cap():
    with pytest.raises(ResourceLimitError):
        verify_equivalence(make_full(9), make_full(8), samples=1, seed=0)
    # 8 x 8 = 64 sits exactly at the cap and is admitted
    rep = verify_equivalence(make_full(8), make_commutative(8), samples=2, seed=0)
    assert rep.verdict == VERDICT_CONSISTENT


def test_verify_refuses_an_over_cap_product_before_building_it(monkeypatch):
    def refuse(a, b):
        raise AssertionError("tensor called")

    monkeypatch.setattr(harness, "tensor", refuse)
    big = make_commutative(20000)
    with pytest.raises(ResourceLimitError, match="^product dimension 400000000 exceeds the cap 64$"):
        verify_equivalence(big, big, samples=1, seed=0)
    with pytest.raises(ResourceLimitError):
        bell_one_side_classical(big, big, samples=1, seed=0, settings=1)


def test_sample_states_label_each_draw_with_its_kind():
    kinds, (rho,) = _sample_densities(tensor(M2, M2), 5, np.random.default_rng(3))
    assert kinds == ["vector", "mixed", "vector", "mixed", "vector"]
    # a vector state is pure, a full-rank mixture is not
    purities = np.trace(rho @ rho, axis1=-2, axis2=-1).real
    assert [p > 1.0 - 1e-12 for p in purities] == [True, False, True, False, True]


def test_verify_argument_checks_and_seed_fallback():
    with pytest.raises(InvalidArgumentError):
        verify_equivalence(M2, D2, samples=0, seed=0)
    with pytest.raises(InvalidArgumentError):
        verify_equivalence(M2, D2, samples=2, seed=-1)
    # 2.5 used to end in a TypeError from range, and True ran one sample
    for samples in (2.5, True):
        with pytest.raises(InvalidArgumentError, match="samples"):
            verify_equivalence(M2, D2, samples=samples, seed=0)
    with pytest.raises(InvalidArgumentError, match="seed"):  # used to run and report seed 1
        verify_equivalence(M2, D2, samples=2, seed=1.5)
    rep = verify_equivalence(make_full(1), D2, samples=2)
    assert isinstance(rep.seed, int)
    assert rep.verdict == VERDICT_CONSISTENT


def test_report_witness_labels():
    rep = verify_equivalence(M3, M3, samples=7, seed=23)
    assert rep.samples == 7
    assert rep.max_chsh_witness
    assert rep.entangled_witness is not None
    assert rep.verdict == VERDICT_CONSISTENT


def test_verify_notes_undetermined_states_and_values_above_tsirelson(monkeypatch):
    # neither outcome occurs on real inputs, so both are stubbed: every sample
    # after the two injected witnesses ends Undetermined, and the first CHSH
    # value lies above 2 sqrt 2; each is noted, and neither changes the verdict
    real = verify_equivalence(M2, M2, samples=3, seed=5)
    calls = []

    def fake_separability(state, *args, **kwargs):
        calls.append(state)
        if len(calls) <= 2:
            return separability_test(state, *args, **kwargs)
        return SeparabilityVerdict(UNDETERMINED, error=1e-3)

    def fake_chsh(state, *args, **kwargs):
        r = chsh_optimize(state, *args, **kwargs)
        return dataclasses.replace(r, value=3.0) if len(calls) == 1 else r

    monkeypatch.setattr(harness, "separability_test", fake_separability)
    monkeypatch.setattr(harness, "chsh_optimize", fake_chsh)
    rep = verify_equivalence(M2, M2, samples=3, seed=5)
    assert rep.undetermined_count == 3
    assert "3 of 5 examined states left undetermined (does not affect the verdict)" in rep.notes
    assert rep.max_chsh == 3.0
    assert "optimized value 3.0 exceeds 2*sqrt(2): numerical fault" in rep.notes
    assert rep.verdict == real.verdict == VERDICT_CONSISTENT
    assert real.undetermined_count == 0


@pytest.mark.parametrize(
    "values, witness",
    [
        ((2.0, 2.0 + 4.4e-16, 2.0 - 2.2e-16, 2.0 + 8.9e-16), "sample 0 (vector)"),
        ((2.0, 2.0, 2.0 + 2e-6, 2.0), "sample 2 (vector)"),
    ],
    ids=["ulps-apart", "above-the-slack"],
)
def test_max_chsh_witness_is_the_first_state_within_the_slack(monkeypatch, values, witness):
    # on M3 (x) D4 at seed 4 every value lies within 1e-15 of 2, and rounding used
    # to decide which sample was named; values within CHSH_SLACK of the maximum now
    # tie, and the first state examined wins, while max_chsh stays the maximum
    stubbed = iter(values)

    def fake_chsh(state, *args, **kwargs):
        return dataclasses.replace(chsh_optimize(state, *args, **kwargs), value=next(stubbed))

    monkeypatch.setattr(harness, "chsh_optimize", fake_chsh)
    rep = verify_equivalence(M2, D2, samples=len(values), seed=5)
    assert rep.max_chsh == max(values)
    assert rep.max_chsh_witness == witness
