"""The benchmark's own tests: seeded inputs repeat, tracing changes no result,
the wrappers cover every namespace, self times add up, and the output checks
reject wrong outputs.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import raggio_kit as rk  # noqa: E402
from raggio_kit import bell, harness  # noqa: E402
from tracing import NAMES, Tracer  # noqa: E402
import workloads as wls  # noqa: E402

CHEAP = ("product/2x2", "multiblock", "npt", "pure", "commutative")


def _small_jobs(seed: int):
    """A few quick jobs of every workload, built the way full rounds are."""
    rng = np.random.default_rng(seed)
    wl = wls.Workload("raggio_check", seed)
    jobs = wls.chsh_scan_round(rng, samples=3, settings=4, scans=1)
    jobs += [j for j in wls.decompose_round(rng) if j.label.startswith(CHEAP)]
    jobs += [wls._check_job(a, b, 5, 2, wl.report_checker) for a, b in (("M2", "M2"), ("M2+D1", "M2"))]
    return jobs


def _keys(jobs):
    outcomes = [job.check(job.run()) for job in jobs]
    assert all(o.ok for o in outcomes), [o.problem for o in outcomes if not o.ok]
    return [o.key for o in outcomes]


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


@pytest.mark.parametrize("name", sorted(wls.WORKLOAD_TAGS))
def test_same_seed_gives_identical_inputs(name):
    first = wls.inputs_digest(wls.Workload(name, 7).round(0))
    assert wls.inputs_digest(wls.Workload(name, 7).round(0)) == first
    # raggio_check runs its command at fixed seeds, whatever the run's seed
    fixed = name == "raggio_check"
    assert (wls.inputs_digest(wls.Workload(name, 7).round(1)) == first) == fixed
    assert (wls.inputs_digest(wls.Workload(name, 8).round(0)) == first) == fixed


def test_tracing_changes_no_result(tracer):
    jobs = _small_jobs(3)
    tracer.recording = False
    plain = _keys(jobs)
    tracer.recording = True
    traced = _keys(jobs)
    tracer.recording = False
    assert traced == plain
    assert tracer.counts["entanglement.verdicts.Separable"] > 0
    assert tracer.summary()["calls"]["bell.seesaw"] > 0


def test_tracing_keeps_seesaw_rounds_and_chsh_values(tracer):
    state = rk.random_mixed(rk.qubit_pair(), np.random.default_rng(4))
    tracer.recording = False
    plain = rk.chsh_optimize(state, restarts=4, seed=9)
    tracer.recording = True
    traced = rk.chsh_optimize(state, restarts=4, seed=9)
    tracer.recording = False
    assert (traced.value, traced.iterations) == (plain.value, plain.iterations)
    assert tracer.counts["bell.chsh_optimize.iterations"] == plain.iterations
    assert tracer.counts["bell.seesaw.rounds"] == plain.iterations


def test_wrappers_cover_every_namespace(tracer):
    assert tracer.stray_bindings() == []
    wrapper = tracer.wrappers["bell.chsh_value"]
    assert harness.chsh_value is wrapper and bell.chsh_value is wrapper and rk.chsh_value is wrapper
    assert bell.tensor_element is tracer.wrappers["algebra.tensor_element"]
    tracer.recording = True
    obs = rk.canonical_qubit_observables(rk.make_full(2), rk.make_full(2))
    harness.chsh_value(rk.singlet().state(), obs)
    bell.chsh_value(rk.singlet().state(), obs)
    tracer.recording = False
    calls = tracer.summary()["calls"]
    assert calls["bell.chsh_value"] == 2
    assert calls["algebra.tensor_element"] == 4
    tracer.uninstall()
    assert harness.chsh_value is tracer.originals["bell.chsh_value"]


def test_self_times_add_up_to_traced_wall_time(tracer):
    jobs = _small_jobs(5)
    tracer.recording = True
    t0 = time.perf_counter()
    for call_id, job in enumerate(jobs):
        tracer.begin_call(call_id, job.label)
        job.run()
    wall = time.perf_counter() - t0
    tracer.recording = False
    s = tracer.summary()
    runner = wall - s["root_s"]
    assert 0.0 <= runner < wall
    assert sum(s["self_s"].values()) + runner == pytest.approx(wall, rel=1e-9)
    assert s["min_self_s"] >= 0.0
    assert set(s["calls"]) == set(NAMES)
    first = s["spans"]
    only_first_call = tracer.span_arrays()["call"] == 0
    assert tracer.summary(selection=only_first_call)["spans"] < first


def test_checks_reject_wrong_outputs():
    scan = wls.chsh_scan_round(np.random.default_rng(1), samples=2, settings=2, scans=1)
    classical, quantum = scan[0], scan[2]
    bad = harness.BellScan(bound_holds=True, max_abs_value=2.1, samples=2, settings=2)
    assert not classical.check(bad).ok
    assert not quantum.check(bad).ok

    rng = np.random.default_rng(2)
    m2 = rk.make_full(2)
    mixture = wls._product_mixture(m2, m2, 2, rng)
    job = wls._decompose_job("product/2x2", mixture, "not_entangled", 1)
    verdict = job.run()
    assert job.check(verdict).ok
    other = rk.product_state(rk.random_mixed(m2, rng), rk.random_mixed(m2, rng))
    wrong = rk.separability_test(other, seed=1)
    assert not job.check(wrong).ok
    assert not job.check(rk.SeparabilityVerdict(rk.ENTANGLED_PPT)).ok
    tiles = wls._decompose_job("tiles/3x3", wls.tiles_state(), "not_separable", 1, budget=5)
    assert tiles.check(tiles.run()).ok
    m3 = rk.make_full(3)
    product = rk.product_state(rk.random_mixed(m3, rng), rk.random_mixed(m3, rng))
    assert not tiles.check(rk.separability_test(product, seed=1)).ok

    wl = wls.Workload("raggio_check", 1)
    check = wls._check_job("M2", "D2", 3, 2, wl.report_checker)
    code, text = check.run()
    assert check.check((code, text)).ok
    assert not check.check((3, text)).ok
    assert not check.check((0, text.replace('"schema": 1', '"schema": 2'))).ok
    assert not check.check((0, "not json")).ok


def test_tiles_state_is_ppt_and_never_separable():
    state = wls.tiles_state(np.random.default_rng(3))
    assert rk.ppt_check(state) > -1e-9
    assert rk.separability_test(state, budget=5, seed=1).tag == rk.UNDETERMINED


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "decompose", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
