"""What bench/ relies on in the package.

The benchmark's tracer wraps the functions named in ``bench/tracing.py``'s
``TARGETS`` and counts see-saw rounds from the ``bell.seesaw`` calls that
``chsh_optimize`` makes, one per restart.  The bench tests check this
under ``python -m pytest bench``; these tests keep it checked in tier-1.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from raggio_kit import bell, chsh_optimize, qubit_pair, random_mixed

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, name in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(f"raggio_kit.{module}"), name, None)), (
            f"raggio_kit.{module}.{name}"
        )


def test_chsh_optimize_calls_seesaw_once_per_restart(monkeypatch):
    rounds, finals, evaluations = [], [], []
    seesaw, chsh_value = bell.seesaw, bell.chsh_value

    def counting_seesaw(*args, **kwargs):
        result = seesaw(*args, **kwargs)
        rounds.append(len(result[1]) // 2)
        finals.append(result[1][-1])
        return result

    def counting_chsh_value(*args, **kwargs):
        evaluations.append(args)
        return chsh_value(*args, **kwargs)

    monkeypatch.setattr(bell, "seesaw", counting_seesaw)
    monkeypatch.setattr(bell, "chsh_value", counting_chsh_value)
    state = random_mixed(qubit_pair(), np.random.default_rng(4))
    result = chsh_optimize(state, restarts=4, seed=9)
    assert len(rounds) == 4
    assert sum(rounds) == result.iterations
    # the value reported is the winning restart's last see-saw value, with no
    # re-evaluation of any restart's observables
    assert result.value == max(finals)
    assert not evaluations
    assert abs(result.value - chsh_value(state, result.observables)) <= 1e-12
