"""Shared fixtures: bound-entangled states on M3 (x) M3.

Both states have a positive partial transpose yet are entangled, which the
realignment test certifies.
"""

import numpy as np
import pytest

from raggio_kit.algebra import element, make_full, tensor
from raggio_kit.states import State

QUTRIT_PAIR = tensor(make_full(3), make_full(3))
# the benchmark's raggio_check pairs (bench/workloads.py CHECK_PAIRS)
CHECK_PAIRS = (
    ("M2", "M2"),
    ("M2", "M3"),
    ("M3", "M3"),
    ("M2", "D3"),
    ("M3", "D4"),
    ("M2+D1", "M2"),
    ("M2+M1", "M2+D1"),
)


def maximally_mixed(algebra) -> State:
    """The tracial state 1 / n on ``algebra``, n its total dimension."""
    n = algebra.total_dim
    return State(algebra, [np.eye(d) / n for d in algebra.block_dims])


def blockwise(f, x, *rest):
    """The element of ``x``'s algebra whose blocks are ``f`` of the blocks of ``x`` and ``rest``."""
    return element(x.algebra, [f(*blks) for blks in zip(x.blocks, *(y.blocks for y in rest))])


def _local_unitary(n: int, rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def build_tiles_state(rng=None) -> State:
    """(1 - sum_i |psi_i><psi_i|) / 4 over the Tiles unextendible product basis
    (C. H. Bennett et al., PRL 82, 5385, 1999), under a random local unitary
    U (x) V when ``rng`` is given."""
    e = np.eye(3)
    vectors = [
        np.kron(e[0], e[0] - e[1]) / np.sqrt(2.0),
        np.kron(e[0] - e[1], e[2]) / np.sqrt(2.0),
        np.kron(e[2], e[1] - e[2]) / np.sqrt(2.0),
        np.kron(e[1] - e[2], e[0]) / np.sqrt(2.0),
        np.ones(9) / 3.0,
    ]
    rho = (np.eye(9) - sum(np.outer(v, v) for v in vectors)) / 4.0
    if rng is not None:
        u = np.kron(_local_unitary(3, rng), _local_unitary(3, rng))
        rho = u @ rho @ u.conj().T
    return State(QUTRIT_PAIR, (0.5 * (rho + rho.conj().T),))


def build_horodecki_state(a: float) -> State:
    """P. Horodecki's 3x3 family (PLA 232, 333, 1997), entangled for 0 < a < 1."""
    rho = np.diag([a, a, a, a, a, a, (1 + a) / 2, a, (1 + a) / 2])
    rho[np.ix_([0, 4, 8], [0, 4, 8])] += a * (1 - np.eye(3))
    rho[6, 8] = rho[8, 6] = np.sqrt(1 - a * a) / 2
    return State(QUTRIT_PAIR, (rho / (8 * a + 1),))


@pytest.fixture
def tiles_state():
    return build_tiles_state


@pytest.fixture
def horodecki_state():
    return build_horodecki_state
