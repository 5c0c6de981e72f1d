"""Shared fixtures and builders for the test-suite.

Most core tests phrase configurations the way the paper's figures do: a
single service (``d = 1``), each device given as a ``(QoS at k-1, QoS at
k)`` pair.  The helpers here build :class:`repro.Transition` objects from
that shape and provide canonical paper scenarios.
"""

from __future__ import annotations

import glob
import random
from typing import Iterable, List, Optional, Sequence, Tuple

import pytest

from repro.core.transition import Transition


@pytest.fixture
def shm_leak_guard():
    """Fail the test if it leaves a POSIX shared-memory segment behind.

    Snapshots the ``psm_*`` segments (the default names of
    :class:`multiprocessing.shared_memory.SharedMemory`) before the test
    and reports every new one still linked after it.  Modules whose code
    owns segments opt in with ``pytestmark``.
    """
    before = set(glob.glob("/dev/shm/psm_*"))
    yield
    leaked = sorted(set(glob.glob("/dev/shm/psm_*")) - before)
    assert not leaked, f"shared-memory segments left behind: {leaked}"


def make_transition_1d(
    pairs: Sequence[Tuple[float, float]],
    *,
    r: float,
    tau: int,
    flagged: Optional[Iterable[int]] = None,
) -> Transition:
    """Build a one-service transition from (prev, cur) pairs."""
    return Transition.from_trajectories_1d(pairs, flagged, r=r, tau=tau)


def random_clustered_pairs(
    rng: random.Random, n: int, r: float, *, spread: float = 2.2
) -> List[Tuple[float, float]]:
    """Random 1-D configuration biased toward overlapping motions.

    With probability 0.6 a new device lands within ``spread * r`` of an
    existing one (in the combined space), which is what produces chained /
    overlapping maximal motions — the interesting regime for the
    characterization theorems.
    """
    pts: List[Tuple[float, float]] = []
    for _ in range(n):
        if pts and rng.random() < 0.6:
            bx, by = pts[rng.randrange(len(pts))]
            pts.append(
                (
                    min(1.0, max(0.0, bx + rng.uniform(-spread * r, spread * r))),
                    min(1.0, max(0.0, by + rng.uniform(-spread * r, spread * r))),
                )
            )
        else:
            pts.append((rng.random(), rng.random()))
    return pts


# ----------------------------------------------------------------------
# Canonical paper configurations (all zero-based device ids)
# ----------------------------------------------------------------------

FIGURE3_R = 0.05
FIGURE3_TAU = 3
# Five devices on a line in the combined space; maximal motions are
# {0,1,2,3} and {1,2,3,4}: the paper's ACP-impossibility witness.
FIGURE3_PAIRS: List[Tuple[float, float]] = [
    (0.30, 0.30),
    (0.32, 0.32),
    (0.35, 0.35),
    (0.38, 0.38),
    (0.42, 0.42),
]

FIGURE5_R = 0.05
FIGURE5_TAU = 3


def figure5_pairs() -> List[Tuple[float, float]]:
    """Eight devices in four coincident pairs on a diamond of side 1.5r.

    Adjacent cluster pairs are within ``2r`` (uniform norm), opposite pairs
    are ``3r`` apart, so the maximal motions are the four 4-device "edges"
    {0,1}+{2,3}, {2,3}+{4,5}, {4,5}+{6,7}, {6,7}+{0,1} — the configuration
    of the paper's Figure 5 where Theorem 6 is insufficient but every
    device is massive by Theorem 7.
    """
    r = FIGURE5_R
    clusters = [
        (0.300, 0.300),
        (0.300 + 1.5 * r, 0.300 + 1.5 * r),
        (0.300, 0.300 + 3.0 * r),
        (0.300 - 1.5 * r, 0.300 + 1.5 * r),
    ]
    pairs: List[Tuple[float, float]] = []
    for cluster in clusters:
        pairs.append(cluster)
        pairs.append(cluster)
    return pairs


@pytest.fixture
def figure3_transition() -> Transition:
    """The paper's Figure 3 scenario (ACP impossibility witness)."""
    return make_transition_1d(FIGURE3_PAIRS, r=FIGURE3_R, tau=FIGURE3_TAU)


@pytest.fixture
def figure5_transition() -> Transition:
    """The paper's Figure 5 scenario (Theorem 7 strictly stronger than 6)."""
    return make_transition_1d(figure5_pairs(), r=FIGURE5_R, tau=FIGURE5_TAU)


@pytest.fixture
def single_blob_transition() -> Transition:
    """Six coincident flagged devices: one unambiguous massive anomaly."""
    pairs = [(0.5, 0.8)] * 6
    return make_transition_1d(pairs, r=0.03, tau=3)


@pytest.fixture
def scattered_transition() -> Transition:
    """Five well-separated flagged devices: all isolated."""
    pairs = [(0.05, 0.9), (0.25, 0.1), (0.45, 0.5), (0.7, 0.3), (0.95, 0.7)]
    return make_transition_1d(pairs, r=0.03, tau=2)
