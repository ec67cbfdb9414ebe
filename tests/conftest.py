"""Shared helpers: random admissible potentials per regime family."""

import os

import numpy as np

from oscpot import GammaMode, TrigField

# Sweeps that leave their workers to OSCPOT_WORKERS run on up to two of
# the host's cores.  Fan-out gives the same bytes as a serial sweep
# (test_worker_fanout_matches_serial), so only the wall time changes.
os.environ.setdefault("OSCPOT_WORKERS", str(min(2, os.cpu_count() or 1)))

#: (k, gamma_mode) representative of each regime family, keyed by the
#: family value string.
FAMILY_PARAMS = {
    "critical": (2.0, GammaMode.UNIT),
    "supercritical": (2.5, GammaMode.UNIT),
    "subcritical": (1.5, GammaMode.UNIT),
    "slow_time": (0.5, GammaMode.UNIT),
    "frozen_time": (0.0, GammaMode.UNIT),
    "strong_fast_time": (2.5, GammaMode.K_MINUS_1),
}


def random_admissible(family: str, rng: np.random.Generator,
                      d: int | None = None) -> TrigField:
    """Random trig potential satisfying the family's structural condition.

    strong_fast_time forbids n = 0 modes; slow/frozen time forbids m = 0
    modes; the rest only need a vanishing full mean.
    """
    if d is None:
        d = int(rng.integers(1, 3))
    entries = []
    nmodes = int(rng.integers(2, 5))
    while len(entries) < 2 * nmodes:
        m = tuple(int(v) for v in rng.integers(-2, 3, d))
        n = int(rng.integers(-2, 3))
        if family == "strong_fast_time" and n == 0:
            continue
        if family in ("slow_time", "frozen_time") and not any(m):
            continue
        if not any(m) and n == 0:
            continue
        c = complex(rng.normal(), rng.normal())
        entries.append(((m, n), 0.5 * c))
        entries.append(((tuple(-v for v in m), -n), 0.5 * c.conjugate()))
    W = TrigField(d, entries)
    # random cancellation could zero the field; extraordinarily unlikely,
    # but a zero potential would make sign checks vacuous
    assert not W.is_zero()
    return W
