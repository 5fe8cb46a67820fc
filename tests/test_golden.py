"""The first training steps of every model kind match the committed trajectory.

tests/golden_trajectory.json is written by tests/golden_trajectory.py. A
change that moves the numerics on purpose regenerates it with ``--write``
and states the largest delta.
"""

import json

import pytest

from golden_trajectory import GOLDEN_PATH, trajectory
from fckan.models import MODEL_KINDS

# Bits are not portable: BLAS thread count and CPU change float32 reductions.
# OpenBLAS at 1 thread against 2 threads moved the losses by up to 1.0e-7 and
# the parameter sums by up to 6.3e-7 of their absolute sums (fast-kan). The
# tolerance sits 10x above that spread, and stays tight enough that a B-spline
# or RBF derivative scaled by 1.1 fails it.
RTOL = 6e-6

with open(GOLDEN_PATH) as f:
    GOLDEN = json.load(f)


def test_golden_covers_every_kind():
    assert sorted(GOLDEN) == sorted(MODEL_KINDS)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_trajectory_matches_golden(kind):
    got, want = trajectory(kind), GOLDEN[kind]
    assert len(got["losses"]) == len(want["losses"])
    for step, (a, b) in enumerate(zip(got["losses"], want["losses"])):
        assert abs(a - b) <= RTOL * abs(b), f"step {step} loss {a!r} != {b!r}"
    assert list(got["params"]) == list(want["params"])
    for name, w in want["params"].items():
        g = got["params"][name]
        scale = RTOL * w["abs_sum"]
        assert abs(g["sum"] - w["sum"]) <= scale, f"{name} sum {g['sum']!r} != {w['sum']!r}"
        assert abs(g["abs_sum"] - w["abs_sum"]) <= scale, (
            f"{name} abs sum {g['abs_sum']!r} != {w['abs_sum']!r}")
