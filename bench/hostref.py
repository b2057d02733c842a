"""A fixed reference computation that measures how fast the host runs right now.

On a shared host the speed of one core drifts: the same units ran 45% faster
at the end of ten consecutive runs than at the start, with CPU time equal to
wall time and no steal, so no run length averages the drift away.  The timed
loop therefore runs a reference slice between units and scales each unit's
latency to a host on which one slice takes ``NOMINAL_SLICE_S``, by the mean
of the slices just before and just after it; set-up-only processes scale
their set-up time by the mean of ten slices.  The slice calls no nevlab code
and mixes interpreter work with small complex LAPACK calls, as the units do;
a change to the program moves the scaled figures as much as the raw ones,
while a change in host speed moves the slices as much as the units.  The raw
figures and the mean slice time are kept in each run's record.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_SLICE_S = 0.02  # about one slice on the 2-vCPU Xeon host the bounds were set on
ITERATIONS = 700

_RNG = np.random.default_rng(20261017)
_MATS = [_RNG.standard_normal((4, 4)) + 1j * _RNG.standard_normal((4, 4)) for _ in range(16)]
_RHS = _RNG.standard_normal(4) + 1j * _RNG.standard_normal(4)
_SHIFT = 4.0 * np.eye(4)


def _work() -> float:
    acc = 0.0
    table = {}
    for k in range(ITERATIONS):
        a = _MATS[k % len(_MATS)]
        h = (a + a.conj().T) / 2.0
        w = np.linalg.eigvalsh(h)
        s = np.linalg.svd(a, compute_uv=False)
        x = np.linalg.solve(a + _SHIFT, _RHS)
        acc += float(w[0]) + float(s[-1]) + abs(complex(x[0]))
        table[k % 31] = [acc, k, (k, acc)]
    return acc + len(table)


def slice_s() -> float:
    """Seconds one reference slice takes now."""
    begin = time.perf_counter()
    _work()
    return time.perf_counter() - begin
