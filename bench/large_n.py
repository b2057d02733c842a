"""large-n: dense families at n = 64 to 400, where LAPACK factorizations dominate.

Four unit kinds run in a fixed rotation whose order within each cycle is
drawn from the seed:

- ``decay``: the interval-family decay exponent at n = 400 at one seeded
  point; the slope must lie in [-2.1, -1.9]
- ``sweep``: the truncation sweep over z diag(1/k) with n in (50, 100, 200)
  and 100 trials; it must pass
- ``form``: the form-domain report of the decaying-diagonal example at
  n = 200 with perturbation 0.3; it must pass
- ``checks``: point and imaginary-kernel invariance of a dense n = 64
  representation with 8 atoms, a common kernel and a pinned eigenvalue, on
  the 40-point check grid; both must pass

The cycle holds the cheap ``decay`` kind twice and ``checks`` three times,
so the median unit falls in the middle of the ``checks`` band and the 90th
percentile inside the ``sweep`` band, instead of on the edge between two
kinds of overlapping cost, where they would jump from run to run.
"""

from __future__ import annotations

import numpy as np

from nevlab import examples, herglotz, invariance
from randmat import atom_locations, hermitian, psd, unitary, upper

CYCLE = ("decay", "decay", "checks", "checks", "checks", "form", "sweep")
STREAM_LENGTH = 20 * len(CYCLE)  # the timed loop cycles through the stream
TRACE_UNITS = len(CYCLE)
WARMUP_UNITS = len(CYCLE)

DENSE_N, DENSE_ATOMS = 64, 8


def _dense_rep_data(rng, n, n_atoms):
    """Representation with kernel direction q of Im F, pinned at F(z) q = a q."""
    fixed = unitary(rng, n)[:, :1]
    proj = np.eye(n) - fixed @ fixed.conj().T
    a = float(rng.uniform(-2.0, 2.0))
    b0 = proj @ hermitian(rng, n) @ proj + a * (fixed @ fixed.conj().T)
    b1 = proj @ psd(rng, n, 0.5) @ proj + 0.3 * proj
    atoms = [(float(t), proj @ psd(rng, n, 0.7) @ proj) for t in atom_locations(rng, n_atoms)]
    return a, (b0, b1, atoms)


def make_unit(rng, kind: str) -> dict:
    unit = {"kind": kind, "expected": {kind: True}}
    if kind == "decay":
        unit["z"] = upper(rng)
    elif kind in ("sweep", "form"):
        unit["seed"] = int(rng.integers(0, 2**31))
    else:
        unit["a"], unit["rep"] = _dense_rep_data(rng, DENSE_N, DENSE_ATOMS)
        unit["expected"] = {"point": True, "imag_kernel": True}
    return unit


def make_inputs(seed: int, count: int = STREAM_LENGTH, stream: int = 0) -> list[dict]:
    rng = np.random.default_rng([seed, stream])
    units = []
    while len(units) < count:
        for slot in rng.permutation(len(CYCLE)):
            units.append(make_unit(rng, CYCLE[slot]))
    return units[:count]


def _diag_inverse_k(n):
    return herglotz.FamilyEvaluator(
        n, lambda z: z * np.diag(1.0 / np.arange(1, n + 1)), "sweep"
    )


def run_unit(unit: dict) -> dict:
    kind = unit["kind"]
    if kind == "decay":
        phi = herglotz.HerglotzRep.create([[0.0]], [[1.0]])
        fam = examples.build_interval_family(examples.SturmLiouvilleConfig(n=400, phi=phi))
        slope = examples.decay_exponent(fam, unit["z"])
        return {"decay": -2.1 <= slope <= -1.9}
    if kind == "sweep":
        report = invariance.sweep_continuous_spectrum(
            _diag_inverse_k, (50, 100, 200), trials=100,
            rng=np.random.default_rng(unit["seed"]),
        )
        return {"sweep": report.passed}
    if kind == "form":
        ex = examples.build_ex4a(
            examples.Ex4AConfig(n=200, c_perturbation=0.3, seed=unit["seed"])
        )
        report = examples.form_domain_report(ex, rng=np.random.default_rng(unit["seed"]))
        return {"form": report.passed}
    b0, b1, atoms = unit["rep"]
    rep = herglotz.HerglotzRep.create(b0, b1, atoms)
    grid = invariance.default_check_grid()
    return {
        "point": invariance.check_point_invariance(rep, unit["a"], grid).passed,
        "imag_kernel": invariance.check_imag_kernel_invariance(rep, grid).passed,
    }
