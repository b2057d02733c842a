"""Shared random constructions for the test suite.

All generators take an explicit numpy Generator so tests stay
reproducible; stereotypes produce families with exact structural features
(a pinned real eigenvalue, a common kernel of the imaginary part, a
multivalued direction) rather than fuzzy near-degenerate ones.
"""

from __future__ import annotations

import os

# One-thread BLAS, as ``cli._pin_threads`` and the benchmark set it: assigned,
# not defaulted, before this module imports numpy (pytest imports the root
# conftest first), so the bitwise comparisons and the suite's wall time do not
# depend on the host's core count.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest

from nevlab import herglotz, pairs
from nevlab.herglotz import FamilyEvaluator, HerglotzRep


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


def cgauss(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_psd(rng, dim, scale=1.0):
    m = cgauss(rng, dim, dim)
    return scale * (m @ m.conj().T) / dim


def random_hermitian(rng, dim, scale=1.0):
    m = cgauss(rng, dim, dim)
    return scale * (m + m.conj().T) / 2.0


def random_rep(rng, dim=None, max_atoms=8, uniform=True) -> HerglotzRep:
    """Generic representation; ``uniform=True`` forces a definite B1."""
    dim = int(rng.integers(2, 7)) if dim is None else dim
    b0 = random_hermitian(rng, dim)
    b1 = random_psd(rng, dim, 0.5)
    if uniform:
        b1 = b1 + 0.3 * np.eye(dim)
    n_atoms = int(rng.integers(1, max_atoms + 1))
    locs = np.sort(rng.uniform(-5.0, 5.0, n_atoms))
    while len(set(locs)) < n_atoms:  # pragma: no cover - measure-zero event
        locs = np.sort(rng.uniform(-5.0, 5.0, n_atoms))
    atoms = [(float(t), random_psd(rng, dim, 0.7)) for t in locs]
    return HerglotzRep.create(b0, b1, atoms)


def rep_with_common_kernel(rng, dim=4) -> HerglotzRep:
    """B1 and every weight annihilate one common direction; B0 is generic."""
    q, _ = np.linalg.qr(cgauss(rng, dim, dim))
    p = q[:, : dim - 1]  # projector range, kernel = last column of q
    def shrink(m):
        return p @ (p.conj().T @ m @ p) @ p.conj().T
    b1 = shrink(random_psd(rng, dim, 0.5) + 0.3 * np.eye(dim))
    atoms = [(float(t), shrink(random_psd(rng, dim))) for t in (-1.5, 0.7)]
    rep = HerglotzRep.create(random_hermitian(rng, dim), b1, atoms)
    return rep, q[:, dim - 1 :]


def rep_with_pinned_eigenvalue(rng, a, dim=4, pinned=1):
    """Family z -> F(z) with F(z) h = a h on a fixed subspace, all z."""
    q, _ = np.linalg.qr(cgauss(rng, dim, dim))
    moving = q[:, : dim - pinned]
    fixed = q[:, dim - pinned :]
    inner = random_rep(rng, dim - pinned, max_atoms=4)

    def fn(z):
        core = herglotz.evaluate(inner, z)
        return moving @ core @ moving.conj().T + a * (fixed @ fixed.conj().T)

    fam = FamilyEvaluator(dim, fn, "pinned")
    return fam, fixed


def mul_pair(rng, dim=3):
    """Pair of a multivalued family: generic block plus a {0} x C direction."""
    base = pairs.canonical_pair(FamilyEvaluator.from_rep(random_rep(rng, dim - 1, 4)))
    tail = pairs.PairEvaluator.constant(np.zeros((1, 1)), np.eye(1))
    return pairs.pair_direct_sum(base, tail)


def random_upper(rng, n):
    return [complex(rng.uniform(-3, 3), 10.0 ** rng.uniform(-1.0, 1.0)) for _ in range(n)]


def random_offaxis(rng, n):
    out = []
    for z in random_upper(rng, n):
        out.append(z if rng.uniform() < 0.5 else np.conj(z))
    return out
