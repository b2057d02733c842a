"""Seeded random matrices and points shared by the workload generators."""

from __future__ import annotations

import numpy as np


def cgauss(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def psd(rng, dim, scale=1.0):
    m = cgauss(rng, dim, dim)
    return scale * (m @ m.conj().T) / dim


def hermitian(rng, dim):
    m = cgauss(rng, dim, dim)
    return (m + m.conj().T) / 2.0


def unitary(rng, dim):
    q, _ = np.linalg.qr(cgauss(rng, dim, dim))
    return q


def upper(rng) -> complex:
    """A point with Re z in [-3, 3] and Im z log-uniform in [0.1, 10]."""
    return complex(rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-1.0, 1.0))


def atom_locations(rng, count):
    """Distinct sorted atom locations in [-5, 5]."""
    return np.sort(rng.choice(np.linspace(-5.0, 5.0, 401), count, replace=False))
