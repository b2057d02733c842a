"""Dense complex-matrix numerics with an explicit tolerance policy.

Everything downstream (kernels, relations, verifiers) routes its numerical
equality, rank and positivity decisions through this module so that one
tolerance policy governs the whole library.  All decisions are relative to
the spectral norm; rank decisions use singular values, never determinants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MatrixShapeError(ValueError):
    """Raised when an input matrix has the wrong shape for an operation."""


class HermitianityError(ValueError):
    """Raised when a matrix declared Hermitian is not, beyond tolerance."""


class ConditioningError(np.linalg.LinAlgError):
    """Raised when a linear solve is rejected as too ill conditioned."""


@dataclass(frozen=True)
class TolerancePolicy:
    """Relative thresholds for PSD checks, rank cutoffs and matrix equality.

    eps_psd   eigenvalue floor: H is accepted as PSD when
              lambda_min(H) >= -eps_psd * (1 + ||H||).
    eps_rank  singular-value cutoff for rank and null-space decisions,
              relative to sigma_max.
    eps_eq    relative threshold for matrix equality tests.
    """

    eps_psd: float = 1e-10
    eps_rank: float = 1e-8
    eps_eq: float = 1e-9

    def __post_init__(self):
        for name in ("eps_psd", "eps_rank", "eps_eq"):
            value = getattr(self, name)
            if not (0.0 < value < 1.0):
                raise ValueError(f"{name} must lie in (0, 1), got {value!r}")


DEFAULT_TOL = TolerancePolicy()


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex128 array and reject non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise MatrixShapeError(f"expected a matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def _square(a) -> np.ndarray:
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise MatrixShapeError(f"expected a square matrix, got shape {m.shape}")
    return m


def spectral_norm(a) -> float:
    m = as_matrix(a)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def herm_part(t) -> np.ndarray:
    """Hermitian part (T + T*)/2 of a square matrix."""
    m = _square(t)
    return (m + m.conj().T) / 2.0


def imag_part(t) -> np.ndarray:
    """Imaginary part (T - T*)/(2i) of a square matrix.

    The result is Hermitian to machine precision and satisfies
    T = herm_part(T) + 1j * imag_part(T).
    """
    m = _square(t)
    return (m - m.conj().T) / 2.0j


def hermitian_residual(h) -> float:
    """Relative departure of a square matrix from Hermitianity."""
    m = _square(h)
    scale = spectral_norm(m)
    if scale == 0.0:
        return 0.0
    return spectral_norm(m - m.conj().T) / scale


def is_psd(h, tol: TolerancePolicy = DEFAULT_TOL) -> tuple[bool, float]:
    """PSD test for a Hermitian matrix; returns (verdict, lambda_min).

    The input must be Hermitian within ``eps_eq`` relative to its norm; it is
    symmetrized before the eigendecomposition to remove round-off asymmetry.
    """
    m = _square(h)
    if hermitian_residual(m) > tol.eps_eq:
        raise HermitianityError(
            f"matrix is not Hermitian within eps_eq={tol.eps_eq!r}"
        )
    m = herm_part(m)
    if m.shape[0] == 0:
        return True, 0.0
    lam_min = float(np.linalg.eigvalsh(m)[0])
    bound = -tol.eps_psd * (1.0 + spectral_norm(m))
    return lam_min >= bound, lam_min


def eig_hermitian(h, tol: TolerancePolicy = DEFAULT_TOL):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix."""
    m = _square(h)
    if hermitian_residual(m) > tol.eps_eq:
        raise HermitianityError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(herm_part(m))
    return w, v


def singular_values(a) -> np.ndarray:
    """Singular values in descending order."""
    m = as_matrix(a)
    if min(m.shape) == 0:
        return np.zeros(0)
    return np.linalg.svd(m, compute_uv=False)


def rank(a, tol: TolerancePolicy = DEFAULT_TOL) -> int:
    s = singular_values(a)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol.eps_rank * s[0]))


def null_space(a, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the (numerical) null space of A.

    Columns are right singular vectors whose singular values fall at or
    below ``eps_rank * sigma_max``; for the zero matrix the full identity
    basis is returned.
    """
    m = as_matrix(a)
    ncols = m.shape[1]
    if ncols == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    if m.shape[0] == 0:
        return np.eye(ncols, dtype=np.complex128)
    u, s, vh = np.linalg.svd(m)
    smax = s[0] if s.size else 0.0
    cutoff = tol.eps_rank * smax
    nkeep = int(np.count_nonzero(s > cutoff))
    return vh[nkeep:].conj().T


def range_space(a, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the (numerical) column space of A."""
    m = as_matrix(a)
    if m.shape[1] == 0 or m.shape[0] == 0:
        return np.zeros((m.shape[0], 0), dtype=np.complex128)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    smax = s[0] if s.size else 0.0
    nkeep = int(np.count_nonzero(s > tol.eps_rank * smax)) if smax > 0 else 0
    return u[:, :nkeep]


def orthonormal_complement(u) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of span(U)."""
    m = as_matrix(u)
    n = m.shape[0]
    if m.shape[1] == 0:
        return np.eye(n, dtype=np.complex128)
    uu, s, vh = np.linalg.svd(m, full_matrices=True)
    nkeep = int(np.count_nonzero(s > 1e-12 * (s[0] if s.size else 1.0)))
    return uu[:, nkeep:]


def subspace_distances(us, vs) -> np.ndarray:
    """Sine of the largest principal angle between stacked orthonormal spans.

    ``us`` and ``vs`` are (..., n, k) stacks of bases of one shape (n, k),
    broadcast against each other over their leading axes; the result has
    the broadcast leading shape.  Finiteness is checked once per stack and
    every norm comes from one batched SVD.
    """
    mu = np.asarray(us, dtype=np.complex128)
    mv = np.asarray(vs, dtype=np.complex128)
    if mu.ndim < 2 or mu.shape[-2:] != mv.shape[-2:]:
        raise MatrixShapeError(f"bases of shapes {mu.shape} and {mv.shape} do not match")
    lead = np.broadcast_shapes(mu.shape[:-2], mv.shape[:-2])  # ValueError if they do not
    if not (np.isfinite(mu).all() and np.isfinite(mv).all()):
        raise ValueError("basis contains NaN or Inf entries")
    if min(mu.shape[-2:]) == 0 or 0 in lead:
        return np.zeros(lead)
    # sin(theta_max) = || (I - U U*) V ||_2; the residual form avoids the
    # sqrt(eps) loss of computing sines from principal-angle cosines
    resid = mv - mu @ (mu.conj().swapaxes(-1, -2) @ mv)
    return np.minimum(1.0, np.linalg.svd(resid, compute_uv=False).max(axis=-1))


def subspace_distance(u, v) -> float:
    """Sine of the largest principal angle between two orthonormal spans.

    Returns 0 iff the spans coincide (within rank tolerance), is symmetric
    in its arguments and invariant under right-multiplication of either
    basis by a unitary.  Subspaces of different dimension get the sentinel
    value 1.0.
    """
    mu, mv = as_matrix(u), as_matrix(v)
    if mu.shape[0] != mv.shape[0]:
        raise MatrixShapeError("bases live in different ambient dimensions")
    if mu.shape[1] != mv.shape[1]:
        return 1.0
    return float(subspace_distances(mu, mv))


def rcond(a) -> float:
    """Reciprocal condition number from singular values (0 for singular)."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1] or m.shape[0] == 0:
        return 0.0
    s = singular_values(m)
    if s[0] == 0.0:
        return 0.0
    return float(s[-1] / s[0])


def definitely_invertible(a, scale: float = 1.0, threshold: float = 1e-12) -> bool:
    """Invertibility decided against an external scale.

    True iff sigma_min(A) >= threshold * max(scale, 1).  Unlike a bare
    reciprocal condition number this stays honest when the whole matrix is
    a round-off residue (for example a 1 x 1 block that should be zero).
    """
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        return False
    if m.shape[0] == 0:
        return True
    s = singular_values(m)
    return float(s[-1]) >= threshold * max(scale, 1.0)


def solve(a, b, rcond_min: float = 1e-14):
    """Solve A X = B, rejecting reciprocal condition numbers below 1e-14.

    Returns (X, rcond).
    """
    m = _square(a)
    rb = as_matrix(b) if np.ndim(b) == 2 else np.asarray(b, dtype=np.complex128)
    rc = rcond(m)
    if rc < rcond_min:
        raise ConditioningError(
            f"solve rejected: reciprocal condition {rc:.3e} < {rcond_min:.0e}"
        )
    return np.linalg.solve(m, rb), rc


def inverse(a, rcond_min: float = 1e-14) -> np.ndarray:
    x, _ = solve(a, np.eye(as_matrix(a).shape[0], dtype=np.complex128), rcond_min)
    return x


def matrices_close(a, b, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    ma, mb = as_matrix(a), as_matrix(b)
    scale = 1.0 + max(spectral_norm(ma), spectral_norm(mb))
    return spectral_norm(ma - mb) <= tol.eps_eq * scale
