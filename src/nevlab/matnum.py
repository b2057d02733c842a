"""Dense complex-matrix numerics with an explicit tolerance policy.

Everything downstream (kernels, relations, verifiers) routes its numerical
equality, rank and positivity decisions through this module so that one
tolerance policy governs the whole library.  All decisions are relative to
the spectral norm; rank decisions use singular values, never determinants.
Four rules decide from values already taken, so one decomposition serves
every witness of a matrix: ``rank_from``, ``psd_from``, ``rcond_from`` and
``invertible_from``; s_j(A^(-1)) is 1 / s_(n+1-j)(A).  Every SVD and
eigensolve runs in ``_lapack``, which looks numpy's routine up at
call time, decomposes each distinct matrix of a stack once (equal first
words, then equal weighted hashes of the words, flag candidates that
equal bytes confirm; a stack without repeats reaches LAPACK as it is),
takes one full SVD of a square matrix and its adjoint, and builds numpy
2's empty results.  Each caller keeps its LAPACK job
(values only or full SVD, ``eigvalsh`` or ``eigh``): the jobs round differently.
``inverse`` takes A^(-1) from ``np.linalg.inv``, the values of
``np.linalg.solve(A, I)`` bit for bit.  The input gate screens finiteness by
the sum of the squared moduli of a contiguous stack's entries, and tests entry
by entry only when that sum is not finite; ``as_hermitian`` is the gate of an
input declared Hermitian.
"""

from __future__ import annotations

import cmath
import math
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
    return _checked(a, (2,))


def as_stack(values, count: int, dim: int, what: str = "value") -> np.ndarray:
    """An evaluator's values at count points as a (count, dim, dim) complex stack.

    ``values`` is an array stack or a list of one matrix per point.  The
    shape is checked per matrix, naming ``what`` in the MatrixShapeError;
    ``_checked`` converts and checks finiteness once for the stack.
    """
    if isinstance(values, list):
        for value in values:
            if np.ndim(value) != 2:
                raise MatrixShapeError(f"expected a matrix, got ndim={np.ndim(value)}")
            if np.shape(value) != (dim, dim):
                raise MatrixShapeError(f"{what} shape {np.shape(value)}, declared dim {dim}")
        if not values:
            return np.zeros((0, dim, dim), dtype=np.complex128)
    elif np.shape(values) != (count, dim, dim):
        raise MatrixShapeError(f"{what} shape {np.shape(values)[1:]}, declared dim {dim}")
    return _checked(values, (3,))


def _checked(a, ndims: tuple = (2, 3), square: bool = False) -> np.ndarray:
    """The input gate: a as a complex128 array with ndim in ndims, finite.

    Every public function checks its input here, once per array; with
    ``square`` the last two axes must be equal.  Finiteness is screened by
    the sum of the squared moduli of a contiguous array's entries: a finite
    sum proves every entry finite.  Only an array that is not contiguous, or
    whose sum is not finite (a non-finite entry, or an overflow), meets the
    entry-by-entry test.  BLAS's ``vdot`` sums without a copy and without a
    floating-point warning.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim not in ndims:
        what = "a matrix or a stack of matrices" if 3 in ndims else "a matrix"
        raise MatrixShapeError(f"expected {what}, got ndim={m.ndim}")
    if square and m.shape[-1] != m.shape[-2]:
        raise MatrixShapeError(f"expected a square matrix, got shape {m.shape[-2:]}")
    if not (m.flags.c_contiguous and cmath.isfinite(np.vdot(m, m))) and not np.isfinite(m).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def _stack(a, square: bool = False) -> tuple[np.ndarray, bool]:
    """A checked matrix or (G, m, n) stack as a 3-d stack.

    The flag is True for a single matrix, which becomes a stack of one;
    the stacked primitives below hand it back unstacked.
    """
    m = _checked(a, square=square)
    return (m[None], True) if m.ndim == 2 else (m, False)


def _adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (G, m + n, m + n) stack of diag(A_g, B_g) from (G, m, m) and (G, n, n) stacks."""
    m, n = a.shape[-1], b.shape[-1]
    out = np.zeros((len(a), m + n, m + n), dtype=np.complex128)
    out[:, :m, :m], out[:, m:, m:] = a, b
    return out


def _lapack(kind: str, m: np.ndarray):
    """numpy's ``kind`` of each distinct matrix of a checked (G, rows, cols) stack, once.

    kind: "svdvals", "svd" (full), "svd_thin", "eigvalsh" or "eigh".  A full
    SVD of a square A decomposes whichever of A and A* has the smaller bytes
    and reads A's factors from A* = U s Vh as (Vh*, s, U*), so a matrix and
    its adjoint share one decomposition.  Their bytes first differ in
    Im A[0, 0], by its sign bit alone, so A* is the smaller when that bit is set.
    """
    count, rows, cols = m.shape
    if 0 in m.shape:  # numpy 2's results, built here: numpy < 2 rejects some empty shapes
        k, eye = min(rows, cols), lambda r, c: np.zeros((count, r, c), np.complex128) + np.eye(r, c)
        s = np.zeros((count, k))  # every value stack is empty, and k = cols for an eigensolve
        return {"svdvals": lambda: s, "eigvalsh": lambda: s,
                "svd": lambda: (eye(rows, rows), s, eye(cols, cols)),
                "svd_thin": lambda: (eye(rows, k), s, eye(k, cols)),
                "eigh": lambda: (s, eye(k, k))}[kind]()
    routine = {"svdvals": lambda a: np.linalg.svd(a, compute_uv=False), "svd": np.linalg.svd,
               "svd_thin": lambda a: np.linalg.svd(a, full_matrices=False),
               "eigvalsh": np.linalg.eigvalsh, "eigh": np.linalg.eigh}[kind]
    flip = np.signbit(m[:, 0, 0].imag) if kind == "svd" and rows == cols else None
    flip = flip if flip is not None and flip.any() else None  # where A* is decomposed
    members = m
    if flip is not None:  # the decomposed member of each matrix
        members = m.copy()
        members[flip] = _adjoint(m[flip])
    owners = _owners(members) if count > 1 else None
    if owners is None and flip is None:
        return routine(m)  # a stack without repeats or adjoints reaches LAPACK as it is
    picks = np.arange(count) if owners is None else np.flatnonzero(owners == np.arange(count))
    out = routine(members if owners is None else members[picks])
    del members
    if len(picks) < count:
        slots = np.searchsorted(picks, owners)
        out = tuple(r[slots] for r in out) if isinstance(out, tuple) else out[slots]
    if flip is not None:  # A's factors from A* = U s Vh
        out[0][flip], out[2][flip] = _adjoint(out[2][flip]), _adjoint(out[0][flip])
    return out


def _owners(m: np.ndarray):
    """Per matrix, the first index with equal bytes; None if none repeat.

    Screens: equal first words, then equal hashes of all words, then equal bytes.
    """
    count = len(m)
    words = np.ascontiguousarray(m).reshape(count, -1).view(np.uint64)
    if len(set(words[:, 0].tolist())) == count or len(set((words @ np.arange(
            1, 2 * words.shape[1], 2, dtype=np.uint64)).tolist())) == count:
        return None
    keys = words.view(np.dtype((np.void, 8 * words.shape[1]))).ravel().tolist()
    first = dict(zip(reversed(keys), range(count - 1, -1, -1)))  # bytes -> first index
    return np.fromiter(map(first.get, keys), int, count) if len(first) < count else None


# _norms, _herm and _residuals take a (G, m, n) stack that passed _checked


def _norms(m: np.ndarray) -> np.ndarray:
    return _lapack("svdvals", m).max(axis=1, initial=0.0)


def _herm(m: np.ndarray) -> np.ndarray:
    return (m + _adjoint(m)) / 2.0


def _residuals(m: np.ndarray) -> np.ndarray:
    scale = _norms(m)
    return np.divide(_norms(m - _adjoint(m)), scale, out=np.zeros(len(m)), where=scale != 0.0)


def spectral_norm(a):
    """Largest singular value; an array of them for a (G, m, n) stack."""
    m, one = _stack(a)
    return float(_norms(m)[0]) if one else _norms(m)


def herm_part(t) -> np.ndarray:
    """Hermitian part (T + T*)/2 of a square matrix (or of each in a stack)."""
    return _herm(_checked(t, square=True))


def imag_part(t) -> np.ndarray:
    """Imaginary part (T - T*)/(2i) of a square matrix (or of each in a stack).

    The result is Hermitian to machine precision and satisfies
    T = herm_part(T) + 1j * imag_part(T).
    """
    m = _checked(t, square=True)
    return (m - _adjoint(m)) / 2.0j


def hermitian_residual(h):
    """Relative departure of a square matrix from Hermitianity.

    An array of them for a (G, n, n) stack.
    """
    m, one = _stack(h, square=True)
    return float(_residuals(m)[0]) if one else _residuals(m)


def _pow2(m: np.ndarray) -> np.ndarray:
    """Per matrix of a stack, the power of two in (max |m_ij| / 2, max |m_ij|] (1/2 for zero)."""
    return np.ldexp(1.0, np.frexp(np.abs(m).max(axis=(1, 2), initial=0.0))[1] - 1)


def _scaled_squares(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The _pow2 scale of each matrix of a stack, and the squared moduli of its entries over it."""
    scale = _pow2(m)
    unit = m / scale[:, None, None]
    return scale, unit.real**2 + unit.imag**2


def _frobenius(m: np.ndarray) -> np.ndarray:
    """Frobenius norms of a stack, each matrix scaled by _pow2 before its entries are squared."""
    scale, squares = _scaled_squares(m)
    return scale * np.sqrt(squares.sum(axis=(1, 2)))


def _norm_bounds(m: np.ndarray) -> np.ndarray:
    """Frobenius and largest column norms of a stack, scaled as _frobenius, as rows of a (2, G) array.

    They bound each spectral norm: max_j ||m e_j||_2 <= ||m||_2 <= ||m||_F.
    """
    scale, squares = _scaled_squares(m)
    columns = np.einsum("gij->jg", squares)  # a row of squared norms per column index
    return scale * np.sqrt(np.stack([columns.sum(axis=0), columns.max(axis=0, initial=0.0)]))


def as_hermitian(h, tol: TolerancePolicy = DEFAULT_TOL, error: Exception | None = None):
    """The Hermitian input gate: (H + H*)/2 of a square matrix (or of each in a stack).

    It raises ``error``, by default a HermitianityError, unless
    ``hermitian_residual`` is at most eps_eq for every matrix; the rule and
    its screen are ``is_psd``'s.
    """
    m, one = _stack(h, square=True)
    herm = _hermitian(m, tol, error)
    return herm[0] if one else herm


def _hermitian(m: np.ndarray, tol: TolerancePolicy, error: Exception | None = None) -> np.ndarray:
    """Hermitian parts of a square stack; ``error`` unless each is within eps_eq.

    A stack equal to its adjoint has residual 0 and passes at once.  Else a
    matrix H passes without an SVD when sqrt(n) ||H - H*||_F <= eps_eq ||H||_F / 2:
    ||H - H*||_2 <= ||H - H*||_F and ||H||_F <= sqrt(n) ||H||_2, so its
    ``hermitian_residual`` is at most eps_eq / 2, and the factor 2 covers the
    round-off of the two norms.  H is divided by a power of two first, which
    changes no bit of H - H* but its exponent and keeps both norms finite.
    The others meet the exact rule; by default its error is a HermitianityError.
    """
    adj = _adjoint(m)
    if not (m == adj).all():
        unit = m / _pow2(m)[:, None, None]
        size = _frobenius(unit)
        bound = np.sqrt(m.shape[-1]) * _frobenius(unit - _adjoint(unit))
        exact = ~((bound <= 0.5 * tol.eps_eq * size) & (size > 0.0))
        if exact.any() and (_residuals(m[exact]) > tol.eps_eq).any():
            raise error or HermitianityError(
                f"matrix is not Hermitian within eps_eq={tol.eps_eq!r}")
    return (m + adj) / 2.0


def is_psd(h, tol: TolerancePolicy = DEFAULT_TOL):
    """PSD test for a Hermitian matrix; returns (verdict, lambda_min).

    The input must be Hermitian within ``eps_eq`` relative to its norm; it is
    symmetrized before the eigendecomposition to remove round-off asymmetry.
    ``psd_from`` decides from its ``eigvalsh``.  A (G, n, n) stack takes one
    batched ``eigvalsh`` and gives a list of verdicts with an array of
    lambda_min; if any matrix is not Hermitian, the call raises.
    """
    m, one = _stack(h, square=True)
    lams = _lapack("eigvalsh", _hermitian(m, tol))
    return psd_from(lams[0] if one else lams, tol)


def psd_from(lams, tol: TolerancePolicy = DEFAULT_TOL):
    """``is_psd``'s (verdict, lambda_min) from ascending eigenvalues; a list and an array for rows.

    PSD when lambda_min >= -eps_psd * (1 + max |lambda|); lambda_min of 0 x 0 is 0.
    """
    rows = np.atleast_2d(lams)
    lam = rows[:, 0] if rows.shape[1] else np.zeros(len(rows))
    ok = (lam >= -tol.eps_psd * (1.0 + np.abs(rows).max(axis=1, initial=0.0))).tolist()
    return (ok[0], float(lam[0])) if np.ndim(lams) == 1 else (ok, lam)


def eig_hermitian(h, tol: TolerancePolicy = DEFAULT_TOL):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix.

    A (G, n, n) stack gives (G, n) eigenvalues and (G, n, n) eigenvectors
    from one batched ``eigh``.
    """
    m, one = _stack(h, square=True)
    w, v = _lapack("eigh", _hermitian(m, tol))
    return (w[0], v[0]) if one else (w, v)


def hermitian_kernels(h, tol: TolerancePolicy = DEFAULT_TOL):
    """``null_space`` bases and lambda_min of Hermitian matrices from one ``eigh``.

    The basis holds the eigenvectors that ``rank_from`` does not count,
    null_space's rule read from the eigenvalues; for the zero matrix it is
    the identity, and a 0 x 0 matrix has lambda_min 0.  A (G, n, n) stack
    gives a list of G bases and an array of lambda_min from one batched ``eigh``.
    """
    m, one = _stack(h, square=True)
    bases, lam_mins, _ = _hermitian_kernels(m, tol)
    return (bases[0], float(lam_mins[0])) if one else (bases, lam_mins)


def _hermitian_kernels(m: np.ndarray, tol: TolerancePolicy):
    """``hermitian_kernels`` of a checked square stack, with max |lambda| of each matrix."""
    lams, vecs = _lapack("eigh", _hermitian(m, tol))
    bases = [v[:, ~kept] for v, kept in zip(vecs, _kept(lams, tol))]  # the uncounted columns
    return bases, psd_from(lams, tol)[1], np.abs(lams).max(axis=1, initial=0.0)


def herm_part_eig(t, vectors: bool = False):
    """``eigvalsh`` of ``herm_part(t)``, or ``eigh`` with ``vectors``, per matrix of a stack.

    Unlike ``eig_hermitian`` it has no Hermitian gate: t may be far from Hermitian.
    """
    m, one = _stack(t, square=True)
    out = _lapack("eigh" if vectors else "eigvalsh", _herm(m))
    return (tuple(r[0] for r in out) if vectors else out[0]) if one else out


def singular_values(a) -> np.ndarray:
    """Singular values in descending order; one row per matrix of a stack."""
    m, one = _stack(a)
    s = _lapack("svdvals", m)
    return s[0] if one else s


def _kept(values: np.ndarray, tol: TolerancePolicy) -> np.ndarray:
    """|v| > eps_rank * max |v| along the last axis: the one rank cutoff."""
    size = np.abs(values)
    return size > tol.eps_rank * size.max(axis=-1, keepdims=True, initial=0.0)


def rank_from(values, tol: TolerancePolicy = DEFAULT_TOL):
    """Rank from singular values or Hermitian eigenvalues already taken; a list for (G, k) rows."""
    return _kept(np.asarray(values), tol).sum(axis=-1).tolist()


def rank(a, tol: TolerancePolicy = DEFAULT_TOL):
    """Numerical rank (a list of ranks for a stack), cut off per matrix."""
    m, one = _stack(a)
    ranks = rank_from(_lapack("svdvals", m), tol)
    return ranks[0] if one else ranks


def null_space(a, tol: TolerancePolicy = DEFAULT_TOL):
    """Orthonormal basis of the (numerical) null space of A.

    Columns are right singular vectors whose singular values ``rank_from``
    does not count; for the zero matrix the full identity basis is
    returned.  A (G, m, n) stack takes one batched SVD with the cutoff set
    per matrix, and gives a list of G bases (their widths may differ).
    """
    m, one = _stack(a)
    bases = _spaces(m, tol)[1]
    return bases[0] if one else bases


def _spaces(m: np.ndarray, tol: TolerancePolicy) -> tuple[list, list, np.ndarray]:
    """Column- and null-space bases of each matrix of a checked stack, and the SVD's values."""
    u, s, vh = _lapack("svd", m)
    ranks = rank_from(s, tol)
    return [x[:, :k] for x, k in zip(u, ranks)], [_adjoint(v[k:]) for v, k in zip(vh, ranks)], s


def range_space(a, tol: TolerancePolicy = DEFAULT_TOL):
    """Orthonormal basis of the (numerical) column space of A.

    A (G, m, n) stack takes one batched SVD and gives a list of G bases.
    """
    m, one = _stack(a)
    u, s, _ = _lapack("svd_thin", m)
    bases = [v[:, :k] for v, k in zip(u, rank_from(s, tol))]
    return bases[0] if one else bases


COMPLEMENT_RANK = TolerancePolicy(eps_rank=1e-12)  # orthonormal U: singular values 1 or ~0


def orthonormal_complement(u) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of span(U)."""
    uu, s, _ = _lapack("svd", as_matrix(u)[None])
    return uu[0][:, rank_from(s, COMPLEMENT_RANK)[0]:]


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
    resid = _span_residuals(mu, mv).reshape((math.prod(lead),) + mu.shape[-2:])
    return np.minimum(1.0, _norms(resid).reshape(lead))


def _span_residuals(mu: np.ndarray, mv: np.ndarray) -> np.ndarray:
    """(I - U U*) V of complex128 bases, broadcast; a ValueError unless all are finite.

    sin(theta_max) is its spectral norm: the residual form avoids the
    sqrt(eps) loss of computing sines from principal-angle cosines.
    """
    if not (np.isfinite(mu).all() and np.isfinite(mv).all()):
        raise ValueError("basis contains NaN or Inf entries")
    return mv - mu @ (_adjoint(mu) @ mv)


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


def rcond(a):
    """Reciprocal condition number from singular values (0 for singular).

    An array of them for a (G, n, n) stack.
    """
    m, one = _stack(a)
    rc = rcond_from(m, _lapack("svdvals", m))
    return float(rc[0]) if one else rc


def rcond_from(m: np.ndarray, s: np.ndarray, rcond_min: float = 0.0) -> np.ndarray:
    """s_min / s_max from each matrix's singular values s: 0 if zero or not square, 1 if 0 x 0.

    The solve guard: ConditioningError for the first one below rcond_min.
    """
    rc = np.full(len(m), float(m.shape[1] == m.shape[2]))
    if m.shape[1] == m.shape[2] != 0:
        rc = np.divide(s[:, -1], s[:, 0], out=np.zeros(len(s)), where=s[:, 0] != 0.0)
    if (failing := rc < rcond_min).any():
        raise ConditioningError(
            f"solve rejected: reciprocal condition {rc[failing.argmax()]:.3e} < {rcond_min:.0e}"
        )
    return rc


INVERTIBLE_MIN = 1e-12  # least sigma_min / scale that is invertible; pairs guards its solves with it


def definitely_invertible(a, scale=1.0):
    """Invertibility decided against an external scale.

    True iff sigma_min(A) >= INVERTIBLE_MIN * max(scale, 1).  Unlike a bare
    reciprocal condition number this stays honest when the whole matrix is
    a round-off residue (for example a 1 x 1 block that should be zero).
    A (G, n, n) stack gives a list of flags; ``scale`` may then hold one
    scale per matrix.
    """
    m, one = _stack(a)
    flags = [False] * len(m)
    if m.shape[1] == m.shape[2]:  # a 0 x 0 matrix has sigma_min = +inf
        flags = invertible_from(_lapack("svdvals", m).min(axis=1, initial=np.inf), scale)
    return flags[0] if one else flags


def invertible_from(smins, scale=1.0) -> list[bool]:
    """``definitely_invertible``'s flags from smallest singular values already taken."""
    return (np.asarray(smins) >= INVERTIBLE_MIN * np.maximum(scale, 1.0)).tolist()


def solve(a, b, rcond_min: float = 1e-14):
    """Solve A X = B, rejecting reciprocal condition numbers below 1e-14.

    Returns (X, rcond).  A (G, n, n) stack is solved in one batched call,
    against a (G, n, k) stack of right-hand sides or one (n, k) matrix B
    for every matrix of the stack; it returns the stack of solutions with
    an array of rconds, and the first matrix of the stack that fails the
    guard raises.
    """
    m, one = _stack(a, square=True)
    rb = _checked(b, (1, 2, 3))
    rc = rcond_from(m, _lapack("svdvals", m), rcond_min)
    if not one and rb.ndim == 2:
        # one B for the whole stack, broadcast here: numpy < 2 reads a 2-d B
        # against a 3-d A as a stack of vectors
        rb = np.broadcast_to(rb, m.shape[:1] + rb.shape)
    return np.linalg.solve(m[0] if one else m, rb), (float(rc[0]) if one else rc)


def inverse(a, rcond_min: float = 1e-14) -> np.ndarray:
    """A^(-1) as ``solve(a, I, rcond_min)`` gives it, one per matrix of a (G, n, n) stack.

    X comes from ``np.linalg.inv``, the same LAPACK zgesv with B = I, so it
    is ``np.linalg.solve(A, I)`` bit for bit at a fifth of the call's cost.
    No SVD is taken when 1/(||A||_F ||X||_F) >= 2 rcond_min for the computed
    X: 1/(||A||_F ||A^(-1)||_F) is a lower bound of rcond_2(A), and X is off
    by a relative u / rcond_2(A), far below 1/2 at any rcond the guard can
    pass.  Otherwise, or when LAPACK finds A singular, ``solve``'s SVD guard
    decides and raises for the first failing matrix.
    """
    m, one = _stack(a, square=True)
    try:
        x = np.linalg.inv(m)
        size = np.linalg.norm(m, axis=(1, 2))
        certified = (size * np.linalg.norm(x, axis=(1, 2)) * (2.0 * rcond_min) <= 1.0) & (size > 0)
    except np.linalg.LinAlgError:
        certified = np.zeros(1, dtype=bool)
    if not certified.all():
        eye = np.broadcast_to(np.eye(m.shape[-1], dtype=np.complex128), m.shape)
        x, _ = solve(m, eye, rcond_min)
    return x[0] if one else x


def inverse_singular_values(a, rcond_min: float = 1e-14) -> np.ndarray:
    """Singular values of A^(-1), descending, as 1 / s_(n+1-j)(A) from one SVD of A.

    ``solve``'s guard decides from the same values and raises its
    ConditioningError, so no inverse is formed.
    """
    m = _checked(a, (2,), square=True)[None]
    s = _lapack("svdvals", m)
    rcond_from(m, s, rcond_min)
    return 1.0 / s[0, ::-1]
