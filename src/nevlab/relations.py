"""Finite-dimensional linear relations: subspaces of H + H.

A relation is stored as an orthonormal basis of a subspace of C^(2n), the
top block playing the role of first components (inputs) and the bottom
block of second components (outputs).  Closedness is automatic at this
scale.  The calculus implemented here: structural parts (domain, range,
kernel, multivalued part), adjoint, symmetry / dissipativity / maximality
certificates via the block criteria, resolvents, intersections and the two
sums, and the symmetric core of a pair at a point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import herglotz, matnum
from .matnum import DEFAULT_TOL, TolerancePolicy
from .pairs import PairEvaluator, boundary_form, diagonal_kernel


@dataclass(frozen=True)
class LinearRelation:
    """Orthonormal basis (2n x k) of a subspace of H + H."""

    ambient: int
    basis: np.ndarray

    @classmethod
    def from_span(cls, columns, tol: TolerancePolicy = DEFAULT_TOL) -> "LinearRelation":
        cols = matnum.as_matrix(columns)
        if cols.shape[0] % 2:
            raise matnum.MatrixShapeError("span matrix must have 2n rows")
        return cls(cols.shape[0] // 2, matnum.range_space(cols, tol))

    @classmethod
    def graph(cls, a) -> "LinearRelation":
        """Graph {(h, A h)} of a square matrix A."""
        a = matnum.as_matrix(a)
        n = a.shape[0]
        return cls.from_span(np.vstack([np.eye(n, dtype=np.complex128), a]))

    @classmethod
    def pure_mul(cls, n: int) -> "LinearRelation":
        """The relation {0} x H."""
        top = np.zeros((n, n), dtype=np.complex128)
        return cls.from_span(np.vstack([top, np.eye(n, dtype=np.complex128)]))

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def top(self) -> np.ndarray:
        return self.basis[: self.ambient]

    @property
    def bottom(self) -> np.ndarray:
        return self.basis[self.ambient :]

    def distance(self, other: "LinearRelation") -> float:
        return matnum.subspace_distance(self.basis, other.basis)


def from_pair_at(
    pair: PairEvaluator, z: complex, tol: TolerancePolicy = DEFAULT_TOL
) -> LinearRelation:
    """Snapshot of a pair at one point off the real axis."""
    return LinearRelation.from_span(pair.stacked(herglotz.offaxis_point(z, "from_pair_at")), tol)


@dataclass(frozen=True)
class RelationParts:
    dom: np.ndarray
    ran: np.ndarray
    ker: np.ndarray
    mul: np.ndarray


def parts(t: LinearRelation, tol: TolerancePolicy = DEFAULT_TOL) -> RelationParts:
    """Domain, range, kernel and multivalued part as orthonormal bases.

    One full SVD of both blocks gives dom, ran and the null spaces carrying mul = {g : (0, g)
    in T} and ker = {f : (f, 0) in T}, so dim dom + dim mul = dim ran + dim ker = dim T.
    """
    blocks = matnum._checked(np.stack([t.top, t.bottom]), (3,))
    (dom, ran), (mul_params, ker_params), _ = matnum._spaces(blocks, tol)
    mul = matnum.range_space(t.bottom @ mul_params, tol)
    ker = matnum.range_space(t.top @ ker_params, tol)
    return RelationParts(dom, ran, ker, mul)


def adjoint(t: LinearRelation) -> LinearRelation:
    """Adjoint relation: the orthogonal complement of {(-g, f) : (f, g) in T}."""
    flipped = np.vstack([-t.bottom, t.top])
    return LinearRelation(t.ambient, matnum.orthonormal_complement(flipped))


def is_symmetric(t: LinearRelation, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """The boundary form of [top; bottom] vanishes."""
    form = boundary_form(t.top, t.bottom, t.top, t.bottom)
    return matnum.spectral_norm(form) <= tol.eps_eq * (1.0 + matnum.spectral_norm(t.bottom))


def is_dissipative(t: LinearRelation, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """-i times the boundary form of [top; bottom] is PSD."""
    form = boundary_form(t.top, t.bottom, t.top, t.bottom)
    ok, _ = matnum.is_psd(matnum.herm_part(-1j * form), tol)
    return ok


def is_maximal_dissipative(t: LinearRelation, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """Dissipative with invertible bottom + i top (full parameter count needed).

    The basis is orthonormal, so invertibility is judged at unit scale.
    """
    if t.dim != t.ambient:
        return False
    return is_dissipative(t, tol) and matnum.definitely_invertible(t.bottom + 1j * t.top)


def _negative(t: LinearRelation) -> LinearRelation:
    """-T = {(f, -g) : (f, g) in T}: T is (maximal) accumulative iff -T is (maximal) dissipative."""
    return LinearRelation(t.ambient, np.vstack([t.top, -t.bottom]))


def is_accumulative(t: LinearRelation, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    return is_dissipative(_negative(t), tol)


def is_maximal_accumulative(t: LinearRelation, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    return is_maximal_dissipative(_negative(t), tol)


def is_selfadjoint(t: LinearRelation, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """Symmetric with both bottom +/- i top invertible; cross-checked against T* (eps_rank)."""
    if t.dim != t.ambient:
        return False
    if not is_symmetric(t, tol):
        return False
    if not all(matnum.definitely_invertible(np.stack([t.bottom + 1j * t.top,
                                                      t.bottom - 1j * t.top]))):
        return False
    return t.distance(adjoint(t)) <= tol.eps_rank


def resolvent_at(t: LinearRelation, z: complex) -> np.ndarray | None:
    """(T - z)^(-1) = top (bottom - z top)^(-1), or None when z is not regular."""
    if t.dim != t.ambient:
        return None
    z = complex(z)
    core = t.bottom - z * t.top
    if not matnum.definitely_invertible(core, 1.0 + abs(z)):
        return None
    return t.top @ matnum.inverse(core)


def intersect(
    t1: LinearRelation, t2: LinearRelation, tol: TolerancePolicy = DEFAULT_TOL
) -> LinearRelation:
    """Subspace intersection, via the null space of the stacked bases."""
    if t1.ambient != t2.ambient:
        raise matnum.MatrixShapeError("relations live in different spaces")
    coeffs = matnum.null_space(np.hstack([t1.basis, -t2.basis]), tol)
    vectors = t1.basis @ coeffs[: t1.dim]
    return LinearRelation(t1.ambient, matnum.range_space(vectors, tol))


def componentwise_sum(
    t1: LinearRelation, t2: LinearRelation, tol: TolerancePolicy = DEFAULT_TOL
) -> LinearRelation:
    """Span of the union, {(f + h, g + k)} over both relations."""
    if t1.ambient != t2.ambient:
        raise matnum.MatrixShapeError("relations live in different spaces")
    return LinearRelation.from_span(np.hstack([t1.basis, t2.basis]), tol)


def operator_sum(
    t1: LinearRelation, t2: LinearRelation, tol: TolerancePolicy = DEFAULT_TOL
) -> LinearRelation:
    """{(f, g + h) : (f, g) in T1, (f, h) in T2}, matched on common inputs."""
    if t1.ambient != t2.ambient:
        raise matnum.MatrixShapeError("relations live in different spaces")
    coeffs = matnum.null_space(np.hstack([t1.top, -t2.top]), tol)
    a, b = coeffs[: t1.dim], coeffs[t1.dim :]
    f = t1.top @ a
    g = t1.bottom @ a + t2.bottom @ b
    return LinearRelation.from_span(np.vstack([f, g]), tol)


def contains(
    small: LinearRelation, big: LinearRelation, tol: TolerancePolicy = DEFAULT_TOL
) -> bool:
    """Subspace containment, tested against the projection onto the big span."""
    proj = big.basis @ (big.basis.conj().T @ small.basis)
    return matnum.spectral_norm(small.basis - proj) <= tol.eps_rank


def symmetric_core(
    pair: PairEvaluator, z: complex, tol: TolerancePolicy = DEFAULT_TOL
) -> LinearRelation:
    """Largest symmetric sub-relation F(z) cap F(conj z), point-independent.

    Spanned by (Phi(z) u, Psi(z) u) over the null space of the diagonal
    pair kernel at z; coincides with intersect(T, adjoint(T)) for the
    snapshot T at z.
    """
    z = herglotz.upper_point(z, "symmetric_core")
    phi, psi = pair(z)
    kern = matnum.herm_part(diagonal_kernel(phi, psi, z, tol))
    params = matnum.null_space(kern, tol)
    span = np.vstack([phi @ params, psi @ params])
    return LinearRelation.from_span(span, tol)
