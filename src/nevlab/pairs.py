"""Nevanlinna pairs {Phi, Psi} and their transforms.

A pair is a rule z -> (Phi(z), Psi(z)) of square matrices, holomorphic off
the real axis, subject to three axioms checked numerically by ``validate``:

    positivity     -i (Phi* Psi - Psi* Phi) / sign(Im z)  is PSD,
    symmetry       Psi(conj z)* Phi(z) - Phi(conj z)* Psi(z) = 0,
    invertibility  Psi(z) + i Phi(z)  (upper half-plane, lower with -i)
                   has a reliable inverse.

The stacked columns [Phi(z); Psi(z)] span a maximal dissipative linear
relation for Im z > 0; the pair is the multivalued-friendly carrier of a
family.  The module provides the canonical pair of an operator family,
the two-point pair kernel, the Cayley transform into the Schur class with
its kernel identity, transformations by constant unitaries of the
indefinite (Krein) inner product on H + H, and graph-equivalence testing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import herglotz, matnum
from .herglotz import FamilyEvaluator, HerglotzRep
from .matnum import DEFAULT_TOL, TolerancePolicy, _adjoint

RCOND_MIN = matnum.INVERTIBLE_MIN  # the solve guard is the invertibility threshold


class PairAxiomError(ValueError):
    """Raised when constructing a transform from data violating its preconditions."""


class DiagonalKernelError(ValueError):
    """Raised for the pair kernel at z = conj(w), where it is undefined."""


@dataclass
class PairEvaluator:
    """Rule z -> (Phi(z), Psi(z)) with a provenance tag.

    As for ``FamilyEvaluator``: ``on_grid`` evaluates a whole grid at once,
    a library-built pair carries a stacked rule ``grid_fn`` (points ->
    (Phi stack, Psi stack)), and a user-supplied ``fn`` becomes a grid
    rule that calls it point by point; exactly one of the two is given.
    Values are memoised per point (``herglotz.ValueMemo``), so either rule
    must be pure.
    """

    dim: int
    fn: Callable[[complex], tuple[np.ndarray, np.ndarray]] | None
    provenance: str = "explicit"
    grid_fn: Callable[[tuple[complex, ...]], tuple[np.ndarray, np.ndarray]] | None = None
    memo: herglotz.ValueMemo = field(default_factory=herglotz.ValueMemo, init=False,
                                     repr=False, compare=False)

    def __post_init__(self):
        if (self.fn is None) == (self.grid_fn is None):
            raise TypeError("a pair needs exactly one of fn and grid_fn")
        if self.grid_fn is None:  # (Phi list, Psi list) from the point rule
            self.grid_fn = lambda zs, fn=self.fn: [list(b) for b in zip(*map(fn, zs))] or [[], []]

    def __call__(self, z: complex) -> tuple[np.ndarray, np.ndarray]:
        phis, psis = self.on_grid((z,))
        return phis[0], psis[0]

    def on_grid(self, zs: Sequence[complex]) -> tuple[np.ndarray, np.ndarray]:
        """(Phi, Psi) at every point of zs as two (G, n, n) stacks, checked once."""
        return self.memo.stacks(tuple(complex(z) for z in zs), lambda new: tuple(
            matnum.as_stack(blocks, len(new), self.dim, "pair block")
            for blocks in self.grid_fn(new)))

    def stacked(self, z: complex) -> np.ndarray:
        phi, psi = self(z)
        return np.vstack([phi, psi])

    @classmethod
    def constant(cls, phi0, psi0) -> "PairEvaluator":
        phi0, psi0 = matnum.as_matrix(phi0), matnum.as_matrix(psi0)

        def grid_fn(zs):  # stacks of their own, writable like every returned stack
            return np.repeat(phi0[None], len(zs), 0), np.repeat(psi0[None], len(zs), 0)

        return cls(phi0.shape[0], None, "constant", grid_fn)


def canonical_pair(family: FamilyEvaluator | HerglotzRep) -> PairEvaluator:
    """Canonical pair Phi = (F(z) +/- i)^(-1), Psi = I -/+ i Phi of a family.

    The sign follows the half-plane of z, so Psi(z) + i Phi(z) = I above the
    axis and Psi(z) - i Phi(z) = I below it.  The stacked columns span the
    graph of F(z).  Raises a conditioning error when F(z) +/- i is not
    reliably invertible, which signals that the family is not maximal
    dissipative / accumulative.  Over a grid the inverse and its guard are
    one batched call; the first failing point raises.
    """
    family = herglotz.as_family(family)
    eye = np.eye(family.dim, dtype=np.complex128)

    def grid_fn(zs):
        shifts = herglotz.imag_signs(zs) * 1j
        phis = matnum.inverse(family.on_grid(zs) + shifts * eye, RCOND_MIN)
        return phis, eye - shifts * phis

    return PairEvaluator(family.dim, None, "canonical-from-family", grid_fn)


@dataclass(frozen=True)
class PairValidation:
    """Per-sample residuals of the three pair axioms."""

    samples: tuple[complex, ...]
    positivity_margins: tuple[float, ...]  # min eigenvalue, scaled
    symmetry_residuals: tuple[float, ...]
    invertibility_rconds: tuple[float, ...]
    passed: bool


def validate(
    pair: PairEvaluator,
    z_samples: Sequence[complex] | None = None,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> PairValidation:
    """Check the three pair axioms at the samples; report, never raise.

    Each axiom is decided for every sample at once, on the stacks of one
    grid evaluation.
    """
    offaxis = herglotz.offaxis_points(z_samples, "validate")
    count = len(offaxis)
    phis, psis = pair.on_grid(offaxis + tuple(z.conjugate() for z in offaxis))
    phi, psi, phib, psib = phis[:count], psis[:count], phis[count:], psis[count:]
    signs = herglotz.imag_signs(offaxis)
    lams = matnum.herm_part_eig(-1j * boundary_form(phi, psi, phi, psi) / signs)
    oks, lam_mins = matnum.psd_from(lams, tol)
    margins = lam_mins / (1.0 + np.abs(lams).max(axis=1, initial=0.0))
    norm_phi, norm_psi = matnum.spectral_norm(np.concatenate([phi, psi])).reshape(2, count)
    residuals = (matnum.spectral_norm(boundary_form(psi, phi, psib, phib))  # -D(z, conj z)
                 / (1.0 + norm_phi * norm_psi))
    rconds = matnum.rcond(psi + signs * 1j * phi)
    passed = all(oks) and bool((residuals <= tol.eps_eq).all() and (rconds >= RCOND_MIN).all())
    return PairValidation(offaxis, tuple(margins.tolist()), tuple(residuals.tolist()),
                          tuple(rconds.tolist()), passed)


def boundary_form(phi_z, psi_z, phi_w, psi_w) -> np.ndarray:
    """D(z, w) = Phi(w)* Psi(z) - Psi(w)* Phi(z) = i T(w)* J T(z), slice by slice of a stack.

    T = [Phi; Psi] and J = ``krein_j``.  The pair kernel is D(z, w) / (z - conj w); the
    positivity axiom reads -i D(z, z), and a relation's snapshot form is D at one point.
    """
    return _adjoint(phi_w) @ psi_z - _adjoint(psi_w) @ phi_z


def pair_kernel(
    pair: PairEvaluator,
    z: complex,
    w: complex,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> np.ndarray:
    """Two-point kernel (Phi(w)* Psi(z) - Psi(w)* Phi(z)) / (z - conj w).

    Hermitian and PSD on the diagonal w = z for Im z > 0.  Points with
    z = conj(w) are rejected: the pair kernel has no derivative branch.
    """
    z, w = complex(z), complex(w)
    phis, psis = pair.on_grid((z, w))
    return _kernel(phis[0], psis[0], phis[1], psis[1], z, w, tol)


def diagonal_kernel(
    phi: np.ndarray, psi: np.ndarray, z: complex, tol: TolerancePolicy = DEFAULT_TOL
) -> np.ndarray:
    """``pair_kernel(pair, z, z)`` from the blocks (Phi, Psi) = pair(z)."""
    return _kernel(phi, psi, phi, psi, complex(z), complex(z), tol)


def _kernel(phi_z, psi_z, phi_w, psi_w, z, w, tol: TolerancePolicy) -> np.ndarray:
    """The pair kernel at (z, w) from the blocks there; DiagonalKernelError at z = conj(w)."""
    if herglotz.conjugate_points(z, w, tol):
        raise DiagonalKernelError("pair kernel undefined at z = conj(w)")
    return boundary_form(phi_z, psi_z, phi_w, psi_w) / (z - np.conj(w))


def cayley_values(phis: np.ndarray, psis: np.ndarray) -> np.ndarray:
    """Cayley transforms (Psi - i Phi)(Psi + i Phi)^(-1) of block stacks, one batched solve."""
    x, _ = matnum.solve(_adjoint(psis + 1j * phis), _adjoint(psis - 1j * phis), RCOND_MIN)
    return _adjoint(x)


def cayley(pair: PairEvaluator, z: complex) -> np.ndarray:
    """Cayley transform (Psi - i Phi)(Psi + i Phi)^(-1), a contraction on C_+."""
    phis, psis = pair.on_grid((herglotz.upper_point(z, "cayley"),))
    return cayley_values(phis, psis)[0]


def schur_kernel(pair: PairEvaluator, z: complex, w: complex) -> np.ndarray:
    """Schur-class kernel (I - C(w)* C(z)) / (-i (z - conj w)) on C_+."""
    return _schur_kernel(pair, z, w)[0]


def _schur_kernel(pair: PairEvaluator, z: complex, w: complex):
    """The Schur kernel at (z, w) with the pair's blocks there, from one grid evaluation."""
    z, w = herglotz.upper_point(z, "schur_kernel"), herglotz.upper_point(w, "schur_kernel")
    phis, psis = pair.on_grid((z, w))
    cz, cw = cayley_values(phis, psis)
    eye = np.eye(pair.dim, dtype=np.complex128)
    return (eye - cw.conj().T @ cz) / (-1j * (z - np.conj(w))), phis, psis


def kernel_identity_residual(pair: PairEvaluator, z: complex, w: complex) -> float:
    """Relative residual of K(z,w) = 2 (Psi+iPhi)(w)^-* N(z,w) (Psi+iPhi)(z)^-1.

    Both kernels come from one evaluation of the pair, at (z, w).
    """
    z, w = complex(z), complex(w)
    k, phis, psis = _schur_kernel(pair, z, w)
    n = _kernel(phis[0], psis[0], phis[1], psis[1], z, w, DEFAULT_TOL)
    right, left_t = matnum.inverse(
        np.stack([psis[0] + 1j * phis[0], (psis[1] + 1j * phis[1]).conj().T]), RCOND_MIN)
    recon = 2.0 * left_t @ n @ right
    return matnum.spectral_norm(k - recon) / (1.0 + matnum.spectral_norm(k))


# -- transforms ---------------------------------------------------------------


def krein_j(dim: int) -> np.ndarray:
    """Fundamental symmetry [[0, -iI], [iI, 0]] of the indefinite metric on H+H.

    With T(z) the stacked pair columns, T(w)* J T(z) / (-i (z - conj w))
    reproduces the pair kernel, which pins this matrix uniquely.
    """
    eye = np.eye(dim, dtype=np.complex128)
    zero = np.zeros((dim, dim), dtype=np.complex128)
    return np.block([[zero, -1j * eye], [1j * eye, zero]])


RANDOM_STEP = 0.5  # generator norm bound of JUnitary.random: ||W||, ||W^-1|| <= e^0.5


@dataclass(frozen=True)
class JUnitary:
    """Constant 2n x 2n matrix W with W* J W = J (unitary for the J-metric)."""

    w: np.ndarray
    dim: int

    @classmethod
    def create(cls, w, tol: TolerancePolicy = DEFAULT_TOL) -> "JUnitary":
        w = matnum.as_matrix(w)
        if w.shape[0] != w.shape[1] or w.shape[0] % 2:
            raise matnum.MatrixShapeError("J-unitary must be square of even size")
        dim = w.shape[0] // 2
        j = krein_j(dim)
        resid = matnum.spectral_norm(w.conj().T @ j @ w - j)
        if resid > tol.eps_eq * (1.0 + matnum.spectral_norm(w) ** 2):
            raise PairAxiomError(f"W* J W != J (residual {resid:.3e})")
        return cls(w, dim)

    @classmethod
    def shift(cls, x, tol: TolerancePolicy = DEFAULT_TOL) -> "JUnitary":
        """[[I, 0], [X, I]] for Hermitian X; sends {Phi, Psi} to {Phi, Psi + X Phi}."""
        x = matnum.as_hermitian(matnum.as_matrix(x), tol,
                                PairAxiomError("shift parameter must be Hermitian"))
        d = x.shape[0]
        eye, zero = np.eye(d), np.zeros((d, d))
        return cls.create(np.block([[eye, zero], [x, eye]]), tol)

    @classmethod
    def scale(cls, y, tol: TolerancePolicy = DEFAULT_TOL) -> "JUnitary":
        """[[Y^-1, 0], [0, Y*]] for invertible Y; sends {Phi, Psi} to {Y^-1 Phi, Y* Psi}."""
        y = matnum.as_matrix(y)
        d = y.shape[0]
        y_inv = matnum.inverse(y, RCOND_MIN)
        zero = np.zeros((d, d))
        return cls.create(np.block([[y_inv, zero], [zero, y.conj().T]]), tol)

    @classmethod
    def flip(cls, dim: int) -> "JUnitary":
        """[[0, -I], [I, 0]]; sends {Phi, Psi} to {-Psi, Phi} (inverse-negative family)."""
        eye, zero = np.eye(dim), np.zeros((dim, dim))
        return cls.create(np.block([[zero, -eye], [eye, zero]]))

    @classmethod
    def random(cls, dim: int, rng: np.random.Generator) -> "JUnitary":
        """Random J-unitary via the exponential of a J-skew generator."""
        from scipy.linalg import expm

        def cgauss(n):
            return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

        a = cgauss(dim)
        b = matnum.herm_part(cgauss(dim))
        c = matnum.herm_part(cgauss(dim))
        gen = np.block([[a, b], [c, -a.conj().T]])
        return cls.create(expm(RANDOM_STEP * gen / max(1.0, matnum.spectral_norm(gen))))


def transform(pair: PairEvaluator, w: JUnitary | np.ndarray) -> PairEvaluator:
    """Apply a constant J-unitary to the stacked pair columns.

    The pair kernel is preserved identically, so the output is again a
    valid pair whenever the input is.
    """
    if not isinstance(w, JUnitary):
        w = JUnitary.create(w)
    if w.dim != pair.dim:
        raise matnum.MatrixShapeError("J-unitary dimension mismatch")
    d = pair.dim

    def grid_fn(zs):
        t = w.w @ np.concatenate(pair.on_grid(zs), axis=1)
        return t[:, :d], t[:, d:]

    return PairEvaluator(d, None, "transformed", grid_fn)


def herglotz_shift_transform(
    pair: PairEvaluator, m: HerglotzRep, tol: TolerancePolicy = DEFAULT_TOL
) -> PairEvaluator:
    """{Phi, Psi + M(z) Phi} for a uniformly strict shift function M."""
    cls = herglotz.classify(m, tol)
    if cls.label != herglotz.CLASS_UNIFORM:
        raise PairAxiomError(
            f"shift function must be uniformly strict, classified {cls.label}"
        )
    if m.dim != pair.dim:
        raise matnum.MatrixShapeError("shift function dimension mismatch")

    def grid_fn(zs):
        phis, psis = pair.on_grid(zs)
        return phis, psis + herglotz.evaluate_grid(m, zs) @ phis

    return PairEvaluator(pair.dim, None, "transformed", grid_fn)


def reparametrized(
    pair: PairEvaluator, chi: np.ndarray | Callable[[complex], np.ndarray]
) -> PairEvaluator:
    """Equivalent pair {Phi chi, Psi chi} for invertible holomorphic chi.

    A callable chi is called point by point; a constant chi is shared.
    """

    def grid_fn(zs):
        if callable(chi):
            cs = matnum.as_stack([chi(z) for z in zs], len(zs), pair.dim, "chi value")
        else:
            cs = matnum.as_matrix(chi)
        phis, psis = pair.on_grid(zs)
        return phis @ cs, psis @ cs

    return PairEvaluator(pair.dim, None, "explicit", grid_fn)


def pair_direct_sum(pa: PairEvaluator, pb: PairEvaluator) -> PairEvaluator:
    """Block-diagonal direct sum of two pairs."""
    return PairEvaluator(pa.dim + pb.dim, None, "explicit", lambda zs: tuple(
        matnum._block_diag(a, b) for a, b in zip(pa.on_grid(zs), pb.on_grid(zs))))


def equivalent(
    pair1: PairEvaluator,
    pair2: PairEvaluator,
    z_samples: Sequence[complex] | None = None,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> bool:
    """True iff both pairs span the same graph at every sample point (one evaluation each)."""
    zs = herglotz.offaxis_points(z_samples, "equivalent")
    if pair1.dim != pair2.dim:
        return False
    us, vs = (matnum.range_space(np.concatenate(p.on_grid(zs), 1), tol) for p in (pair1, pair2))
    widths = [u.shape[1] for u in us]
    if widths != [v.shape[1] for v in vs]:
        return False
    for width in set(widths):  # one batched distance call per span dimension
        u, v = (np.stack([b for b in bases if b.shape[1] == width]) for bases in (us, vs))
        if matnum.subspace_distances(u, v).max() > tol.eps_rank:
            return False
    return True
