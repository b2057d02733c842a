"""Matrix-valued Herglotz-Nevanlinna functions with finite atomic measures.

A concrete function of the class is stored as the data of its integral
representation

    F(z) = B0 + B1 z + sum_j ( 1/(t_j - z) - t_j/(t_j^2 + 1) ) W_j,

with B0 Hermitian, B1 PSD and finitely many atoms (t_j, W_j), W_j PSD: one
``HerglotzRep`` holds B0, B1 and the atoms' locations and weights.
Such F is holomorphic off the real axis, satisfies F(conj z) = F(z)* and
has PSD imaginary part in the upper half-plane.  The module evaluates F,
its derivative and Poisson-form imaginary part, builds the two-point
difference kernel

    N_F(z, w) = (F(z) - F(w)*) / (z - conj w),        N_F(z, z) via F'(z),

assembles Gram matrices of that kernel, classifies families into the
plain / strict / uniformly strict subclasses by the value at z = i, and
recovers measure weight from boundary values (Stieltjes inversion).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import matnum
from .matnum import DEFAULT_TOL, TolerancePolicy


class PoleError(ValueError):
    """Raised when evaluating at (or too close to) a real atom location."""


class DomainError(ValueError):
    """Raised when an argument lies in the wrong half-plane or on the axis."""


class SweepDivergenceError(RuntimeError):
    """Raised when a Stieltjes inversion eta-sweep fails to settle."""


#: Default z-grid for "for all z off the real axis" checks: five real parts
#: crossed with three heights, plus complex conjugates (30 points).
GRID_REAL_PARTS = (-2.0, -0.5, 0.0, 0.7, 3.0)
GRID_HEIGHTS = (0.1, 1.0, 10.0)


def upper_grid() -> tuple[complex, ...]:
    return tuple(complex(x, y) for x in GRID_REAL_PARTS for y in GRID_HEIGHTS)


def default_grid() -> tuple[complex, ...]:
    upper = upper_grid()
    return upper + tuple(z.conjugate() for z in upper)


# -- the point gate: every "for all z off the axis" or "for all z in C_+" of the
# library reads its points, half-planes and signs here


def offaxis_points(grid: Sequence[complex] | None = None, caller: str = "") -> tuple[complex, ...]:
    """The points of grid off the real axis, in grid order (None: ``default_grid()``).

    A caller named here quantifies over them: none raises DomainError naming it.
    """
    return _points(grid, lambda z: z.imag != 0, caller, "off the real axis")


def upper_points(grid: Sequence[complex] | None = None, caller: str = "") -> tuple[complex, ...]:
    """The points of grid in C_+, in grid order (None: ``default_grid()``); caller as above."""
    return _points(grid, lambda z: z.imag > 0, caller, "in C_+")


def _points(grid, keep, caller: str, where: str) -> tuple[complex, ...]:
    zs = tuple(z for z in map(complex, default_grid() if grid is None else grid) if keep(z))
    if caller and not zs:
        raise DomainError(f"{caller}: the grid has no point {where}")
    return zs


def imag_signs(zs: Sequence[complex]) -> np.ndarray:
    """sign(Im z) of each off-axis point, float64 shaped (G, 1, 1) to scale a stack."""
    return np.array([1.0 if z.imag > 0 else -1.0 for z in zs]).reshape(-1, 1, 1)


def upper_point(z: complex, caller: str) -> complex:
    """z as a complex in C_+, or DomainError naming the caller."""
    z = complex(z)
    if z.imag <= 0:
        raise DomainError(f"{caller} needs a point in C_+, got {z}")
    return z


def offaxis_point(z: complex, caller: str) -> complex:
    """z as a complex off the real axis, or DomainError naming the caller."""
    z = complex(z)
    if z.imag == 0:
        raise DomainError(f"{caller} needs a point off the real axis, got {z}")
    return z


def conjugate_points(z: complex, w: complex, tol: TolerancePolicy) -> bool:
    """Whether z = conj(w) within eps_eq * (|z| + |w|): a two-point kernel's diagonal."""
    return abs(z - np.conj(w)) <= tol.eps_eq * (abs(z) + abs(w))


@dataclass(frozen=True)
class HerglotzRep:
    """Representation data (B0, B1, atoms (t_j, W_j)) of one concrete function.

    The locations are distinct and increasing (canonical order), each W_j is
    PSD and dim x dim, and so is the normalization sum ``k_sigma``.
    """

    b0: np.ndarray
    b1: np.ndarray
    locations: tuple[float, ...]
    weights: tuple[np.ndarray, ...]
    dim: int

    @classmethod
    def create(
        cls,
        b0,
        b1,
        measure: Sequence[tuple[float, np.ndarray]] | None = None,
        tol: TolerancePolicy = DEFAULT_TOL,
    ) -> "HerglotzRep":
        """Checked data from B0, B1 and the atom list ``measure`` (None or [] for none).

        Each weight is PSD within ``psd_from``'s floor, and floors do not add up:
        weights diag(-0.9e-10, 0) at t = 0 and t = 1e-8 each pass, and their
        normalization sum, lambda_min = -1.8e-10, is rejected.
        """
        b0 = matnum.as_matrix(b0)
        b1 = matnum.as_matrix(b1)
        dim = b0.shape[0]
        if b0.shape != (dim, dim) or b1.shape != (dim, dim):
            raise matnum.MatrixShapeError("B0 and B1 must be square and equal-sized")
        b0 = matnum.as_hermitian(b0, tol, matnum.HermitianityError("B0 must be Hermitian"))
        ok, lam = matnum.is_psd(b1, tol)
        if not ok:
            raise ValueError(f"B1 must be PSD (lambda_min={lam:.3e})")
        locs, ws = [], []
        for t, w in sorted(((float(t), matnum.as_matrix(w)) for t, w in measure or ()),
                           key=lambda p: p[0]):
            if w.shape != (dim, dim):
                raise matnum.MatrixShapeError("measure dimension mismatch")
            ok, lam = matnum.is_psd(w, tol)
            if not ok:
                raise ValueError(f"weight at t={t} is not PSD (lambda_min={lam:.3e})")
            if locs and t == locs[-1]:
                raise ValueError("atom locations must be distinct")
            locs.append(t)
            ws.append(matnum.herm_part(w))
        rep = cls(b0, matnum.herm_part(b1), tuple(locs), tuple(ws), dim)
        ok, lam = matnum.is_psd(rep.k_sigma(), tol) if locs else (True, 0.0)
        if not ok:
            raise ValueError(f"normalization sum not PSD (lambda_min={lam:.3e})")
        return rep

    def k_sigma(self) -> np.ndarray:
        """Normalization sum K = sum_j W_j / (1 + t_j^2)."""
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for t, w in zip(self.locations, self.weights):
            out += w / (1.0 + t * t)
        return out


def _check_point(rep: HerglotzRep, z: complex) -> complex:
    z = complex(z)
    if z.imag == 0.0 and any(z.real == t for t in rep.locations):
        raise PoleError(f"z={z} coincides with an atom location")
    return z


def evaluate(rep: HerglotzRep, z: complex) -> np.ndarray:
    """Value B0 + B1 z + sum_j (1/(t_j - z) - t_j/(t_j^2+1)) W_j.

    Defined off the real axis and at real z distinct from every atom.
    """
    return evaluate_grid(rep, (z,))[0]


def evaluate_grid(rep: HerglotzRep, zs: Sequence[complex]) -> np.ndarray:
    """``evaluate`` at every point of zs, as a (G, n, n) stack.

    One pass per atom, vectorised over the grid.  Each coefficient
    1/(t_j - z) - t_j/(t_j^2+1) is a Python complex scalar: numpy's
    vectorised complex division rounds differently, and every value must
    be the one ``evaluate`` gives at its point alone.
    """
    zs = [_check_point(rep, z) for z in zs]
    locs = rep.locations
    coefs = np.array([[1.0 / (t - z) - t / (t * t + 1.0) for z in zs] for t in locs],
                     dtype=np.complex128).reshape(len(locs), len(zs), 1, 1)
    out = rep.b0 + rep.b1 * np.array(zs, dtype=np.complex128).reshape(-1, 1, 1)
    for coef, w in zip(coefs, rep.weights):
        out = out + coef * w
    return out


def derivative(rep: HerglotzRep, z: complex) -> np.ndarray:
    """Complex derivative B1 + sum_j W_j / (t_j - z)^2, the kernel N(z, conj z)."""
    return _kernels(rep, (z,), (complex(z).conjugate(),), DEFAULT_TOL)[0, 0]


def imag_poisson(rep: HerglotzRep, z: complex) -> np.ndarray:
    """Imaginary part in Poisson form, B1 y + sum_j y/((x-t_j)^2+y^2) W_j = y N(z, z).

    Requires Im z > 0; coincides with imag_part(evaluate(rep, z)).
    """
    z = upper_point(z, "imag_poisson")
    return z.imag * _kernels(rep, (z,), (z,), DEFAULT_TOL)[0, 0]


MEMO_BYTES = 1 << 18  # what one evaluator keeps: every point of a small family, none from n = 128
MEMO_MATRIX_BYTES = 512  # Python objects behind one kept matrix (header, view, key, slot), measured


class ValueMemo:
    """An evaluator's values by point, (Re z, Im z) with -0.0 read as 0.0.

    ``stacks`` hands the rule only the distinct points not yet seen, in grid
    order, and keeps a copy of their values while it holds at most
    MEMO_BYTES, each matrix counted with MEMO_MATRIX_BYTES besides its
    entries; no returned stack is one it keeps.  The rule must be pure.
    """

    def __init__(self):
        self.values, self.nbytes = {}, 0  # (Re z, Im z) -> value blocks; their bytes
        self.lock = threading.Lock()  # evaluators may be shared between threads

    def stacks(self, zs: tuple[complex, ...], rule) -> tuple[np.ndarray, ...]:
        """rule's (G, n, n) stacks at zs; rule maps distinct points to such a tuple."""
        keys = [(z.real + 0.0, z.imag + 0.0) for z in zs]
        new = {k: z for k, z in zip(keys, zs) if k not in self.values}
        stacks = rule(tuple(new.values())) if new or not zs else ()
        nbytes = sum(s.nbytes + MEMO_MATRIX_BYTES * len(s) for s in stacks)
        with self.lock:  # keep the block unless another thread kept one of its points
            if new and self.nbytes + nbytes <= MEMO_BYTES and self.values.keys().isdisjoint(new):
                self.nbytes += nbytes
                self.values.update(zip(new, zip(*(s.copy() for s in stacks))))
        if len(new) == len(keys):
            return stacks
        fresh = dict(zip(new, zip(*stacks)))
        per_point = [fresh[k] if k in fresh else self.values[k] for k in keys]
        return tuple(np.array(part) for part in zip(*per_point))


@dataclass
class FamilyEvaluator:
    """A rule z -> F(z) on the complex plane off the real axis.

    Families are realized by a representation, by representation plus a
    constant Hermitian offset, or by the example builders; the symmetry
    F(conj z) = F(z)* is asserted on demand (``symmetry_residual``), not
    assumed.  ``on_grid`` evaluates a whole grid at once and calling the
    family at one point is its one-point case.  A family is built from
    exactly one rule: a library-built family carries a stacked rule
    ``grid_fn`` (points -> (G, n, n) stack); a user-supplied rule ``fn``
    (one point -> matrix) becomes a grid rule that calls it point by point.
    Values are memoised per point (``ValueMemo``), so either rule must be
    pure: the same point always gives the same matrix.
    """

    dim: int
    fn: Callable[[complex], np.ndarray] | None
    provenance: str = "custom"
    rep: HerglotzRep | None = None
    offset: np.ndarray | None = None
    grid_fn: Callable[[tuple[complex, ...]], np.ndarray] | None = None
    memo: ValueMemo = field(default_factory=ValueMemo, init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.fn is None) == (self.grid_fn is None):
            raise TypeError("a family needs exactly one of fn and grid_fn")
        if self.grid_fn is None:
            self.grid_fn = lambda zs, fn=self.fn: [fn(z) for z in zs]

    def __call__(self, z: complex) -> np.ndarray:
        return self.on_grid((z,))[0]

    def on_grid(self, zs: Sequence[complex]) -> np.ndarray:
        """F at every point of zs as a (G, n, n) stack, shape and finiteness checked once."""
        return self.memo.stacks(tuple(complex(z) for z in zs), lambda new: (
            matnum.as_stack(self.grid_fn(new), len(new), self.dim, "family produced"),))[0]

    def symmetry_residual(self, zs: Sequence[complex] | None = None) -> float:
        """Worst relative residual of F(conj z) - F(z)* over the off-axis samples.

        None means ``upper_grid()``; samples without an off-axis point raise DomainError.
        """
        zs = upper_grid() if zs is None else offaxis_points(zs, "symmetry_residual")
        values = self.on_grid(zs + tuple(complex(z).conjugate() for z in zs))
        return _symmetry_residual(values[: len(zs)], values[len(zs) :])

    @classmethod
    def from_rep(cls, rep: HerglotzRep) -> "FamilyEvaluator":
        return cls(rep.dim, None, "herglotz-rep", rep, None, lambda zs: evaluate_grid(rep, zs))

    @classmethod
    def from_rep_with_offset(
        cls, rep: HerglotzRep, offset, tol: TolerancePolicy = DEFAULT_TOL
    ) -> "FamilyEvaluator":
        t0 = matnum.as_matrix(offset)
        if t0.shape != (rep.dim, rep.dim):
            raise matnum.MatrixShapeError("offset dimension mismatch")
        t0 = matnum.as_hermitian(t0, tol, matnum.HermitianityError("offset must be Hermitian"))
        return cls(rep.dim, None, "rep-plus-offset", rep, t0,
                   lambda zs: evaluate_grid(rep, zs) + t0)

    @classmethod
    def from_callable(cls, fn: Callable[[complex], np.ndarray], dim: int) -> "FamilyEvaluator":
        return cls(int(dim), fn, "custom")


def as_family(f: FamilyEvaluator | HerglotzRep) -> FamilyEvaluator:
    """The family of a representation; a family as it is."""
    return FamilyEvaluator.from_rep(f) if isinstance(f, HerglotzRep) else f


def _symmetry_residual(at_z: np.ndarray, at_conj: np.ndarray) -> float:
    """Worst relative spectral residual of F(conj z) - F(z)* over two value stacks."""
    a, b = at_conj, matnum._adjoint(at_z)
    na, nb, nd = matnum.spectral_norm(np.concatenate([a, b, a - b])).reshape(3, len(a))
    return float(np.max(nd / (1.0 + np.maximum(na, nb)), initial=0.0))


def family_direct_sum(fa: FamilyEvaluator, fb: FamilyEvaluator) -> FamilyEvaluator:
    """Block-diagonal direct sum of two families."""
    return FamilyEvaluator(fa.dim + fb.dim, None, "direct-sum",
                           grid_fn=lambda zs: matnum._block_diag(fa.on_grid(zs), fb.on_grid(zs)))


def _kernels(f: HerglotzRep | FamilyEvaluator, zs: Sequence[complex], ws: Sequence[complex],
             tol: TolerancePolicy) -> np.ndarray:
    """The (G, H, n, n) block N(z_i, w_k) of ``nevanlinna_kernel``.

    One pass per atom, each (t_j - z)(t_j - conj w) a Python complex
    product; without representation data, the quotient of one evaluation.
    """
    zs, ws = [complex(z) for z in zs], [complex(w) for w in ws]
    shape = (len(zs), len(ws), 1, 1)
    rep = f if isinstance(f, HerglotzRep) else f.rep
    if rep is not None:
        zs = [_check_point(rep, z) for z in zs]
        w_bars = [_check_point(rep, w.conjugate()) for w in ws]
        out = np.broadcast_to(rep.b1, shape[:2] + rep.b1.shape).astype(np.complex128)
        for t, weight in zip(rep.locations, rep.weights):
            denoms = [(t - z) * (t - w_bar) for z in zs for w_bar in w_bars]
            out = out + weight / np.array(denoms, dtype=np.complex128).reshape(shape)
        return out
    if any(conjugate_points(z, w, tol) for z in zs for w in ws):
        raise DomainError("diagonal z = conj(w) needs representation data")
    values = f.on_grid(zs + ws)
    fz, fw_adj = values[: len(zs), None], matnum._adjoint(values[None, len(zs) :])
    return (fz - fw_adj) / np.subtract.outer(zs, np.conj(ws)).reshape(shape)


def nevanlinna_kernel(
    f: HerglotzRep | FamilyEvaluator,
    z: complex,
    w: complex,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> np.ndarray:
    """Difference kernel (F(z) - F(w)*) / (z - conj w).

    With representation data the kernel is taken in closed form,
    B1 + sum_j W_j / ((t_j - z)(t_j - conj w)); a Hermitian offset cancels.
    That form is a sum of PSD terms, so it keeps kernel_gram PSD to
    rounding even where the plain quotient cancels (points near the real
    axis), and on the diagonal z = conj w it is the derivative F'(z).
    Without representation data the plain quotient is used, and the
    diagonal (within eps_eq * (|z| + |w|)) raises DomainError.
    """
    return _kernels(f, (z,), (w,), tol)[0, 0]


def kernel_gram(
    f: HerglotzRep | FamilyEvaluator,
    points: Sequence[complex],
    vectors: Sequence[np.ndarray],
    tol: TolerancePolicy = DEFAULT_TOL,
) -> np.ndarray:
    """Gram matrix G[i, j] = <N(z_j, z_i) h_j, h_i> of the difference kernel.

    PSD (within eps_psd) for every function of the class; rank-deficient
    when point/vector pairs repeat.  One kernel block, one contraction.
    """
    if len(points) != len(vectors):
        raise ValueError("points and vectors must have equal length")
    hs = np.array([np.ravel(h) for h in vectors], dtype=np.complex128).reshape(len(points), f.dim)
    return np.einsum("ia,jiab,jb->ij", hs.conj(), _kernels(f, points, points, tol), hs)


CLASS_NOT_NEV = "not-R"
CLASS_PLAIN = "R"
CLASS_STRICT = "R^s"
CLASS_UNIFORM = "R^u"


@dataclass(frozen=True)
class Classification:
    """Class label with the scalar witnesses behind the decision."""

    label: str
    lam_min: float
    kernel_dim: int
    symmetry_residual: float
    dissipativity_margin: float

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.label


def classify(
    family: FamilyEvaluator | HerglotzRep,
    tol: TolerancePolicy = DEFAULT_TOL,
    grid: Sequence[complex] | None = None,
) -> Classification:
    """Classify a family as not-R / R / R^s / R^u.

    Membership is screened on the full grid (half-plane dissipativity and
    the symmetry F(conj z) = F(z)*); the subclass decision is ``strictness``
    of the single value Im F(i), read from its one eigensolve.
    """
    family = as_family(family)
    offaxis = offaxis_points(grid, "classify")
    upper = upper_points(offaxis)
    count, signs = len(offaxis), imag_signs(offaxis)
    values = family.on_grid(offaxis + tuple(z.conjugate() for z in upper) + (1j,))
    sym = _symmetry_residual(values[:count][signs[:, 0, 0] > 0], values[count:-1])
    oks, lams = matnum.is_psd(matnum.imag_part(values[:count]) * signs, tol)
    margin = float(np.min(lams, initial=np.inf))
    label, lam_min, kernel_dim = strictness(matnum.herm_part_eig(matnum.imag_part(values[-1])), tol)
    if not (sym <= tol.eps_eq and all(oks)):
        label, kernel_dim = CLASS_NOT_NEV, -1
    return Classification(label, lam_min, kernel_dim, sym, margin)


def strictness(lams, tol: TolerancePolicy) -> tuple[str, float, int]:
    """(label, lambda_min, kernel_dim) of a PSD kernel value from its ascending eigenvalues.

    A kernel (n - ``rank_from``) gives R; else lambda_min >= 10 eps_psd (1 + max |lambda|)
    gives the uniformly strict R^u, and anything less the strict R^s.
    """
    lam_min, kernel_dim = float(lams[0]), len(lams) - matnum.rank_from(lams, tol)
    if kernel_dim > 0:
        return CLASS_PLAIN, lam_min, kernel_dim
    uniform = lam_min >= 10.0 * tol.eps_psd * (1.0 + float(np.abs(lams).max()))
    return (CLASS_UNIFORM if uniform else CLASS_STRICT), lam_min, kernel_dim


STIELTJES_ETAS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)  # last pair extrapolated, the one before checks it
QUAD_TOL = 1e-10  # quadrature accuracy, far below the 10 % settling test it feeds


def boundary_extrapolations(family: FamilyEvaluator, a: float, b: float,
                            etas: Sequence[float], power: int = 0) -> list[np.ndarray]:
    """Extrapolations to eta = 0 of (1/pi) integral_a^b x^power Im F(x + i eta) dx.

    One for each consecutive pair of heights, linear: the integral's error
    is asymptotically linear in eta.  The integrand calls the family's rule
    past its value memo, which would fill with nodes never asked for again.
    """
    from scipy.integrate import quad_vec  # here, so that importing nevlab loads no scipy

    def integrand(x: float, eta: float) -> np.ndarray:
        z = (complex(x, eta),)
        value = matnum.as_stack(family.grid_fn(z), 1, family.dim, "family produced")[0]
        return x**power * matnum.imag_part(value)

    values = [quad_vec(integrand, a, b, args=(eta,), epsabs=QUAD_TOL, epsrel=QUAD_TOL,
                       limit=400)[0] / np.pi for eta in etas]
    return [last + (last - prev) * (eta / (eta_prev - eta))
            for prev, last, eta_prev, eta in zip(values, values[1:], etas, etas[1:])]


def stieltjes_invert(family: FamilyEvaluator | HerglotzRep, a: float, b: float) -> np.ndarray:
    """Approximate total measure weight on (a, b) from boundary values.

    Takes the last two ``boundary_extrapolations`` over the geometric
    eta-sweep ``STIELTJES_ETAS``.  Raises SweepDivergenceError when they
    still differ by more than 10 percent; a small floor tied to the family
    scale keeps exact zeros (no measure in the window) from tripping the
    relative test.  With representation data an endpoint on an atom
    raises PoleError.
    """
    family = as_family(family)
    if family.rep is not None and any(a == t or b == t for t in family.rep.locations):
        raise PoleError("interval endpoints must avoid atom locations")
    a, b = float(a), float(b)
    if not a < b:
        raise ValueError("need a < b")
    older, final = boundary_extrapolations(family, a, b, STIELTJES_ETAS)[-2:]
    floor = 1e-6 * (1.0 + matnum.spectral_norm(matnum.imag_part(family(1j))))
    drift = matnum.spectral_norm(final - older)
    if drift > 0.10 * matnum.spectral_norm(final) + floor:
        raise SweepDivergenceError(
            "eta-sweep has not settled; successive extrapolations differ by > 10%"
        )
    return final
