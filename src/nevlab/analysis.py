"""Harnack constants, quadratic-form stability, additive splitting and decay.

The two-sided Harnack comparison

    c1 h(z1) <= h(z2) <= c2 h(z1)

is made computable for the cone of functions h(x + iy) = c y + integral of
the Poisson kernel P(z, t) = y / ((x - t)^2 + y^2) against a positive
measure; by the half-plane Herglotz representation this cone is exactly
the nonnegative harmonic functions.  The sharp constant is the supremum of
the pointwise Poisson-kernel ratio over the extended real line, which
Harnack's inequality gives in closed form: c2 = (1 + rho) / (1 - rho) with
rho the pseudo-hyperbolic distance of the points; ``certify_harnack``
checks it on the cone's extreme rays, where the ratio is stationary.
Nothing here draws a random number.  On top of this: the exact
Loewner-order sandwich c1 Im F(z0) <= Im F(z) <= c2 Im F(z0) of a
family, from one whitening and one stacked eigensolve (two more, in
absolute order, where Im F(z0) is singular or ill-conditioned), the
additive split F = G + T into a function with representation data plus
a constant Hermitian operator, the sharp modulus bound
c2(z) = sup |1 + z t| / |t - z|, the same constant between i and z, with
its weak / strong / factorized consequences for the measure tail, each
decided from one SVD on the range of K, and singular-value decay fitting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import herglotz, matnum
from .herglotz import FamilyEvaluator, HerglotzRep
from .matnum import DEFAULT_TOL, TolerancePolicy


# -- Harnack constants --------------------------------------------------------


@dataclass(frozen=True)
class HarnackPair:
    """Two points in the upper half-plane with their comparison constants."""

    z1: complex
    z2: complex
    c1: float
    c2: float


def _harnack_c2(z1: complex, z2: complex) -> float:
    """(1 + rho) / (1 - rho) = s^2 / (4 y1 y2) with s = |z1 - conj z2| + |z1 - z2|.

    Factored so that it overflows only where c2 itself leaves the float range:
    s >= 2 max(y1, y2), so 2 y is finite with s, and where s is not, the points
    are scaled by 1/8, exactly, since c2 is finite there only for normal heights.
    """
    try:
        s = abs(z1 - z2.conjugate()) + abs(z1 - z2)
    except OverflowError:  # abs raises where the modulus of finite parts passes the float range
        s = math.inf
    if s == math.inf:
        z1, z2 = complex(z1.real / 8, z1.imag / 8), complex(z2.real / 8, z2.imag / 8)
        s = abs(z1 - z2.conjugate()) + abs(z1 - z2)
    return (s / (2.0 * z1.imag)) * (s / (2.0 * z2.imag))


def harnack_constants(z1: complex, z2: complex) -> HarnackPair:
    """Sharp constants with c1 h(z1) <= h(z2) <= c2 h(z1) on the cone.

    Harnack's inequality is sharp and Moebius invariant: with rho the
    pseudo-hyperbolic distance |z1 - z2| / |z1 - conj z2|, c2 = (1 + rho) /
    (1 - rho) and c1 = 1 / c2.  The rule is symmetric in the points, so
    c1(z1, z2) * c2(z2, z1) = 1 to one ulp; equal points give (1.0, 1.0),
    and c2 past the float range reads inf, with c1 = 0.0.
    """
    z1 = herglotz.upper_point(z1, "harnack_constants")
    z2 = herglotz.upper_point(z2, "harnack_constants")
    c2 = _harnack_c2(z1, z2)
    return HarnackPair(z1, z2, 1.0 / c2, c2)


# Largest worst violation a passing certificate may show.  Fixed, not a policy
# field: the violation is a relative error of scalar harmonic values, whose
# rounding is a few ulps whatever the document, while a wrong constant shows
# errors orders of magnitude larger.
HARNACK_CERTIFICATE_TOL = 1e-12

# Fixed floors, not policy fields: each marks round-off or an exact zero.
ZERO_FLOOR = 1e-300  # below any nonzero finite value: keeps 0 from dividing or counting
EMPTY_WINDOW_MASS = 1e-12  # trace mass of an empty Stieltjes window is round-off this size
LOG_FIT_FLOOR = 1e-14  # singular values this small are round-off, not decay, in a log fit


def harnack_excess(hp: HarnackPair, anchor, value, scale) -> float:
    """Largest max(c1 anchor - value, value - c2 anchor) / scale, or 0.0 inside.

    The one Harnack comparison: anchor = h(z1) and value = h(z2), arrays
    broadcast, each caller with a scale of its own.  A nan excess (a nan
    constant or value) is no comparison, so it fails: it reads inf.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is the nan read below
        excess = np.maximum(hp.c1 * anchor - value, value - hp.c2 * anchor) / scale
    worst = float(np.asarray(excess).max(initial=-np.inf))
    return math.inf if math.isnan(worst) else max(0.0, worst)


def certify_harnack(z1: complex, z2: complex) -> float:
    """Worst relative sandwich violation of h(z2) / h(z1) on the cone's extreme rays.

    Every cone function is a positive combination of y and the Poisson
    kernels P(., t), so its ratio lies between theirs: y2 / y1 on y and
    (y2 / y1) |t - z1|^2 / |t - z2|^2 on P(., t).  Over t that ratio is
    stationary, at c2 and c1, at the real ends of the geodesic through the
    points: with x1 moved to 0, c +- sqrt(c^2 + y1^2) for the geodesic's
    center c, the nearer end taken as -y1^2 over the farther.  A vertical
    geodesic, or one whose center leaves the float range, ends at x1 and
    infinity; where only the farther end leaves it, the points are scaled by
    1/8, which moves no ratio.  An error in t costs the ratio second order
    only, and no ray leaves [c1, c2] by more than rounding, so a c2 off by
    1e-10 fails.  Where c2 leaves the float range, [0, inf] holds every ratio.
    """
    pair = harnack_constants(z1, z2)
    if pair.c2 == math.inf:  # [c1, c2] = [0, inf] holds every ratio
        return 0.0
    (x1, y1), (x2, y2) = ((z.real, z.imag) for z in (pair.z1, pair.z2))
    rise = y2 / y1
    if math.isinf(x2 - x1):  # exact: c2 is finite here only for normal heights
        x1, y1, x2, y2 = x1 / 8, y1 / 8, x2 / 8, y2 / 8
    u = x2 - x1
    c = u / 2 + (y2 - y1) / u * (y1 / 2 + y2 / 2) if u else math.inf
    far = c + math.copysign(math.hypot(c, y1), c)
    if math.isinf(far) and math.isfinite(c):  # only the far end leaves the range: scale by 1/8
        u, y1, y2, c = u / 8, y1 / 8, y2 / 8, c / 8
        far = c + math.copysign(math.hypot(c, y1), c)
    ends = np.array((far, -y1 * (y1 / far)) if math.isfinite(far) else (0.0,))
    with np.errstate(over="ignore", invalid="ignore"):  # t near the float range: no ratio
        q = np.hypot(ends, y1) / np.hypot(ends - u, y2)
    q = q[np.isfinite(q)]
    return _ratio_excess(pair, np.append(rise, rise * q * q))


# -- quadratic forms of the imaginary part ------------------------------------

SANDWICH_TOL = 1e-10  # largest passing excess: one whitening and one eigensolve, exact to round-off
# The anchor's range the sandwich whitens: whitening an eigenvalue lambda
# multiplies round-off by ||A|| / lambda, so past 1e4 it would near SANDWICH_TOL.
# Anchor directions below it are decided in absolute Loewner order instead.
WHITENED_RANGE = TolerancePolicy(eps_rank=1e-4)


@dataclass(frozen=True)
class FormSandwichReport:
    z0: complex
    grid: tuple[complex, ...]
    worst_violation: float
    passed: bool


def _ratio_excess(hp: HarnackPair, ratios) -> float:
    """The Harnack excess of generalized eigenvalues over [c1, c2], relative to max(top, c2)."""
    ratios = np.asarray(ratios)
    return harnack_excess(hp, 1.0, ratios, max(float(ratios.max(initial=0.0)), hp.c2))


def form_sandwich_check(
    family: FamilyEvaluator | HerglotzRep,
    grid: Sequence[complex] | None = None,
    z0: complex = 1j,
) -> FormSandwichReport:
    """Harnack sandwich c1 A <= Im F(z) <= c2 A in Loewner order, A = Im F(z0), exactly.

    One eigh of A whitens on its range R, the eigenvectors of positive
    eigenvalues that ``matnum``'s rank rule keeps under WHITENED_RANGE: with
    W = V / sqrt(lambda) there, the generalized eigenvalues of (Im F(z), A)
    on R are those of W* Im F(z) W, one stacked ``eigvalsh`` over the other
    upper points, compared by ``_ratio_excess`` with one
    ``harnack_constants`` call each.  Where R is the whole space this is the
    sandwich.  Where it is not (A singular, indefinite or of condition past
    1e4), the sandwich is also decided in absolute Loewner order as
    Im F(z) - c1 A >= 0 and A - c1 Im F(z) >= 0 (c1 = 1 / c2), least
    eigenvalues relative to the larger norm on each side: an anchor A = 0
    reads 1.0 where Im F(z) is not 0, and z diag(1, 1e-9) reads 0.0.
    """
    family = herglotz.as_family(family)
    z0 = herglotz.upper_point(z0, "form_sandwich_check")
    zs = herglotz.upper_points(grid, "form_sandwich_check")
    others = tuple(z for z in zs if z != z0)  # the anchor lies in its own corridor exactly
    anchor, values = np.split(matnum.imag_part(family.on_grid((z0,) + others)), [1])
    w, v = matnum.herm_part_eig(anchor[0], vectors=True)
    keep = matnum._kept(w, WHITENED_RANGE) & (w > 0)
    white = v[:, keep] / np.sqrt(w[keep])
    ratios = matnum.herm_part_eig(white.conj().T @ values @ white)
    hps = [harnack_constants(z0, z) for z in others]
    worst = max((_ratio_excess(hp, r) for hp, r in zip(hps, ratios)), default=0.0)
    if not keep.all():
        c1 = np.array([hp.c1 for hp in hps])
        norm_a, norm_b = np.abs(w).max(), matnum.spectral_norm(values)
        sides = (matnum.herm_part_eig(values - c1[:, None, None] * anchor)[:, 0]
                 / np.maximum(np.maximum(norm_b, c1 * norm_a), ZERO_FLOOR),
                 matnum.herm_part_eig(anchor - c1[:, None, None] * values)[:, 0]
                 / np.maximum(np.maximum(norm_a, c1 * norm_b), ZERO_FLOOR))
        worst = max(worst, -float(np.concatenate(sides).min(initial=0.0)))
    return FormSandwichReport(z0, zs, worst, worst <= SANDWICH_TOL)


# -- additive splitting F = G + T ----------------------------------------------

SPLIT_TOL = 1e-8  # passing residual of T = F - G: from representation data G is exact
BLACK_BOX_SPLIT_TOL = 1e-2  # the same when G comes from quadrature, good to about 1 %
FAR_HEIGHT = 1e6  # Y in B1 = Im F(iY) / Y; the measure adds O(1 / Y^2) to that reading
MOMENT_ETAS = (1e-3, 1e-4)  # heights of the first moment's boundary integral, extrapolated


@dataclass(frozen=True)
class SplitResult:
    g_rep: HerglotzRep
    t_constant: np.ndarray
    constancy: float
    hermitian_residual: float
    passed: bool


def split_bounded_imag(
    family: FamilyEvaluator,
    grid: Sequence[complex] | None = None,
) -> SplitResult:
    """Split F = G + T with G rebuilt from representation data, T constant.

    G is the function with the family's own Poisson data (B0, B1, measure);
    the difference T(z) = F(z) - G(z) is evaluated on the grid and must be
    z-independent and Hermitian, which certifies the split.  Requires
    representation access; see ``split_black_box`` for the degraded mode.
    """
    if family.rep is None:
        raise ValueError("split needs representation data; use split_black_box")
    return _certify_split(family, family.rep, herglotz.offaxis_points(grid, "split_bounded_imag"),
                          SPLIT_TOL)


def split_black_box(
    family: FamilyEvaluator,
    atom_windows: Sequence[tuple[float, float]],
    grid: Sequence[complex] | None = None,
) -> SplitResult:
    """Degraded split for black-box families, via Stieltjes inversion.

    Atom weights come from inverting the imaginary part over each window
    and locations from the first-moment ratio; the linear coefficient from
    the far-field value Im F(i Y) / Y.  The Hermitian rest is lumped into
    T.  Tolerances are relaxed to BLACK_BOX_SPLIT_TOL.
    """
    zs = herglotz.offaxis_points(grid, "split_black_box")
    dim = family.dim
    weights, locations = [], []
    for a, b in atom_windows:
        w = herglotz.stieltjes_invert(family, a, b)
        moment = herglotz.boundary_extrapolations(family, a, b, MOMENT_ETAS, power=1)[-1]
        mass = float(np.real(np.trace(w)))
        if mass <= EMPTY_WINDOW_MASS:
            continue
        locations.append(float(np.real(np.trace(moment))) / mass)
        weights.append(matnum.herm_part(w))
    b1 = matnum.herm_part(matnum.imag_part(family(1j * FAR_HEIGHT)) / FAR_HEIGHT)
    ok, lam = matnum.is_psd(b1, TolerancePolicy(eps_psd=1e-4, eps_rank=1e-8, eps_eq=1e-4))
    if not ok:
        raise ValueError(f"recovered linear coefficient not PSD ({lam:.3e})")
    b1 = _clip_psd(b1)
    atoms = [(t, _clip_psd(w)) for t, w in zip(locations, weights)]
    g = HerglotzRep.create(np.zeros((dim, dim)), b1, atoms)
    return _certify_split(family, g, zs, BLACK_BOX_SPLIT_TOL)


def _certify_split(family, g: HerglotzRep, zs: tuple[complex, ...], rtol: float) -> SplitResult:
    """T = F - G at the off-axis points zs must be constant and Hermitian, relative to rtol."""
    values = family.on_grid(zs) - herglotz.evaluate_grid(g, zs)
    mean = sum(values) / len(values)  # slice by slice in grid order; np.sum would pair them
    scale = 1.0 + matnum.spectral_norm(mean)
    constancy = float(matnum.spectral_norm(values - mean).max()) / scale
    herm_res = matnum.spectral_norm(mean - mean.conj().T) / scale
    passed = constancy <= rtol and herm_res <= rtol
    return SplitResult(g, matnum.herm_part(mean), constancy, herm_res, passed)


def _clip_psd(h: np.ndarray) -> np.ndarray:
    w, v = matnum.herm_part_eig(h, vectors=True)
    return (v * np.maximum(w, 0.0)) @ v.conj().T


# -- modulus bound c2(z) and measure-tail estimates ----------------------------

BOUND_TOL = 1e-9  # passing relative excess over c2(z): both sides are exact to round-off


def c2_of(z: complex) -> float:
    """Supremum of |1 + z t| / |t - z| over the extended real line.

    It is the Harnack constant c2 between i and z, (|z - i| + |z + i|)^2 /
    (4 Im z), bit for bit; the value at z = i is exactly 1.
    """
    return _harnack_c2(1j, herglotz.upper_point(z, "c2_of"))


def _bound_inputs(rep: HerglotzRep, z: complex, tol: TolerancePolicy):
    """z as a complex, c2(z), K's largest eigenvalue, K^(-1/2) on K's range and F(z) - B1 z - B0.

    The range is K's eigenvectors whose eigenvalues ``matnum``'s rank rule
    keeps under tol; the measure tail lives on it.
    """
    z = complex(z)
    w, v = matnum.herm_part_eig(rep.k_sigma(), vectors=True)
    start = len(w) - matnum.rank_from(w, tol)  # K is PSD and w ascends: its range is the top
    root = v[:, start:] / np.sqrt(w[start:])
    return z, c2_of(z), float(w[-1]), root, herglotz.evaluate(rep, z) - rep.b1 * z - rep.b0


@dataclass(frozen=True)
class BoundReport:
    z: complex
    bound: float
    worst_ratio: float
    violations: int
    passed: bool


def weak_strong_check(
    rep: HerglotzRep,
    z: complex,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> BoundReport:
    """Vector bound ||T u|| <= c2(z) ||K^(1/2)|| ||K^(1/2) u|| for every u, T = F(z) - B1 z - B0.

    T lives on the range of K, so the supremum of ||T u|| / ||K^(1/2) u||
    is ||T K^(-1/2)|| there, one SVD.  worst_ratio is that norm over
    c2(z) ||K^(1/2)||, 0.0 for an empty range; violations is 0 or 1.
    """
    z, c2, top, root, tail = _bound_inputs(rep, z, tol)
    norm = matnum.spectral_norm(tail @ root)
    rhs = c2 * math.sqrt(top) if root.shape[1] else 0.0
    passed = norm <= rhs * (1.0 + BOUND_TOL)
    return BoundReport(z, c2, norm / rhs if rhs else 0.0, 0 if passed else 1, passed)


def factor_check(
    rep: HerglotzRep,
    z: complex,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> BoundReport:
    """Operator bound ||K^(-1/2) (F(z) - B1 z - B0) K^(-1/2)|| <= c2(z).

    The middle factor is formed on the range of K (eigen-truncation at the
    rank cutoff); the measure tail lives on that range, so the compression
    loses nothing.
    """
    z, c2, _, root, tail = _bound_inputs(rep, z, tol)
    norm = matnum.spectral_norm(root.conj().T @ tail @ root)
    passed = norm <= c2 * (1.0 + BOUND_TOL)
    return BoundReport(z, c2, norm / c2 if c2 > 0 else norm, 0 if passed else 1, passed)


# -- singular-value decay -------------------------------------------------------

SPREAD_TOL = 0.1  # largest spread of fitted exponents across the grid that is one exponent
MIN_FIT_POINTS = 3  # a line through two points fits any spectrum, so fewer cannot pass


@dataclass(frozen=True)
class DecayReport:
    grid: tuple[complex, ...]
    slopes: tuple[float, ...]
    spread: float
    decaying: bool
    passed: bool


def fit_log_slope(js: np.ndarray, values: np.ndarray) -> float:
    """Least-squares slope of log(values) against log(j)."""
    mask = values > LOG_FIT_FLOOR
    if mask.sum() < 2:
        return 0.0
    return float(np.polyfit(np.log(js[mask].astype(float)), np.log(values[mask]), 1)[0])


def schatten_decay(family: FamilyEvaluator, grid: Sequence[complex] | None = None) -> DecayReport:
    """Fitted exponent of s_j(F(z)), j in the middle third of 1 ... max(2, dim // 2), per z in C_+.

    The verdict is invariance of the exponent across the grid (spread at
    most SPREAD_TOL) from a window of at least MIN_FIT_POINTS indices, so
    a family of dim below 18 fails; ``decaying`` records whether any
    decay was seen at all.
    """
    zs = herglotz.upper_points(grid, "schatten_decay")
    js = np.arange(1, min(family.dim, max(2, family.dim // 2)) + 1)
    third = len(js) // 3
    window = js[third : max(third + 1, 2 * third)] if len(js) >= 3 else js
    slopes = [fit_log_slope(window, s[window - 1])
              for s in matnum.singular_values(family.on_grid(zs))]
    spread = max(slopes) - min(slopes)
    decaying = any(m < -0.05 for m in slopes)
    passed = len(window) >= MIN_FIT_POINTS and spread <= SPREAD_TOL
    return DecayReport(zs, tuple(slopes), spread, decaying, passed)
