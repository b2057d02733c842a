"""Builders for the showcase families consumed by the verifiers.

Two discretized boundary-value families on a grid of step h = length / n
(second-order differences, boundary data folded into the first row, the
far end eliminated by a Dirichlet condition):

  halfline-robin          F(z) = K / h^2 + (phi(z) / h) e00
  dissipative-interval    G(z) = (i sign(Im z)) K / h^2 + (phi(z) / h) e00

with K the real stiffness matrix (free end first, Dirichlet end last) and
phi a scalar function of the Herglotz class.  The z-dependence sits in the
single corner entry; the imaginary part of G is K / h^2 + Im phi(z)/h e00,
so the interval family is dissipative with spectrum discrete at every
fixed n, and the inverse shows quadratic singular-value decay.  The sign
flip below the axis realizes the required symmetry G(conj z) = G(z)*.

The third construction pairs a positive diagonal B with decaying entries
against a bounded perturbation C = I + sS:

  M(z) = B^(1/2) (C - 1/z) B^(1/2),       F(z) = -M(z)^(-1),

whose solves degrade like 1 / b_n, the truncation shadow of an unbounded
function with moving domains; the form of Im F factors through B^(-1/2),
so its form-domain report reads the spectrum of C and solves nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import analysis, herglotz, matnum
from .herglotz import FamilyEvaluator, HerglotzRep

VARIANT_HALFLINE = "halfline-robin"
VARIANT_INTERVAL = "dissipative-interval"
VARIANT_DISS_HALFLINE = "dissipative-halfline"  # interval stencil on [0, L]

_VARIANTS = (VARIANT_HALFLINE, VARIANT_INTERVAL, VARIANT_DISS_HALFLINE)


@dataclass(frozen=True)
class SturmLiouvilleConfig:
    """Grid size, interval length, boundary coefficient and stencil variant.

    phi is a scalar (1 x 1) function given by representation data; None
    selects the Dirichlet-Dirichlet stencil with no boundary coefficient
    (a z-constant family).
    """

    n: int
    phi: HerglotzRep | None
    length: float = 1.0
    variant: str = VARIANT_INTERVAL

    def __post_init__(self):
        if self.n < 8:
            raise ValueError("need n >= 8 grid points")
        if self.phi is not None and self.phi.dim != 1:
            raise ValueError("boundary coefficient must be scalar (dim 1)")
        if self.length <= 0:
            raise ValueError("length must be positive")
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")


def _stiffness(n: int, free_first: bool) -> np.ndarray:
    k = np.zeros((n, n))
    idx = np.arange(n)
    k[idx, idx] = 2.0
    k[idx[:-1], idx[:-1] + 1] = -1.0
    k[idx[1:], idx[1:] - 1] = -1.0
    if free_first:
        k[0, 0] = 1.0
    return k


def _with_corner(out: np.ndarray, phi: HerglotzRep | None, zs, h: float) -> np.ndarray:
    """out plus phi(z) / h at each (1, 1) entry, divided in Python: numpy rounds otherwise."""
    phis = [0j] * len(zs) if phi is None else herglotz.evaluate_grid(phi, zs)[:, 0, 0]
    out[:, 0, 0] += [complex(p) / h for p in phis]
    return out


def build_interval_family(config: SturmLiouvilleConfig) -> FamilyEvaluator:
    """Dissipative-interval family (i K / h^2 with the Robin corner term).

    Only the (1, 1) entry moves with z; the imaginary part for Im z > 0 is
    K / h^2 + (Im phi(z) / h) e00, which is PSD since phi maps C_+ to
    closed C_+.
    """
    if config.variant not in (VARIANT_INTERVAL, VARIANT_DISS_HALFLINE):
        raise ValueError("interval builder needs a dissipative variant")
    n = config.n
    h = config.length / n
    k = _stiffness(n, free_first=config.phi is not None)

    def grid_fn(zs) -> np.ndarray:
        scalars = np.array([(1.0 if z.imag > 0 else -1.0) * 1j / h**2 for z in zs], complex)
        return _with_corner(np.multiply.outer(scalars, k), config.phi, zs, h)  # K stays real

    return FamilyEvaluator(n, None, "interval-example", grid_fn=grid_fn)


def build_halfline_family(config: SturmLiouvilleConfig) -> FamilyEvaluator:
    """Truncated half-line Robin family K / h^2 + (phi(z)/h) e00.

    A hard truncation at x = length stands in for the half-line; the
    spectrum fills the positive axis only along an (n, length) sweep, see
    ``halfline_gap_sweep``.
    """
    if config.variant != VARIANT_HALFLINE:
        raise ValueError("halfline builder needs variant halfline-robin")
    n = config.n
    h = config.length / n
    k = _stiffness(n, free_first=config.phi is not None) / h**2

    def grid_fn(zs) -> np.ndarray:
        return _with_corner(np.broadcast_to(k, (len(zs), n, n)).astype(complex), config.phi, zs, h)

    return FamilyEvaluator(n, None, "halfline-example", grid_fn=grid_fn)


def build_family(config: SturmLiouvilleConfig) -> FamilyEvaluator:
    if config.variant == VARIANT_HALFLINE:
        return build_halfline_family(config)
    return build_interval_family(config)


EXAMPLE_RCOND_MIN = 1e-15  # solve guard here, below matnum's 1e-14: ill conditioned by design
GAP_STEP = 0.1  # the gap sweep's fixed grid step h: its interval [0, n h] grows with n


def decay_exponent(family: FamilyEvaluator, z: complex) -> float:
    """Fitted slope of log s_j(G(z)^(-1)) against log j over [n/8, n/3]."""
    return decay_profile(family, z)[2]


def decay_profile(family: FamilyEvaluator, z: complex) -> tuple[np.ndarray, np.ndarray, float]:
    """Window indices j in [n/8, n/3], s_j(G(z)^(-1)) there, and their fitted slope."""
    z = herglotz.offaxis_point(z, "decay_profile")
    n = family.dim
    lo, hi = max(1, n // 8), max(2, n // 3)
    js = np.arange(lo, hi + 1)
    s = matnum.inverse_singular_values(family(z), EXAMPLE_RCOND_MIN)[js - 1]
    return js, s, analysis.fit_log_slope(js, s)


def halfline_gap_sweep(
    phi: HerglotzRep | None,
    a_values: Sequence[float],
    n_list: Sequence[int],
    zs: Sequence[complex] = (1j,),
) -> list[dict]:
    """Distance from real points a >= 0 to the truncated half-line spectrum.

    The interval [0, L] grows with n (L = n GAP_STEP), so the eigenvalue
    spacing near a shrinks and sigma_min(F_n(z) - a) decays for every z
    simultaneously.  Returns one row per (n, z, a).
    """
    rows = []
    for n in n_list:
        config = SturmLiouvilleConfig(n=n, phi=phi, length=n * GAP_STEP, variant=VARIANT_HALFLINE)
        family = build_halfline_family(config)
        for z in zs:
            fz = family(complex(z))
            for a in a_values:
                smin = float(
                    matnum.singular_values(fz - float(a) * np.eye(n))[-1]
                )
                rows.append({"n": n, "z_re": complex(z).real, "z_im": complex(z).imag,
                             "a": float(a), "gap": smin})
    return rows


# -- decaying-diagonal construction ---------------------------------------------

B_FLOOR = 1e-6  # least diagonal entry b_j; the default 2^-j falls below it from j = 20 on


@dataclass(frozen=True)
class Ex4AConfig:
    """Dimension, diagonal decay rule and perturbation scale for C = I + sS."""

    n: int
    b_decay: Sequence[float] | None = None  # default 2^-j, floored at B_FLOOR
    c_perturbation: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need n >= 1")
        if not (0.0 <= self.c_perturbation < 0.9):
            raise ValueError("perturbation scale must lie in [0, 0.9)")

    def b_values(self) -> np.ndarray:
        if self.b_decay is None:
            raw = 2.0 ** (-np.arange(1, self.n + 1, dtype=float))
        else:
            raw = np.asarray(list(self.b_decay), dtype=float)
            if raw.shape != (self.n,):
                raise ValueError("b_decay must provide n values")
            if np.any(np.diff(raw) >= 0):
                raise ValueError("b_decay must be strictly decreasing")
            if np.any(raw <= 0):
                raise ValueError("b_decay must be positive")
        return np.maximum(raw, B_FLOOR)


@dataclass(frozen=True)
class Ex4A:
    """Built families and data: M(z), F(z) = -M(z)^(-1), diagonal b, matrix C."""

    config: Ex4AConfig
    b: np.ndarray
    c: np.ndarray
    m_family: FamilyEvaluator
    f_family: FamilyEvaluator
    f_tilde: FamilyEvaluator  # -(C - 1/z)^(-1), uniformly strict


def build_ex4a(config: Ex4AConfig) -> Ex4A:
    n = config.n
    b = config.b_values()
    rng = np.random.default_rng(config.seed)
    if config.c_perturbation > 0:
        s = matnum.herm_part(
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        )
        s /= matnum.spectral_norm(s)
        c = np.eye(n) + config.c_perturbation * s
    else:
        c = np.eye(n, dtype=np.complex128)
    b_sqrt = np.sqrt(b)
    eye = np.eye(n)

    def shifted(zs) -> np.ndarray:  # C - 1/z at each point, written into one stack
        out = np.empty((len(zs), n, n), dtype=np.complex128)
        for g, z in enumerate(zs):
            np.subtract(c, eye / z, out=out[g])
        return out

    def f_tilde(zs) -> np.ndarray:  # one guarded solve per grid
        return -matnum.inverse(shifted(zs), EXAMPLE_RCOND_MIN)

    def m(zs) -> np.ndarray:
        return (b_sqrt[:, None] * shifted(zs)) * b_sqrt[None, :]

    def f(zs) -> np.ndarray:
        return (f_tilde(zs) / b_sqrt[:, None]) / b_sqrt[None, :]

    return Ex4A(config, b, c, FamilyEvaluator(n, None, "ex4a-m", grid_fn=m),
                FamilyEvaluator(n, None, "ex4a-f", grid_fn=f),
                FamilyEvaluator(n, None, "ex4a-f-tilde", grid_fn=f_tilde))


def solve_conditioning(ex: Ex4A, zs: Sequence[complex]) -> np.ndarray:
    """Reciprocal condition of the solve behind F(z) at each z; decays like b_n."""
    return matnum.rcond(ex.m_family.on_grid(zs))


@dataclass(frozen=True)
class FormDomainReport:
    z0: complex
    grid: tuple[complex, ...]
    bounds: tuple[tuple[float, float], ...]  # (c1, c2) per grid point
    extremes: tuple[tuple[float, float], ...]  # generalized eigenvalue range
    worst_violation: float
    passed: bool


FORM_ANCHOR = 1j  # z0 = i, the point where classify reads Im F as well


def form_domain_report(ex: Ex4A, grid: Sequence[complex] | None = None,
                       rng: np.random.Generator | None = None) -> FormDomainReport:
    """Harnack comparison of the imaginary-part forms on a common test space.

    Test vectors are B^(1/2) V for a unitary V, the natural domain of the
    forms; the generalized eigenvalues of the Gram pair (Q(z), Q(z0)) must
    land inside [c1, c2], the desk-scale reading of a z-independent form
    domain with equivalent norms.  With C = U diag(lambda) U*, Q(z) is
    (U* V)* diag(Im c_k(z)) (U* V) for c_k(z) = z / (1 - lambda_k z), and a
    congruence keeps generalized eigenvalues: they are Im c_k(z) / Im c_k(z0)
    for every V, from one ``eigvalsh`` of C, and meet [c1, c2] as the
    form sandwich's do (``analysis._ratio_excess``).  rng is not read.  F's
    solve guard, at z0 and at each point, reads rcond(C - 1/z) off |lambda_k - 1/z|.
    """
    zs = herglotz.upper_points(grid, "form_domain_report")
    z0 = FORM_ANCHOR
    lam = matnum.herm_part_eig(ex.c)
    pts = np.array((z0,) + zs)[:, None]  # the anchor first, then the grid
    d = (1.0 - lam * pts.real) ** 2 + (lam * pts.imag) ** 2  # |z|^2 |lambda_k - 1/z|^2
    matnum.rcond_from(np.broadcast_to(ex.c, (len(d),) + ex.c.shape), np.sqrt(np.sort(d)[:, ::-1]),
                      EXAMPLE_RCOND_MIN)
    im = pts.imag / d  # Im c_k(z)
    if im[0].min() <= 0:
        raise ValueError("anchor form is numerically singular on the test space")
    bounds, extremes, worst = [], [], 0.0
    for z, ratio in zip(zs, im[1:] / im[0]):
        hp = analysis.harnack_constants(z0, z)
        bounds.append((hp.c1, hp.c2))
        extremes.append((float(ratio.min()), float(ratio.max())))
        worst = max(worst, analysis._ratio_excess(hp, ratio))
    return FormDomainReport(z0, zs, tuple(bounds), tuple(extremes), worst,
                            worst <= analysis.SANDWICH_TOL)
