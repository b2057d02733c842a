"""Executable verifiers for the point-independence statements.

Each checker sweeps a z-grid and certifies that some spectral object of a
family or pair (an eigenspace at a real value, the kernel of the imaginary
part, a resolvent or boundedness flag, the multivalued part, a Schur-class
defect space) does not move with z.  Reports carry per-point scalar
witnesses and are deterministic given the grid; permuting the grid changes
neither the verdict nor the worst-case deviation.  Each check evaluates
its entity once per grid (one ``on_grid`` call) and takes its
decompositions in batches, one stacked ``matnum`` call per kind; every
slice is the matrix the one-point path factorizes, so the report bytes are
those of a point-by-point loop.  A span check on G grid points stacks the
spans once and takes the exact worst of its G(G-1)/2 pairwise distances:
it forms every pair's residual, gathering at most SPAN_CHUNK_BYTES of bases
a call, and bounds its spectral norm by its Frobenius norm, from above and,
over sqrt(k), from below.  Only the pairs whose upper bound reaches the
largest lower bound, a handful on the check grid, meet the SVD of
``matnum.subspace_distances``, and the largest of those exact distances is
the worst: the bounds choose which distances to take, and no bound replaces
the maximum.  The point check on a family takes ker(F(z) - a) from the
values alone, with no inverse: on a grid of conjugate pairs, with
F(conj z) = F(z)* bit for bit, ``matnum`` takes one full SVD per pair.
Continuous spectrum has no finite-dimensional instance, so it is emulated
by a truncation sweep: uniform-in-z decay of the smallest form eigenvalue
along growing dimensions, with the Harnack corridor of that eigenvalue, a
consequence of ``analysis.form_sandwich_check``'s Loewner sandwich, on
each truncation as the uniformity certificate.  The sweep decomposes each
distinct folded Im F_n once per truncation and finds a fold met again by
value compare, a diagonal fingerprint confirmed by ``np.array_equal``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import analysis, herglotz, matnum, pairs
from .herglotz import FamilyEvaluator, HerglotzRep
from .matnum import DEFAULT_TOL, TolerancePolicy
from .pairs import PairEvaluator

DEFAULT_CHECK_SEED = 20240817


@functools.cache
def default_check_grid() -> tuple[complex, ...]:
    """The 30-point default grid plus ten seeded spot checks, five conjugate pairs; built once."""
    rng = np.random.default_rng(DEFAULT_CHECK_SEED)
    extra = []
    for _ in range(5):
        z = complex(rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-1.0, 1.0))
        extra += [z, z.conjugate()]
    return herglotz.default_grid() + tuple(extra)


@dataclass
class InvarianceReport:
    """Outcome of one invariance statement over a grid."""

    statement: str
    grid: tuple[complex, ...]
    witnesses: list[dict]
    passed: bool
    worst: float
    notes: dict = field(default_factory=dict)

    def rows(self) -> list[dict]:
        return [{"z_re": z.real, "z_im": z.imag, **w} for z, w in zip(self.grid, self.witnesses)]


def _as_pair(obj) -> PairEvaluator:
    if isinstance(obj, PairEvaluator):
        return obj
    if isinstance(obj, (FamilyEvaluator, HerglotzRep)):
        return pairs.canonical_pair(obj)
    raise TypeError(f"expected a pair or family, got {type(obj)!r}")


def _offaxis(grid, caller: str, points=herglotz.offaxis_points):
    """The gate's off-axis (or chosen) points of grid, default the check grid, for caller."""
    return points(default_check_grid() if grid is None else grid, caller)


SPAN_CHUNK_BYTES = 1 << 20  # bases gathered per pairwise residual call in _span_drift
# The screen's slack: a computed largest singular value, like a computed Frobenius
# norm, is within p(n) eps of the exact one, relative (LAPACK Users' Guide, error
# bounds for the SVD), and p(n) eps is below 1e-12 at the sizes served.
SPAN_SCREEN_SLACK = 1e-8


def _span_drift(spans: list[np.ndarray], witnesses: list[dict] | None = None):
    """Worst pairwise distance between spans over the grid, with its notes.

    A dimension that varies counts as distance 1.0 and is explained in
    the notes; otherwise the notes carry the common dimension.  Given
    witnesses, each gains its span's ``distance`` to the anchor (the span
    at the first grid point).  Each pair is measured from the span with the
    smaller bytes, so the worst depends only on the spans, not their order.
    The worst is exact: the n x k residual R of every pair is formed as
    ``matnum.subspace_distances`` forms it, and its Frobenius norm bounds
    ||R||_2 from above and its largest column norm from below.  Only the
    pairs whose upper bound reaches the largest lower bound, up to
    SPAN_SCREEN_SLACK, can hold the maximum, and only they meet the SVD;
    with every bound 0 (k = 0, or residuals that vanish exactly) the worst
    is 0.0 without one.
    """
    dims = sorted({s.shape[1] for s in spans})
    if len(dims) != 1:
        for w in witnesses or []:
            w["distance"] = 1.0
        return 1.0, {"reason": "dimension varies", "dims": dims}
    stack = np.array(spans)
    if witnesses:
        for w, d in zip(witnesses, matnum.subspace_distances(stack, stack[0])):
            w["distance"] = float(d)
    if len(stack) < 2:  # no pair
        return 0.0, {"dim": dims[0]}
    stack = stack[sorted(range(len(stack)), key=lambda k: stack[k].tobytes())]
    chunk = max(1, SPAN_CHUNK_BYTES // max(1, 2 * stack[0].nbytes))

    def over_pairs(measure, ii, jj):  # measure of each pair (ii, jj), a chunk of bases a call
        return np.concatenate([measure(stack[ii[k:k + chunk]], stack[jj[k:k + chunk]])
                               for k in range(0, len(ii), chunk)], axis=-1)

    ii, jj = np.triu_indices(len(stack), 1)
    upper, lower = over_pairs(lambda u, v: matnum._norm_bounds(matnum._span_residuals(u, v)), ii, jj)
    floor = lower.max() * (1.0 - SPAN_SCREEN_SLACK)
    pick = upper * (1.0 + SPAN_SCREEN_SLACK) >= floor
    worst = float(over_pairs(matnum.subspace_distances, ii[pick], jj[pick]).max()) if floor else 0.0
    return worst, {"dim": dims[0]}


def _image_span_check(statement: str, key: str, grid, kernel_of, mapped_by, tol, notes):
    """Whether span(B ker A), A and B given as stacks, is one subspace over the grid.

    One null-space call takes the stack, one range-space call each distinct
    image shape; with mapped_by None the spans are the bases of ker A.  Pass
    requires a constant dimension and pairwise subspace distances at most
    tol.eps_rank; each witness holds its dimension under key.
    """
    spans = matnum.null_space(kernel_of, tol)
    if mapped_by is not None:
        images = [b @ k for b, k in zip(mapped_by, spans)]
        groups: dict[tuple, list[int]] = {}
        for k, m in enumerate(images):
            groups.setdefault(m.shape, []).append(k)
        for idx in groups.values():
            for k, span in zip(idx, matnum.range_space(np.stack([images[k] for k in idx]), tol)):
                spans[k] = span
    witnesses = [{key: span.shape[1]} for span in spans]
    worst, drift = _span_drift(spans, witnesses)
    return InvarianceReport(statement, grid, witnesses, worst <= tol.eps_rank, worst,
                            {**notes, **drift})


def check_point_invariance(
    obj,
    a: float,
    grid: Sequence[complex] | None = None,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> InvarianceReport:
    """Eigenspace at a real value a is the same at every grid point.

    The space at z is {f : (f, a f) in the snapshot relation}.  For a pair
    it is Phi(z) applied to the null space of Psi(z) - a Phi(z).  For a
    family it is ker(F(z) - a), from the values alone: the canonical pair
    has Psi - a Phi = (F - a) Phi with Phi invertible, so Phi ker(Psi - a Phi)
    = ker(F(z) - a).  No inverse is formed, so no ConditioningError is
    raised, and the rank cutoff is taken on F(z) - a.
    """
    a = float(a)
    grid = _offaxis(grid, "check_point_invariance")
    if isinstance(obj, (FamilyEvaluator, HerglotzRep)):
        family = herglotz.as_family(obj)
        kernel_of, mapped_by = family.on_grid(grid) - a * np.eye(family.dim), None
    else:
        phis, psis = _as_pair(obj).on_grid(grid)
        kernel_of, mapped_by = psis - a * phis, phis
    return _image_span_check("point-spectrum-invariance", "eigenspace_dim", grid,
                             kernel_of, mapped_by, tol, {"a": a})


CORRIDOR_TOL = 1e-8  # passing corridor excess over 1 + ||Im F||: an eigensolve's round-off


def _corridor_worst(z0: complex, points, anchor, values, scale) -> float:
    """Worst excess of values at points over the Harnack corridor [c1 anchor, c2 anchor].

    The one rule for the smallest eigenvalue of a folded Im F, anchor its value
    at z0; scale is 1 + ||Im F(z0)||, the size of that eigenvalue's round-off.
    """
    return max((analysis.harnack_excess(analysis.harnack_constants(z0, z), anchor, value, scale)
                for z, value in zip(points, values)), default=0.0)


def check_imag_kernel_invariance(
    family: FamilyEvaluator | HerglotzRep,
    grid: Sequence[complex] | None = None,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> InvarianceReport:
    """Kernel of Im F(z) is z-independent; its positivity level is sandwiched.

    Below the axis the sign-folded part -Im F(z) = Im F(conj z) is used.
    Besides kernel constancy, the smallest eigenvalue must stay inside the
    Harnack corridor [c1 m(z0), c2 m(z0)] of the anchor (first grid point).
    """
    family = herglotz.as_family(family)
    grid = _offaxis(grid, "check_imag_kernel_invariance")
    # conjugate points fold onto one matrix: each distinct one meets eigh once
    spans, lams, norms = matnum._hermitian_kernels(
        matnum._folded_imag(family.on_grid(grid), herglotz.imag_signs(grid)), tol)
    lam_mins = lams.tolist()
    witnesses = [{"kernel_dim": span.shape[1], "lam_min": lam}
                 for span, lam in zip(spans, lam_mins)]
    worst, notes = _span_drift(spans, witnesses)
    if "dim" not in notes:
        return InvarianceReport("imag-kernel-invariance", grid, witnesses, False, 1.0, notes)

    folded = [complex(z.real, abs(z.imag)) for z in grid]  # the C_+ point of each
    corridor_worst = _corridor_worst(folded[0], folded, lam_mins[0], lam_mins, 1.0 + norms[0])
    passed = worst <= tol.eps_rank and corridor_worst <= CORRIDOR_TOL
    return InvarianceReport(
        "imag-kernel-invariance", grid, witnesses, passed, max(worst, corridor_worst),
        {**notes, "corridor_worst": corridor_worst},
    )


def check_resolvent_invariance(
    obj,
    a: float,
    grid: Sequence[complex] | None = None,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> InvarianceReport:
    """Regularity of a real point is z-independent, cross-checked on C_+.

    The flag is invertibility of Psi(z) - a Phi(z); on upper points it must
    match invertibility of C(z) - alpha with alpha = (a - i)/(a + i), the
    Cayley image of a.  Both flags are decided against the fixed
    ``matnum.INVERTIBLE_MIN``, not the policy: ``tol`` is not read.
    """
    pair = _as_pair(obj)
    a = float(a)
    alpha = (a - 1j) / (a + 1j)
    grid = _offaxis(grid, "check_resolvent_invariance")
    eye = np.eye(pair.dim, dtype=np.complex128)
    phis, psis = pair.on_grid(grid)
    shifted = psis - a * phis
    block_scales = matnum.spectral_norm(np.concatenate([phis, psis], axis=1)) * (1.0 + abs(a))
    smins = matnum.singular_values(shifted)[:, -1]
    flags = matnum.invertible_from(smins, block_scales)
    witnesses = [{"smin": smin, "regular": int(flag)} for smin, flag in zip(smins.tolist(), flags)]
    upper = np.flatnonzero(herglotz.imag_signs(grid) > 0)
    smins_c = matnum.singular_values(pairs.cayley_values(phis[upper], psis[upper]) - alpha * eye)
    flags_c = matnum.invertible_from(smins_c[:, -1], 2.0)
    for k, smin_c in zip(upper, smins_c[:, -1].tolist()):
        witnesses[k]["smin_cayley"] = smin_c
    ok_cross = all(flag_c == flags[k] for k, flag_c in zip(upper, flags_c))
    constant = len(set(flags)) == 1
    return InvarianceReport(
        "resolvent-invariance", grid, witnesses, constant and ok_cross,
        0.0 if (constant and ok_cross) else 1.0,
        {"a": a, "alpha_re": alpha.real, "alpha_im": alpha.imag,
         "regular": int(flags[0]) if constant else -1},
    )


def check_boundedness_invariance(
    obj,
    grid: Sequence[complex] | None = None,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> InvarianceReport:
    """Rank of Phi(z) (full rank = operator part bounded) is z-independent."""
    pair = _as_pair(obj)
    grid = _offaxis(grid, "check_boundedness_invariance")
    ranks = matnum.rank(pair.on_grid(grid)[0], tol)
    witnesses = [{"phi_rank": r, "bounded": int(r == pair.dim)} for r in ranks]
    constant = len(set(ranks)) == 1
    return InvarianceReport(
        "boundedness-invariance", grid, witnesses, constant,
        0.0 if constant else float(max(ranks) - min(ranks)),
        {"rank": ranks[0] if constant else -1, "dim": pair.dim},
    )


def check_mul_invariance(
    obj,
    grid: Sequence[complex] | None = None,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> InvarianceReport:
    """The multivalued part of the snapshot relation, Psi(z) ker Phi(z), has a constant span."""
    grid = _offaxis(grid, "check_mul_invariance")
    phis, psis = _as_pair(obj).on_grid(grid)
    return _image_span_check("mul-invariance", "mul_dim", grid, phis, psis, tol, {})


# -- classification of families presented by pairs ------------------------------

CLASS_FAMILY = "R~"


@dataclass(frozen=True)
class PairClassification:
    """Class label from the diagonal pair kernel, with invertibility witnesses."""

    label: str
    lam_min: float
    kernel_dim: int
    mul_dim: int
    rcond_phi: float
    rcond_psi: float

    def __str__(self) -> str:  # pragma: no cover
        return self.label


def classify_family_pair(
    pair: PairEvaluator,
    tol: TolerancePolicy = DEFAULT_TOL,
    z: complex = 1j,
) -> PairClassification:
    """Strictness classification at one point of the upper half-plane.

    Strict means the diagonal kernel N(z, z) has trivial null space;
    uniformly strict means it is definitely invertible, in which case both
    pair blocks carry invertibility certificates (their reciprocal
    condition numbers).  Non-strict families split into single-valued (R)
    and genuinely multivalued (R~) by the kernel of Phi.
    """
    z = herglotz.upper_point(z, "classify_family_pair")
    phi, psi = pair(z)
    lams = matnum.herm_part_eig(pairs.diagonal_kernel(phi, psi, z, tol))
    label, lam_min, kernel_dim = herglotz.strictness(lams, tol)
    blocks = np.array([phi, psi])  # one SVD gives ker Phi and both rconds
    s = matnum.singular_values(blocks)
    mul_dim = pair.dim - matnum.rank_from(s[0], tol)
    rc_phi, rc_psi = matnum.rcond_from(blocks, s).tolist()
    if label == herglotz.CLASS_PLAIN and mul_dim > 0:
        label = CLASS_FAMILY
    return PairClassification(label, lam_min, kernel_dim, mul_dim, rc_phi, rc_psi)


# -- Schur-class maximum principle ----------------------------------------------


UNIMODULAR_TOL = 1e-12  # alpha is given, not computed: allow only the round-off of |alpha|


def maximum_principle_schur(
    schur: Callable[[complex], np.ndarray] | PairEvaluator,
    alpha: complex,
    grid: Sequence[complex] | None = None,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> InvarianceReport:
    """Defect space, its invertibility, and unimodular eigenspaces are frozen.

    For a contractive holomorphic C(z) on C_+ and |alpha| = 1 the checker
    verifies: the kernel of I - C(z)* C(z) has constant span, its
    invertibility flag is constant, ker(C(z) - alpha) has constant span,
    and regularity of alpha (witnessed by the smallest singular value of
    C(z) - alpha) holds at every point once it holds at one.
    """
    alpha = complex(alpha)
    if abs(abs(alpha) - 1.0) > UNIMODULAR_TOL:
        raise ValueError("alpha must be unimodular")
    grid = _offaxis(grid, "maximum_principle_schur", herglotz.upper_points)
    if isinstance(schur, PairEvaluator):
        cs = pairs.cayley_values(*schur.on_grid(grid))
    else:
        cs = np.stack([matnum.as_matrix(schur(z)) for z in grid])
    eye = np.eye(cs.shape[-1], dtype=np.complex128)
    defects = eye - matnum._adjoint(cs) @ cs
    moved = cs - alpha * eye
    # one full SVD of each matrix gives its null space and its smallest singular value
    _, defect_spans, defect_s = matnum._spaces(matnum._checked(defects), tol)
    _, eig_spans, moved_s = matnum._spaces(matnum._checked(moved), tol)
    inv_flags = matnum.invertible_from(defect_s.min(axis=1, initial=np.inf), 2.0)
    smins = moved_s[:, -1]
    reg_flags = matnum.invertible_from(smins, 2.0)
    witnesses = [
        {
            "defect_kernel_dim": d.shape[1],
            "alpha_kernel_dim": e.shape[1],
            "defect_invertible": int(inv),
            "smin_alpha": smin,
        }
        for d, e, inv, smin in zip(defect_spans, eig_spans, inv_flags, smins.tolist())
    ]
    worst = max(_span_drift(defect_spans)[0], _span_drift(eig_spans)[0])
    constant_flags = len(set(inv_flags)) == 1 and len(set(reg_flags)) == 1
    passed = constant_flags and worst <= tol.eps_rank
    return InvarianceReport(
        "schur-maximum-principle", grid, witnesses, passed, worst,
        {"alpha_re": alpha.real, "alpha_im": alpha.imag,
         "alpha_regular": int(reg_flags[0]) if constant_flags else -1},
    )


# -- truncation sweep emulating continuous spectrum -----------------------------


@dataclass
class SweepReport:
    """Smallest form eigenvalue along a truncation sweep, with its Harnack corridor."""

    n_list: tuple[int, ...]
    grid: tuple[complex, ...]
    sigma_min: dict  # (n, z) -> float
    monotone: bool
    ratio_worst: float
    ratios_ok: bool
    decay_verdict: str  # "decay" | "no-decay" | "mixed"
    passed: bool

    def rows(self) -> list[dict]:
        return [{"n": n, "z_re": z.real, "z_im": z.imag, "sigma_min": self.sigma_min[(n, z)]}
                for n in self.n_list for z in self.grid]


SWEEP_KEY_BYTES = 1 << 22  # bytes of folded Im F_n one truncation keeps: six at n = 200
MONOTONE_SLACK = 1e-12  # sigma_min may rise by this, relative, from eigensolve round-off


def sweep_continuous_spectrum(
    family_sequence: Callable[[int], FamilyEvaluator],
    n_list: Sequence[int],
    grid: Sequence[complex] | None = None,
    trials: int = 100,
    rng: np.random.Generator | None = None,
) -> SweepReport:
    """Uniform-in-z decay of sigma_min(Im F_n(z)) along growing truncations.

    For each dimension n in the strictly increasing n_list and each grid
    point, the smallest eigenvalue of the folded imaginary part is
    recorded; the sweep passes when it is nonincreasing in n at every z and
    the sigma_min it reports keeps to the Harnack corridor
    c1 sigma_min(z0) <= sigma_min(z) <= c2 sigma_min(z0), z0 the first upper
    grid point: ratio_worst is the worst excess under ``_corridor_worst``, the
    rule of the imag-kernel check, relative to 1 + ||Im F_n(z0)||, passing at
    CORRIDOR_TOL.  By Courant-Fischer ``analysis.form_sandwich_check``'s Loewner
    sandwich implies it; a sandwich violation off the bottom of the
    spectrum passes it.  Each grid point is evaluated once per n and
    streamed, one n x n value live at a time, and folded into one new
    buffer.  Per n the folds are kept with their extreme eigenvalues, at
    most SWEEP_KEY_BYTES of folds, and a fold met again (at a conjugate
    point, or at every point of a height for z M) is found by value compare
    and not decomposed again: its diagonal, -0.0 read as 0.0, picks the
    kept folds to compare, and ``np.array_equal`` with one confirms it.  A
    non-monotone sweep is reported, not fatal by itself for the ratio
    verdict.  trials and rng are not read: nothing here samples.
    """
    n_list = tuple(int(n) for n in n_list)
    if any(b <= a for a, b in zip(n_list, n_list[1:])) or not n_list:
        raise ValueError("n_list must be nonempty and strictly increasing")
    grid = herglotz.offaxis_points(grid, "sweep_continuous_spectrum")
    upper = herglotz.upper_points(grid, "sweep_continuous_spectrum")
    z0 = upper[0]
    signs = herglotz.imag_signs(grid)

    sigma, tops = {}, []  # tops: ||Im F_n(z0)|| per n
    for n in n_list:
        family = family_sequence(n)
        if family.dim != n:
            raise ValueError(f"family_sequence({n}) produced dim {family.dim}")
        seen, room = {}, SWEEP_KEY_BYTES  # fingerprint -> [(fold, its extreme eigenvalues)]
        for z, sign in zip(grid, signs):
            folded = matnum._folded_imag(family(z), sign)
            kept = seen.setdefault((folded.diagonal() + 0.0).tobytes(), [])  # -0.0 read as 0.0
            ends = next((e for f, e in kept if np.array_equal(f, folded)), None)
            if ends is None:
                ends = matnum._lapack("eigvalsh", matnum._herm(folded[None]))[0, [0, -1]].tolist()
                if folded.nbytes <= room:
                    kept.append((folded, ends))
                    room -= folded.nbytes
            sigma[(n, z)] = ends[0]
            if z == z0:
                top = max(-ends[0], ends[1])
        tops.append(top)

    rows = np.array([[sigma[(n, z)] for n in n_list] for z in upper])  # row 0: the anchor z0
    ratio_worst = _corridor_worst(z0, upper, rows[0], rows, 1.0 + np.array(tops))

    monotone = all(sigma[(b, z)] <= sigma[(a, z)] + MONOTONE_SLACK * (1.0 + abs(sigma[(a, z)]))
                   for z in grid for a, b in zip(n_list, n_list[1:]))
    decays = [sigma[(n_list[-1], z)] <= 0.5 * sigma[(n_list[0], z)] + analysis.ZERO_FLOOR
              for z in grid]
    verdict = "decay" if all(decays) else ("no-decay" if not any(decays) else "mixed")
    ratios_ok = ratio_worst <= CORRIDOR_TOL
    return SweepReport(
        n_list, grid, sigma, monotone, ratio_worst, ratios_ok,
        verdict, monotone and ratios_ok and verdict == "decay",
    )
