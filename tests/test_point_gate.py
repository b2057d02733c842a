"""The point gate of ``nevlab.herglotz``, seen through every verifier that reads it.

A verifier quantified over "z off the real axis" or "z in C_+" reads its
grid through ``herglotz.offaxis_points`` or ``herglotz.upper_points``, so
real points mixed into a grid change no report: they are dropped before
anything is evaluated.  The representation below has atoms at three of
the real points, so a verifier that evaluated one would raise a
PoleError.  A verifier whose grid has no point of the kind it quantifies
over raises a DomainError naming itself.  A function defined at one point
of C_+, or at one point off the axis, rejects any other point with a
DomainError.
"""

import numpy as np
import pytest

from conftest import random_hermitian, random_psd
from nevlab import analysis, examples, herglotz, invariance, pairs, relations, runner
from nevlab.examples import Ex4AConfig, SturmLiouvilleConfig
from nevlab.herglotz import FamilyEvaluator, HerglotzRep

_gen = np.random.default_rng(7)
ATOMS = (-2.0, 0.0, 1.5)
REP = HerglotzRep.create(random_hermitian(_gen, 3), random_psd(_gen, 3, 0.5) + 0.3 * np.eye(3),
                         [(t, random_psd(_gen, 3, 0.7)) for t in ATOMS])
FAMILY = FamilyEvaluator.from_rep(REP)
PAIR = pairs.canonical_pair(FAMILY)
EX = examples.build_ex4a(Ex4AConfig(n=6, c_perturbation=0.3, seed=2))
SL_FAMILY = examples.build_family(SturmLiouvilleConfig(n=8, phi=None))
GRID = herglotz.default_grid()[::2]  # upper points first, then lower ones

# three real points on atoms (0.0 is a pole of Ex4A's F as well), one off them,
# one a Python int, one with a negative zero imaginary part
REAL_POINTS = (complex(0.0, 0.0), 1.5, -2.0, 0.7, 3, complex(1.0, -0.0))


def _mixed(grid) -> list:
    """grid with real points before, between and after its points."""
    grid = list(grid)
    return [REAL_POINTS[0]] + grid[:3] + [REAL_POINTS[1]] + grid[3:] + list(REAL_POINTS[2:])


VERIFIERS = {
    "point": lambda g: invariance.check_point_invariance(PAIR, 0.5, g),
    "imag_kernel": lambda g: invariance.check_imag_kernel_invariance(FAMILY, g),
    "resolvent": lambda g: invariance.check_resolvent_invariance(PAIR, 0.5, g),
    "boundedness": lambda g: invariance.check_boundedness_invariance(PAIR, g),
    "mul": lambda g: invariance.check_mul_invariance(PAIR, g),
    "schur": lambda g: invariance.maximum_principle_schur(PAIR, 1.0, g),
    "classify": lambda g: herglotz.classify(FAMILY, grid=g),
    "validate": lambda g: pairs.validate(PAIR, g),
    "equivalent": lambda g: pairs.equivalent(PAIR, pairs.reparametrized(PAIR, 2.0 * np.eye(3)), g),
    "form_sandwich": lambda g: analysis.form_sandwich_check(REP, g),
    "form_domain": lambda g: examples.form_domain_report(EX, g, rng=np.random.default_rng(1)),
    "sweep": lambda g: invariance.sweep_continuous_spectrum(
        runner._SWEEPS["atomic-dyadic"], (2, 4), g, trials=20, rng=np.random.default_rng(0)),
    "symmetry_residual": lambda g: FAMILY.symmetry_residual(g),
    "schatten": lambda g: analysis.schatten_decay(FAMILY, g),
    "split": lambda g: (lambda r: (r.constancy, r.hermitian_residual, r.passed,
                                   r.t_constant.tolist()))(analysis.split_bounded_imag(FAMILY, g)),
}


@pytest.mark.parametrize("name", VERIFIERS)
def test_real_points_in_the_grid_change_no_report(name):
    verify = VERIFIERS[name]
    assert verify(_mixed(GRID)) == verify(GRID)


OFFAXIS_VERDICTS = {  # each quantifies over the off-axis points of its grid
    "classify": lambda g: herglotz.classify(FamilyEvaluator(1, lambda z: np.array([[-z]])), grid=g),
    "validate": lambda g: pairs.validate(PAIR, g),
    "equivalent": lambda g: pairs.equivalent(
        PAIR, pairs.transform(PAIR, pairs.JUnitary.flip(PAIR.dim)), g),
    "split_bounded_imag": lambda g: analysis.split_bounded_imag(FAMILY, g),
    "split_black_box": lambda g: analysis.split_black_box(FAMILY, [(1.0, 2.0)], g),
    "check_point_invariance": lambda g: invariance.check_point_invariance(PAIR, 0.5, g),
    "sweep_continuous_spectrum": lambda g: invariance.sweep_continuous_spectrum(
        runner._SWEEPS["atomic-dyadic"], (2, 4), g, trials=5),
}
UPPER_VERDICTS = {  # each quantifies over the points of its grid in C_+
    "form_sandwich_check": lambda g: analysis.form_sandwich_check(REP, g),
    "schatten_decay": lambda g: analysis.schatten_decay(FAMILY, g),
    "form_domain_report": lambda g: examples.form_domain_report(EX, g),
    "maximum_principle_schur": lambda g: invariance.maximum_principle_schur(PAIR, 1.0, g),
}


@pytest.mark.parametrize("name, grid", [(name, grid) for name in OFFAXIS_VERDICTS
                                        for grid in ((), (0.5, 2.0))]
                         + [(name, grid) for name in UPPER_VERDICTS
                            for grid in ((), (0.5, 2.0), (-1j, 2.0 - 1j))])
def test_a_verdict_over_an_empty_grid_raises_naming_itself(name, grid):
    verdict = OFFAXIS_VERDICTS.get(name) or UPPER_VERDICTS[name]
    where = "off the real axis" if name in OFFAXIS_VERDICTS else r"in C_\+"
    with pytest.raises(herglotz.DomainError, match=f"^{name}: the grid has no point {where}$"):
        verdict(grid)


UPPER_GUARDS = {
    "imag_poisson": lambda z: herglotz.imag_poisson(REP, z),
    "cayley": lambda z: pairs.cayley(PAIR, z),
    "schur_kernel": lambda z: pairs.schur_kernel(PAIR, z, 1j),
    "schur_kernel (second point)": lambda z: pairs.schur_kernel(PAIR, 1j, z),
    "kernel_identity_residual": lambda z: pairs.kernel_identity_residual(PAIR, 1j, z),
    "harnack_constants": lambda z: analysis.harnack_constants(z, 1j),
    "harnack_constants (second point)": lambda z: analysis.harnack_constants(1j, z),
    "form_sandwich_check": lambda z: analysis.form_sandwich_check(FAMILY, [2j], z),
    "c2_of": analysis.c2_of,
    "classify_family_pair": lambda z: invariance.classify_family_pair(PAIR, z=z),
    "symmetric_core": lambda z: relations.symmetric_core(PAIR, z),
}
OFFAXIS_GUARDS = {
    "decay_profile": lambda z: examples.decay_profile(SL_FAMILY, z),
    "from_pair_at": lambda z: relations.from_pair_at(PAIR, z),
}


@pytest.mark.parametrize("z", [0.5, complex(-1.0, 0.0), complex(2.0, -0.0), -1j, 2.0 - 0.3j])
@pytest.mark.parametrize("name", UPPER_GUARDS)
def test_a_c_plus_guard_rejects_the_axis_and_the_lower_half_plane(name, z):
    with pytest.raises(herglotz.DomainError):
        UPPER_GUARDS[name](z)
    UPPER_GUARDS[name](0.3 + 2j)


@pytest.mark.parametrize("z", [0.5, complex(-1.0, 0.0), complex(2.0, -0.0)])
@pytest.mark.parametrize("name", OFFAXIS_GUARDS)
def test_an_off_axis_guard_rejects_the_axis_only(name, z):
    with pytest.raises(herglotz.DomainError):
        OFFAXIS_GUARDS[name](z)
    OFFAXIS_GUARDS[name](0.3 - 2j)
    OFFAXIS_GUARDS[name](0.3 + 2j)


@pytest.mark.parametrize("name", sorted(UPPER_GUARDS.keys() - {"kernel_identity_residual"}
                                        | OFFAXIS_GUARDS.keys()))
def test_a_guard_names_its_function(name):
    guard = UPPER_GUARDS.get(name) or OFFAXIS_GUARDS[name]
    with pytest.raises(herglotz.DomainError, match=name.split(" ")[0]):
        guard(0.5)


def test_the_gate_keeps_grid_order_and_reads_none_as_the_default_grid():
    grid = [2 - 1j, 0.5, 1j, complex(3.0, -0.0), -1 + 0.1j, 4]
    assert herglotz.offaxis_points(grid) == (2 - 1j, 1j, -1 + 0.1j)
    assert herglotz.upper_points(grid) == (1j, -1 + 0.1j)
    assert herglotz.offaxis_points() == herglotz.default_grid()
    assert herglotz.upper_points() == herglotz.upper_grid()
    assert len(herglotz.upper_grid()) == 15
    signs = herglotz.imag_signs(herglotz.offaxis_points(grid))
    assert signs.dtype == np.float64 and signs.shape == (3, 1, 1)
    assert signs.ravel().tolist() == [-1.0, 1.0, 1.0]


def test_conjugate_points_is_the_one_diagonal_test():
    tol = herglotz.DEFAULT_TOL
    assert herglotz.conjugate_points(1 + 2j, 1 - 2j, tol)
    assert not herglotz.conjugate_points(1 + 2j, 1 + 2j, tol)
    with pytest.raises(pairs.DiagonalKernelError):
        pairs.pair_kernel(PAIR, 1 + 2j, 1 - 2j)
    with pytest.raises(herglotz.DomainError):
        herglotz.nevanlinna_kernel(FamilyEvaluator.from_callable(FAMILY, 3), 1 + 2j, 1 - 2j)


def test_as_family_reads_a_representation_as_its_family():
    assert herglotz.as_family(FAMILY) is FAMILY
    family = herglotz.as_family(REP)
    assert family.rep is REP and np.array_equal(family(1j), FAMILY(1j))
