from contextlib import ExitStack
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cgauss, random_upper
from nevlab import analysis, examples, herglotz, matnum
from nevlab.examples import Ex4AConfig, SturmLiouvilleConfig
from nevlab.herglotz import HerglotzRep


def phi_linear():
    return HerglotzRep.create([[0.0]], [[1.0]])  # phi(z) = z


def phi_zero():
    return HerglotzRep.create([[0.0]], [[0.0]])


class TestIntervalFamily:
    def test_shape_and_single_moving_entry(self):
        fam = examples.build_interval_family(
            SturmLiouvilleConfig(n=8, phi=phi_linear())
        )
        a, b = fam(1j), fam(2 + 3j)
        assert a.shape == (8, 8)
        diff = a - b
        diff[0, 0] = 0.0
        assert matnum.spectral_norm(diff) == 0.0

    def test_neumann_constant_in_upper_half_plane(self, rng):
        fam = examples.build_interval_family(SturmLiouvilleConfig(n=8, phi=phi_zero()))
        zs = random_upper(rng, 4)
        base = fam(zs[0])
        for z in zs[1:]:
            assert matnum.spectral_norm(fam(z) - base) == 0.0

    def test_dissipative_forms(self, rng):
        fam = examples.build_interval_family(
            SturmLiouvilleConfig(n=16, phi=phi_linear())
        )
        for z in random_upper(rng, 5):
            im = matnum.imag_part(fam(z))
            for _ in range(20):
                u = cgauss(rng, 16)
                assert np.real(u.conj() @ im @ u) >= -1e-10 * np.real(u.conj() @ u)

    def test_family_symmetry_and_membership(self):
        fam = examples.build_interval_family(
            SturmLiouvilleConfig(n=12, phi=phi_linear())
        )
        assert fam.symmetry_residual() <= 1e-12
        assert herglotz.classify(fam).label != "not-R"

    def test_no_real_spectrum_at_fixed_size(self):
        # discrete spectrum sits on the dissipative side; real points stay regular
        fam = examples.build_interval_family(
            SturmLiouvilleConfig(n=32, phi=phi_linear())
        )
        f = fam(1j)
        for a in (1.0, 10.0, 100.0):
            smin = matnum.singular_values(f - a * np.eye(32))[-1]
            assert smin > 1e-2

    def test_imag_part_gaps_persist_across_z(self, rng):
        fam = examples.build_interval_family(
            SturmLiouvilleConfig(n=16, phi=phi_linear())
        )
        gaps = []
        for z in random_upper(rng, 4):
            w = np.linalg.eigvalsh(matnum.herm_part(matnum.imag_part(fam(z))))
            gaps.append(np.min(np.diff(w)))
        assert min(gaps) > 0


class TestDecayExponent:
    def test_interval_slope_at_n400(self):
        fam = examples.build_interval_family(
            SturmLiouvilleConfig(n=400, phi=phi_linear())
        )
        slope = examples.decay_exponent(fam, 1j)
        assert -2.1 <= slope <= -1.9

    def test_slope_invariant_across_z(self):
        fam = examples.build_interval_family(
            SturmLiouvilleConfig(n=400, phi=phi_linear())
        )
        s1 = examples.decay_exponent(fam, 1j)
        s2 = examples.decay_exponent(fam, 2 + 3j)
        assert abs(s1 - s2) <= 0.05

    def test_dirichlet_dirichlet_constant_family(self):
        fam = examples.build_interval_family(SturmLiouvilleConfig(n=400, phi=None))
        slope = examples.decay_exponent(fam, 1j)
        assert -2.1 <= slope <= -1.9

    def test_rejects_real_points(self):
        fam = examples.build_interval_family(SturmLiouvilleConfig(n=8, phi=phi_zero()))
        with pytest.raises(herglotz.DomainError):
            examples.decay_exponent(fam, 1.0)

    def test_profile_is_the_inverse_profile_without_an_inverse(self):
        fam = examples.build_interval_family(SturmLiouvilleConfig(n=64, phi=phi_linear()))
        js, s, slope = examples.decay_profile(fam, 0.7 + 0.1j)
        inverse = matnum.inverse(fam(0.7 + 0.1j), examples.EXAMPLE_RCOND_MIN)
        np.testing.assert_allclose(s, matnum.singular_values(inverse)[js - 1], rtol=1e-12)
        assert slope == pytest.approx(analysis.fit_log_slope(js, s), rel=0, abs=0)

    @pytest.mark.parametrize("rcond", [1e-17, 0.5 * examples.EXAMPLE_RCOND_MIN])
    def test_near_singular_value_raises_the_solve_guard_error(self, rng, rcond):
        n = 16
        u, _ = np.linalg.qr(cgauss(rng, n, n))
        v, _ = np.linalg.qr(cgauss(rng, n, n))
        g = (u * np.geomspace(1.0, rcond, n)) @ v.conj().T
        fam = herglotz.FamilyEvaluator.from_callable(lambda z: g, n)
        with pytest.raises(matnum.ConditioningError) as solved:
            matnum.solve(g, np.eye(n), examples.EXAMPLE_RCOND_MIN)
        with pytest.raises(matnum.ConditioningError) as got:
            examples.decay_profile(fam, 1j)
        assert str(got.value) == str(solved.value)


class TestHalflineFamily:
    def test_nonhermitian_only_in_corner(self):
        config = SturmLiouvilleConfig(
            n=16, phi=phi_linear(), variant=examples.VARIANT_HALFLINE
        )
        fam = examples.build_halfline_family(config)
        f = fam(1j)
        skew = f - f.conj().T
        skew[0, 0] = 0.0
        assert matnum.spectral_norm(skew) == 0.0

    def test_symmetry_automatic(self):
        config = SturmLiouvilleConfig(
            n=16, phi=phi_linear(), variant=examples.VARIANT_HALFLINE
        )
        assert examples.build_halfline_family(config).symmetry_residual() <= 1e-13

    def test_gap_sweep_fills_positive_axis(self):
        rows = examples.halfline_gap_sweep(
            phi_linear(), a_values=[0.5, 2.0], n_list=[16, 32, 64, 128]
        )
        for a in (0.5, 2.0):
            gaps = [r["gap"] for r in rows if r["a"] == a]
            assert all(b < x for x, b in zip(gaps, gaps[1:]))
            assert gaps[-1] < 0.5 * gaps[0]

    def test_gap_sweep_decays_for_every_z_simultaneously(self):
        zs = (1j, 2 + 0.5j, -1 + 3j)
        rows = examples.halfline_gap_sweep(
            phi_linear(), a_values=[0.5, 2.0], n_list=[16, 32, 64, 128, 256], zs=zs,
        )
        for z in zs:
            for a in (0.5, 2.0):
                gaps = [
                    r["gap"]
                    for r in rows
                    if r["a"] == a and r["z_re"] == z.real and r["z_im"] == z.imag
                ]
                assert gaps[-1] < 0.25 * gaps[0]
                assert gaps[-1] < 0.15

    def test_dissipative_halfline_combo_variant(self):
        config = SturmLiouvilleConfig(
            n=64, phi=phi_linear(), length=6.4,
            variant=examples.VARIANT_DISS_HALFLINE,
        )
        fam = examples.build_interval_family(config)
        assert fam.symmetry_residual() <= 1e-12
        assert herglotz.classify(fam).label != "not-R"

    def test_eigenvalue_fill_of_real_part(self):
        # Hermitian part spectrum approaches any a >= 0 as the box grows
        for n, bound in ((32, 1.0), (256, 0.2)):
            config = SturmLiouvilleConfig(
                n=n, phi=phi_zero(), length=n * 0.1, variant=examples.VARIANT_HALFLINE
            )
            w = np.linalg.eigvalsh(
                matnum.herm_part(examples.build_halfline_family(config)(1j))
            )
            assert np.min(np.abs(w - 2.0)) < bound


class TestEx4A:
    def test_scalar_closed_form(self):
        ex = examples.build_ex4a(Ex4AConfig(n=1, b_decay=[1.0]))
        np.testing.assert_allclose(ex.f_family(1j), [[-0.5 + 0.5j]], atol=1e-14)
        assert matnum.imag_part(ex.f_family(1j))[0, 0] == pytest.approx(0.5)

    def test_m_family_membership(self):
        ex = examples.build_ex4a(Ex4AConfig(n=8, c_perturbation=0.3, seed=2))
        assert herglotz.classify(ex.m_family).label != "not-R"
        assert ex.m_family.symmetry_residual() <= 1e-10

    def test_f_family_strict(self):
        ex = examples.build_ex4a(Ex4AConfig(n=8, c_perturbation=0.3, seed=2))
        assert herglotz.classify(ex.f_family).label in ("R^s", "R^u")

    def test_form_identity_through_weights(self, rng):
        ex = examples.build_ex4a(Ex4AConfig(n=6, c_perturbation=0.4, seed=5))
        b_sqrt = np.sqrt(ex.b)
        for z in random_upper(rng, 4):
            n_tilde = herglotz.nevanlinna_kernel(ex.f_tilde, z, z)
            im_f = matnum.imag_part(ex.f_family(z))
            for _ in range(5):
                v = cgauss(rng, 6)
                u = b_sqrt * v
                lhs = np.real(u.conj() @ im_f @ u) / z.imag
                rhs = np.real(v.conj() @ n_tilde @ v)
                assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_conditioning_tracks_diagonal_floor(self):
        config = Ex4AConfig(n=30, c_perturbation=0.2, seed=1)
        ex = examples.build_ex4a(config)
        rc = examples.solve_conditioning(ex, [1j])[0]
        assert rc <= 10 * float(ex.b.min())
        assert rc > 0

    def test_diagonal_floor_applied(self):
        ex = examples.build_ex4a(Ex4AConfig(n=30))
        assert float(ex.b.min()) == pytest.approx(1e-6)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            Ex4AConfig(n=4, c_perturbation=0.95)
        with pytest.raises(ValueError):
            examples.build_ex4a(Ex4AConfig(n=3, b_decay=[0.5, 0.5, 0.1]))


def _assert_matches_dense(ex, grid, rng):
    """The report's extremes, excess and verdict against the whitened dense rule."""
    n = ex.config.n
    test = np.sqrt(ex.b)[:, None] * np.linalg.qr(cgauss(rng, n, n))[0]
    im0 = matnum.imag_part(ex.f_family(1j))
    w0, v0 = matnum.herm_part_eig(test.conj().T @ im0 @ test, vectors=True)
    white = test @ ((v0 / np.sqrt(w0)) @ v0.conj().T)
    extremes, worst = [], 0.0
    for z in herglotz.upper_points(grid):
        w = matnum.herm_part_eig(white.conj().T @ matnum.imag_part(ex.f_family(z)) @ white)
        hp = analysis.harnack_constants(1j, z)
        extremes.append((w[0], w[-1]))
        worst = max(worst, analysis.harnack_excess(hp, 1.0, w[[0, -1]], max(w[-1], hp.c2)))
    report = examples.form_domain_report(ex, grid)
    np.testing.assert_allclose(report.extremes, extremes, rtol=1e-12)
    assert report.worst_violation == pytest.approx(worst, rel=0, abs=1e-12)
    assert report.passed == (worst <= analysis.SANDWICH_TOL)


class TestFormDomainReport:
    def test_unperturbed_exact_proportionality(self):
        ex = examples.build_ex4a(Ex4AConfig(n=10, c_perturbation=0.0))
        report = examples.form_domain_report(ex)
        assert report.passed
        for (lo, hi) in report.extremes:
            assert hi - lo <= 1e-8 * hi  # all generalized eigenvalues coincide

    def test_perturbed_within_constants(self):
        ex = examples.build_ex4a(Ex4AConfig(n=30, c_perturbation=0.5, seed=9))
        report = examples.form_domain_report(ex)
        assert report.passed

    def test_whitened_extremes_are_the_generalized_ones(self):
        """W* Im F(z) W, W = test Q(z0)^(-1/2), against Q(z0)^(-1/2) Q(z) Q(z0)^(-1/2)."""
        ex = examples.build_ex4a(Ex4AConfig(n=20, c_perturbation=0.3, seed=2))
        report = examples.form_domain_report(ex, rng=np.random.default_rng(7))
        rng = np.random.default_rng(7)
        v = np.linalg.qr(cgauss(rng, 20, 20))[0]
        test = np.sqrt(ex.b)[:, None] * v

        def gram(z):
            return matnum.herm_part(test.conj().T @ matnum.imag_part(ex.f_family(z)) @ test)

        w0, v0 = np.linalg.eigh(gram(1j))
        isqrt = (v0 / np.sqrt(w0)) @ v0.conj().T
        for z, (lo, hi) in zip(report.grid, report.extremes):
            w = np.linalg.eigvalsh(matnum.herm_part(isqrt @ gram(z) @ isqrt))
            np.testing.assert_allclose([lo, hi], w[[0, -1]], rtol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(grid=st.none() | st.lists(
        st.builds(complex, st.floats(-1e3, 1e3), st.floats(1e-3, 1e3)), min_size=1, max_size=20))
    def test_the_report_takes_one_eigensolve_and_no_solve(self, grid):
        """For any grid: no rule of the example runs, and LAPACK sees C alone, once."""
        ex = examples.build_ex4a(Ex4AConfig(n=128, c_perturbation=0.3, seed=2))
        rules, seen = [], []
        lapack = matnum._lapack
        with ExitStack() as stack:
            for fam in (ex.f_family, ex.f_tilde, ex.m_family):
                stack.enter_context(mock.patch.object(
                    fam, "grid_fn", lambda zs, rule=fam.grid_fn: rules.append(zs) or rule(zs)))
            stack.enter_context(mock.patch.object(
                matnum, "_lapack", lambda kind, m: seen.append((kind, m.shape)) or lapack(kind, m)))
            examples.form_domain_report(ex, grid)
        assert rules == [] and seen == [("eigvalsh", (1, 128, 128))]

    def test_bounds_contain_extremes(self):
        ex = examples.build_ex4a(Ex4AConfig(n=12, c_perturbation=0.4, seed=4))
        report = examples.form_domain_report(ex)
        for (c1, c2), (lo, hi) in zip(report.bounds, report.extremes):
            assert c1 * (1 - 1e-8) <= lo and hi <= c2 * (1 + 1e-8)

    def test_the_anchor_row_is_exactly_one(self):
        ex = examples.build_ex4a(Ex4AConfig(n=30, c_perturbation=0.5, seed=9))
        report = examples.form_domain_report(ex, [2 + 1j, 1j, 1j])
        assert report.extremes[1:] == ((1.0, 1.0), (1.0, 1.0))

    def test_extremes_match_the_dense_generalized_eigenvalues(self):
        """40 small configs against the report as 15 inverses and a whitening computed it.

        The dense rule loses about eps |F(z)| / Im F(z) to cancellation in Im F, 7e-12 at
        z = 1000 + 1i, so its far points keep arg z in [pi/4, 3pi/4] and its points at
        Im z = 1e-3 keep Re z below the first pole 1/lambda_max > 0.52 of C - 1/z.
        """
        for n in range(1, 41):
            seed = n - 1
            rng = np.random.default_rng(seed)
            decay = None if seed % 2 else np.sort(10.0 ** -rng.uniform(0, 8, n))[::-1]
            ex = examples.build_ex4a(Ex4AConfig(
                n=n, b_decay=decay, c_perturbation=float(rng.uniform(0, 0.89)), seed=seed))
            grid = (list(herglotz.upper_grid())
                    + list(rng.uniform(-3.0, 0.5, 3) + 1e-3j)
                    + list(1e3 * np.exp(1j * rng.uniform(np.pi / 4, 3 * np.pi / 4, 3))) + [1e3j])
            _assert_matches_dense(ex, grid, rng)

    def test_large_n_extremes_match_the_dense_generalized_eigenvalues(self):
        ex = examples.build_ex4a(Ex4AConfig(n=200, c_perturbation=0.3, seed=3))
        _assert_matches_dense(ex, None, np.random.default_rng(3))

    def test_extremes_are_exact_where_the_dense_rule_is_not(self):
        """Against 40-digit ratios Im c_k(z) / Im c_k(i) of C's computed eigenvalues, at points
        the dense rule misses: far out near the axis and next to a pole of (C - 1/z)^(-1)."""
        ex = examples.build_ex4a(Ex4AConfig(n=12, c_perturbation=0.6, seed=8))
        lam = [mpmath.mpf(float(x)) for x in np.linalg.eigvalsh(ex.c)]
        grid = [1e3 + 1j, -1e3 + 1e-3j, 1 / float(lam[0]) + 1e-3j, 2.0 + 1e-3j]
        report = examples.form_domain_report(ex, grid)
        with mpmath.workdps(40):
            for z, got in zip(grid, report.extremes):
                z = mpmath.mpc(z)
                ratios = [z.imag * (1 + x * x) / abs(1 - x * z) ** 2 for x in lam]
                np.testing.assert_allclose(got, [float(min(ratios)), float(max(ratios))],
                                           rtol=1e-14)

    @pytest.mark.parametrize("eps, fails", [(1e-18, True), (1e-13, False)])
    def test_solve_guard_matches_the_family(self, eps, fails):
        """z = 1/lambda_k + i eps puts rcond(C - 1/z) a decade or more off EXAMPLE_RCOND_MIN.

        At n = 2 the dense SVD resolves the planted rcond (2e-17); from n = 3 on it floors
        at the 1e-16 to 2e-15 round-off of C's spectrum, where the two estimates may split.
        """
        ex = examples.build_ex4a(Ex4AConfig(n=2, c_perturbation=0.5, seed=0))
        lam = np.linalg.eigvalsh(ex.c)
        z = 1 / lam[0] + 1j * eps
        s = np.abs(lam - 1 / z)
        for rc in (matnum.rcond(ex.c - np.eye(2) / z), s.min() / s.max()):
            assert (rc * 10 <= examples.EXAMPLE_RCOND_MIN) if fails else (
                rc >= 10 * examples.EXAMPLE_RCOND_MIN)
        for call in (lambda: ex.f_family(z), lambda: examples.form_domain_report(ex, [z])):
            if fails:
                with pytest.raises(matnum.ConditioningError,
                                   match="^solve rejected: reciprocal condition"):
                    call()
            else:
                call()


def test_config_validation():
    with pytest.raises(ValueError):
        SturmLiouvilleConfig(n=4, phi=None)
    with pytest.raises(ValueError):
        SturmLiouvilleConfig(n=8, phi=None, variant="unknown")
    with pytest.raises(ValueError):
        SturmLiouvilleConfig(n=8, phi=HerglotzRep.create(np.zeros((2, 2)), np.eye(2)))
