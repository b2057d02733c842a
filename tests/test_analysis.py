import numpy as np
import pytest

from conftest import cgauss, random_hermitian, random_rep, random_upper
from nevlab import analysis, herglotz, matnum
from nevlab.herglotz import FamilyEvaluator, HerglotzRep


def scalar_family(fn):
    return FamilyEvaluator(1, lambda z: np.array([[fn(z)]]), "test")


class TestHarnackConstants:
    def test_equal_points(self):
        hp = analysis.harnack_constants(1j, 1j)
        assert (hp.c1, hp.c2) == (1.0, 1.0)

    def test_doubling_height(self):
        hp = analysis.harnack_constants(1j, 2j)
        assert hp.c2 == pytest.approx(2.0)
        assert hp.c1 == pytest.approx(0.5)

    def test_reciprocal_duality(self, rng):
        for _ in range(50):
            z1, z2 = random_upper(rng, 2)
            fwd = analysis.harnack_constants(z1, z2)
            bwd = analysis.harnack_constants(z2, z1)
            assert fwd.c1 * bwd.c2 == pytest.approx(1.0, rel=1e-12)
            assert fwd.c1 <= 1.0 <= fwd.c2

    def test_monte_carlo_certificate(self, rng):
        for _ in range(5):
            z1, z2 = random_upper(rng, 2)
            assert analysis.certify_harnack(z1, z2, 1000, rng) <= 1e-12

    def test_supremum_against_dense_grid(self, rng):
        ts = np.linspace(-300.0, 300.0, 120001)
        for _ in range(20):
            z1, z2 = random_upper(rng, 2)
            hp = analysis.harnack_constants(z1, z2)
            p1 = z1.imag / ((z1.real - ts) ** 2 + z1.imag**2)
            p2 = z2.imag / ((z2.real - ts) ** 2 + z2.imag**2)
            assert np.max(p2 / p1) <= hp.c2 * (1 + 1e-12)

    def test_rejects_lower_half_plane(self):
        with pytest.raises(herglotz.DomainError):
            analysis.harnack_constants(1j, -2j)


def test_harnack_constants_at_a_tiny_real_part():
    """A stationary point near -b/a lies past 1e154, where the Poisson ratio is its limit."""
    hp = analysis.harnack_constants(1j, 1e-200 + 2j)
    assert (hp.c1, hp.c2) == (0.5, 2.0)  # the constants of 2i, which it tends to


class TestFormSandwich:
    def test_linear_family_exact(self, rng):
        report = analysis.form_sandwich_check(
            scalar_family(lambda z: z), trials=50, rng=rng
        )
        assert report.passed

    def test_inverse_family(self, rng):
        report = analysis.form_sandwich_check(
            scalar_family(lambda z: -1 / z), trials=50, rng=rng
        )
        assert report.passed

    def test_random_reps(self, rng):
        for _ in range(10):
            report = analysis.form_sandwich_check(random_rep(rng), trials=100, rng=rng)
            assert report.passed

    def test_one_harnack_constants_call_per_compared_point(self, rng, monkeypatch):
        calls = []
        constants = analysis.harnack_constants
        monkeypatch.setattr(analysis, "harnack_constants",
                            lambda z1, z2: calls.append((z1, z2)) or constants(z1, z2))
        report = analysis.form_sandwich_check(random_rep(rng, 3), trials=40, rng=rng)
        assert report.passed
        assert calls == [(1j, z) for z in herglotz.upper_grid() if z != 1j]

    @pytest.mark.parametrize("n", [64, 200])
    def test_product_forms_equal_the_three_operand_einsum(self, rng, n):
        """The one-product forms agree with einsum's to round-off of the matrix norm."""
        for _ in range(5):
            im = random_hermitian(rng, n)
            us = analysis._unit_vectors(rng, 100, n)
            want = np.real(np.einsum("ti,ij,tj->t", us.conj(), im, us))
            got = analysis._forms(us, im)
            # |u* im u| <= ||im|| for a unit u, so the norm is the scale of every form
            assert np.max(np.abs(got - want)) <= 1e-13 * np.linalg.norm(im, 2)

    def test_form_value_nonnegative(self, rng):
        fam = FamilyEvaluator.from_rep(random_rep(rng, 3))
        sample = analysis.form_value(fam, 0.5 + 0.7j, cgauss(rng, 3))
        assert sample.value >= 0.0

    def test_form_value_rejects_a_negative_form(self):
        with pytest.raises(ValueError, match="negative beyond tolerance"):
            analysis.form_value(scalar_family(lambda z: -z), 1j, [1.0])


class TestSplit:
    def test_pure_rep_zero_offset(self, rng):
        rep = random_rep(rng, 3)
        res = analysis.split_bounded_imag(FamilyEvaluator.from_rep(rep))
        assert res.passed
        assert matnum.spectral_norm(res.t_constant) <= 1e-12

    def test_huge_diagonal_offset_recovered(self, rng):
        rep = random_rep(rng, 2)
        t0 = np.diag([1e6, -1e6]).astype(complex)
        fam = FamilyEvaluator.from_rep_with_offset(rep, t0)
        res = analysis.split_bounded_imag(fam)
        assert res.passed
        assert matnum.spectral_norm(res.t_constant - t0) <= 1e-8 * 1e6

    def test_random_offset_round_trip(self, rng):
        for _ in range(10):
            rep = random_rep(rng, 3)
            t0 = random_hermitian(rng, 3, scale=10.0 ** rng.uniform(-1, 5))
            fam = FamilyEvaluator.from_rep_with_offset(rep, t0)
            res = analysis.split_bounded_imag(fam)
            assert res.passed and res.constancy <= 1e-10
            scale = 1 + matnum.spectral_norm(t0)
            assert matnum.spectral_norm(res.t_constant - t0) / scale <= 1e-10

    def test_rebuild_and_resplit_is_identity(self, rng):
        rep = random_rep(rng, 2)
        t0 = random_hermitian(rng, 2)
        first = analysis.split_bounded_imag(FamilyEvaluator.from_rep_with_offset(rep, t0))
        again = analysis.split_bounded_imag(
            FamilyEvaluator.from_rep_with_offset(first.g_rep, first.t_constant)
        )
        assert again.passed
        assert matnum.spectral_norm(again.t_constant - first.t_constant) <= 1e-10 * (
            1 + matnum.spectral_norm(first.t_constant)
        )

    def test_nonconstant_difference_flagged(self):
        rep = HerglotzRep.create([[0.0]], [[1.0]])
        fam = FamilyEvaluator(
            1, lambda z: np.array([[z + 1 / (z * z)]]), "broken", rep=rep
        )
        res = analysis.split_bounded_imag(fam)
        assert not res.passed

    def test_black_box_single_atom(self):
        rep = HerglotzRep.create(
            [[0.4]], [[0.3]], [(1.25, [[2.0]])]
        )
        fam = FamilyEvaluator(
            1, lambda z: herglotz.evaluate(rep, z) + 0.7 * np.eye(1), "blackbox"
        )
        res = analysis.split_black_box(fam, [(0.5, 2.0)])
        assert res.passed
        g = res.g_rep
        assert g.measure.locations[0] == pytest.approx(1.25, abs=1e-3)
        np.testing.assert_allclose(g.measure.weights[0], [[2.0]], rtol=1e-3)
        np.testing.assert_allclose(g.b1, [[0.3]], rtol=1e-3)
        # the real parts B0 and the planted shift merge into the constant
        np.testing.assert_allclose(res.t_constant, [[1.1]], rtol=1e-2)


class TestModulusBound:
    def test_value_at_i_is_exactly_one(self):
        assert analysis.c2_of(1j) == 1.0

    def test_value_at_2i(self):
        assert analysis.c2_of(2j) == pytest.approx(2.0, abs=1e-9)

    def test_dense_grid_oracle(self, rng):
        ts = np.linspace(-2000.0, 2000.0, 200001)
        for _ in range(25):
            z = complex(rng.uniform(-3, 3), 10.0 ** rng.uniform(-1, 1))
            grid_sup = np.max(np.abs(1 + z * ts) / np.abs(ts - z))
            assert grid_sup <= analysis.c2_of(z) * (1 + 1e-12)

    def test_weak_strong_single_atom(self, rng):
        rep = HerglotzRep.create(np.zeros((2, 2)), np.zeros((2, 2)), [(0.0, np.eye(2))])
        report = analysis.weak_strong_check(rep, 1j, trials=50, rng=rng)
        assert report.passed

    def test_weak_strong_random(self, rng):
        for _ in range(10):
            rep = random_rep(rng)
            z = complex(rng.uniform(-2, 2), 10.0 ** rng.uniform(-1, 1))
            assert analysis.weak_strong_check(rep, z, trials=30, rng=rng).passed

    def test_factor_check_random(self, rng):
        for _ in range(10):
            rep = random_rep(rng)
            z = complex(rng.uniform(-2, 2), 10.0 ** rng.uniform(-1, 1))
            report = analysis.factor_check(rep, z)
            assert report.passed
            assert report.worst_ratio <= 1.0 + 1e-9

    def test_factor_implies_vector_bound(self, rng):
        # operator-norm bound dominates every sampled vector ratio
        rep = random_rep(rng, 3)
        z = 0.4 + 1.3j
        op = analysis.factor_check(rep, z)
        vec = analysis.weak_strong_check(rep, z, trials=40, rng=rng)
        assert vec.worst_ratio <= op.worst_ratio + 1e-9

    def test_weak_strong_counts_violations_below_the_true_bound(self, rng, monkeypatch):
        rep = HerglotzRep.create(np.zeros((2, 2)), np.zeros((2, 2)), [(0.0, np.eye(2))])
        monkeypatch.setattr(analysis, "c2_of", lambda z: 0.5)  # c2(i) is 1, attained here
        report = analysis.weak_strong_check(rep, 1j, trials=10, rng=rng)
        assert report.bound == 0.5 and report.violations > 0 and not report.passed

    def test_rank_deficient_measure(self, rng):
        w = np.zeros((3, 3))
        w[0, 0] = 2.0  # measure supported on one coordinate
        rep = HerglotzRep.create(np.zeros((3, 3)), np.zeros((3, 3)), [(0.5, w)])
        assert analysis.factor_check(rep, 1j).passed


class TestSchattenDecay:
    def test_scaled_dyadic_spectrum(self):
        k = np.diag(2.0 ** -np.arange(1, 25))
        fam = FamilyEvaluator(24, lambda z: (1.0 / (0.3 - z)) * k, "test")
        report = analysis.schatten_decay(fam)
        assert report.passed and report.decaying
        assert report.spread <= 1e-8

    def test_identity_no_decay(self):
        fam = FamilyEvaluator(24, lambda z: z * np.eye(24), "test")
        report = analysis.schatten_decay(fam)
        assert report.passed and not report.decaying
        assert report.slopes[0] == pytest.approx(0.0, abs=1e-12)

    def test_cubic_weights_fit(self):
        w = np.diag(np.arange(1, 31, dtype=float) ** -3.0)
        rep = HerglotzRep.create(np.zeros((30, 30)), np.zeros((30, 30)), [(0.0, w)])
        fam = FamilyEvaluator.from_rep(rep)
        report = analysis.schatten_decay(fam)
        assert report.passed
        for slope in report.slopes:
            assert slope == pytest.approx(-3.0, abs=0.1)

    def test_invariant_under_matched_offset(self):
        w = np.diag(np.arange(1, 31, dtype=float) ** -3.0)
        rep = HerglotzRep.create(np.zeros((30, 30)), np.zeros((30, 30)), [(0.0, w)])
        plain = analysis.schatten_decay(FamilyEvaluator.from_rep(rep))
        shifted = analysis.schatten_decay(FamilyEvaluator.from_rep_with_offset(rep, 0.5 * w))
        for a, b in zip(plain.slopes, shifted.slopes):
            assert abs(a - b) <= 0.1

    def test_a_window_of_fewer_than_three_indices_cannot_pass(self, rng):
        """dim 6 leaves one index in the window: its slope 0.0 fits any spectrum."""
        report = analysis.schatten_decay(FamilyEvaluator.from_rep(random_rep(rng, 6)))
        assert report.slopes == (0.0,) * len(report.slopes) and report.spread == 0.0
        assert not report.passed
        for n, passes in ((17, False), (18, True)):  # windows of 2 and 3 indices
            fam = FamilyEvaluator(n, lambda z, n=n: z * np.eye(n), "test")
            assert analysis.schatten_decay(fam).passed == passes
