import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import cgauss, random_hermitian, random_rep, random_upper
from nevlab import analysis, herglotz, matnum
from nevlab.herglotz import FamilyEvaluator, HerglotzRep


def scalar_family(fn):
    return FamilyEvaluator(1, lambda z: np.array([[fn(z)]]), "test")


# Finite points whose geodesic has a finite center but a far end past the float range.
FAR_END_OVERFLOWS = (7.5e307j, 1.5e308 + 7.5e307j)


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

    @pytest.mark.parametrize("pair", [None, (1j, 1e70 + 1j), (1j, 1e80 + 1j), (1j, 1e308j),
                                      (1e308j, 1e308j), (1j, 1e-200 + 2j),
                                      (-1e308 + 1e308j, 1e308 + 1e308j), FAR_END_OVERFLOWS],
                             ids=["random", "far-1e70", "far-1e80", "tall", "equal-tall",
                                  "tiny-gap", "apart-past-the-float-range", "far-end-overflows"])
    def test_certificate_on_the_extreme_rays(self, pair, rng, monkeypatch):
        """The largest and least ray ratios are c2 and c1, and the certificate reads round-off."""
        seen = []
        excess = analysis._ratio_excess
        monkeypatch.setattr(analysis, "_ratio_excess",
                            lambda hp, ratios: seen.append((hp, ratios)) or excess(hp, ratios))
        for z1, z2 in [random_upper(rng, 2) for _ in range(200)] if pair is None else [pair]:
            assert analysis.certify_harnack(z1, z2) <= analysis.HARNACK_CERTIFICATE_TOL
            hp, ratios = seen.pop()
            assert max(ratios) == pytest.approx(hp.c2, rel=1e-11)
            assert min(ratios) == pytest.approx(hp.c1, rel=1e-11)

    def test_a_c2_past_the_float_range_holds_every_ratio(self):
        """c2 = inf, c1 = 0: the ray ratios overflow too, and the certificate passes."""
        assert analysis.harnack_constants(1j, 1e200 + 1j).c2 == math.inf
        assert analysis.certify_harnack(1j, 1e200 + 1j) == 0.0

    def test_an_understated_c2_fails_the_certificate(self, rng, monkeypatch):
        c2 = analysis._harnack_c2
        monkeypatch.setattr(analysis, "_harnack_c2", lambda z1, z2: c2(z1, z2) * (1 - 1e-10))
        for z1, z2 in [random_upper(rng, 2) for _ in range(200)] + [FAR_END_OVERFLOWS]:
            assert analysis.certify_harnack(z1, z2) > analysis.HARNACK_CERTIFICATE_TOL

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
    """Real parts 1e-200 apart: the gap is far below round-off of the heights."""
    hp = analysis.harnack_constants(1j, 1e-200 + 2j)
    assert (hp.c1, hp.c2) == (0.5, 2.0)  # the constants of 2i, which it tends to


def _upper(sign, power, height):
    """sign * 10**power + i 10**height; power None is a zero real part."""
    return complex(0.0 if power is None else sign * 10.0 ** power, 10.0 ** height)


# a point with |x| from 1e-6 to 1e150 (or 0) and y from 1e-6 to 1e6, log-uniform
UPPER = st.builds(_upper, st.sampled_from([-1.0, 1.0]),
                  st.one_of(st.none(), st.floats(-6.0, 150.0)), st.floats(-6.0, 6.0))


def _mp_c2(z1: complex, z2: complex):
    """(|z1 - conj z2| + |z1 - z2|)^2 / (4 y1 y2) at 50 digits."""
    with mpmath.workdps(50):
        w1, w2 = mpmath.mpc(z1), mpmath.mpc(z2)
        s = abs(w1 - mpmath.conj(w2)) + abs(w1 - w2)
        return s * s / (4 * w1.imag * w2.imag)


def _mp_c2_of(z: complex):
    """(1 + |z|^2 + |1 + z^2|) / (2 Im z) at 50 digits, a second form of the same constant."""
    with mpmath.workdps(50):
        w = mpmath.mpc(z)
        return (1 + abs(w) ** 2 + abs(1 + w * w)) / (2 * w.imag)


def _close(value: float, reference) -> bool:
    """value within 1e-14 of the reference, or inf where the reference leaves the float range."""
    if reference > sys.float_info.max:
        return value == float("inf")
    return abs(mpmath.mpf(value) - reference) <= 1e-14 * reference


@settings(max_examples=150, deadline=None)
@given(z1=UPPER, z2=UPPER)
@example(z1=1j, z2=1e200 + 1j)  # c2 = 1e400 leaves the float range: inf, and c1 = 0.0
def test_harnack_constants_against_mpmath(z1, z2):
    hp, ref = analysis.harnack_constants(z1, z2), _mp_c2(z1, z2)
    assert _close(hp.c2, ref)
    assert hp.c1 == 0.0 if ref > sys.float_info.max else _close(hp.c1, 1 / ref)
    assert _close(analysis.c2_of(z2), _mp_c2_of(z2))


@pytest.mark.parametrize("z1, z2", [
    (1e308j, 1e308j),  # c2 = 1
    (1j, 1e308j),  # c2 = 1e308
    (1e308 + 1.7e308j, -1.7e308 + 1.7e308j),  # halving the points would not keep s finite
])
def test_harnack_constants_near_the_float_range(z1, z2):
    """Heights and gaps past half the float range: s overflows, c2 does not."""
    hp, ref = analysis.harnack_constants(z1, z2), _mp_c2(z1, z2)
    assert _close(hp.c2, ref) and _close(hp.c1, 1 / ref)


def test_harnack_excess_reads_a_nan_as_a_failure():
    nan = float("nan")
    for hp, value in [(analysis.HarnackPair(1j, 1j, nan, nan), 1.0),
                      (analysis.harnack_constants(1j, 2j), nan)]:
        assert analysis.harnack_excess(hp, np.ones(3), value, 1.0) == float("inf")


def test_harnack_constants_far_apart():
    """The real parts 1e70 apart at unit height: c2 = 1e140, and c1 its reciprocal."""
    hp = analysis.harnack_constants(1j, 1e70 + 1j)
    assert hp.c2 == pytest.approx(1e140, rel=1e-14)
    assert hp.c1 * hp.c2 == pytest.approx(1.0, rel=1e-15)


@settings(max_examples=100, deadline=None)
@given(z=UPPER)
def test_c2_of_is_the_harnack_constant_from_i(z):
    assert analysis.c2_of(z) == analysis.harnack_constants(1j, z).c2


class TestFormSandwich:
    def test_linear_family_exact(self):
        report = analysis.form_sandwich_check(scalar_family(lambda z: z))
        assert report.passed

    def test_inverse_family(self):
        report = analysis.form_sandwich_check(scalar_family(lambda z: -1 / z))
        assert report.passed

    def test_random_reps(self, rng):
        for _ in range(10):
            report = analysis.form_sandwich_check(random_rep(rng))
            assert report.passed

    def test_one_harnack_constants_call_per_compared_point(self, rng, monkeypatch):
        calls = []
        constants = analysis.harnack_constants
        monkeypatch.setattr(analysis, "harnack_constants",
                            lambda z1, z2: calls.append((z1, z2)) or constants(z1, z2))
        report = analysis.form_sandwich_check(random_rep(rng, 3))
        assert report.passed
        assert calls == [(1j, z) for z in herglotz.upper_grid() if z != 1j]

    @pytest.mark.parametrize("n", [64, 200])
    def test_whitened_excess_equals_the_generalized_eigenvalues(self, rng, n):
        """The whitened extremes are scipy's generalized eigenvalues of (B, A), to round-off."""
        scipy_linalg = pytest.importorskip("scipy.linalg")
        def gram(scale):
            m = cgauss(rng, n, n)
            return scale * (m @ m.conj().T)

        for _ in range(3):
            anchor = gram(1.0) + np.eye(n)
            values = np.stack([t * anchor + gram(1e-3) for t in (0.4, 2.9)])
            zs = (2j, 0.3 + 1.5j)
            want = max(analysis._ratio_excess(analysis.harnack_constants(1j, z),
                                              scipy_linalg.eigh(b, anchor, eigvals_only=True))
                       for z, b in zip(zs, values))
            table = {1j: 1j * anchor, **{z: 1j * b for z, b in zip(zs, values)}}
            got = analysis.form_sandwich_check(FamilyEvaluator(n, table.get, "table"), zs)
            assert want > 0.01  # both points leave the corridor
            assert got.worst_violation == pytest.approx(want, rel=1e-12)


def _eta_family(n: int, eta: float) -> FamilyEvaluator:
    """z I + eta z|z|^2 e e*: Im >= 0 on C_+ but not holomorphic, Im F(i) = I + eta e e*."""
    e = np.zeros((n, n))
    e[0, 0] = 1.0
    return FamilyEvaluator(n, lambda z: z * np.eye(n) + eta * z * abs(z) ** 2 * e, "eta")


class TestExactSandwich:
    """The Loewner rule decides directions no random vector reaches."""

    @pytest.mark.parametrize("n", [50, 200])
    def test_eta_family_fails_at_ten_times_the_tolerance(self, n):
        report = analysis.form_sandwich_check(_eta_family(n, 1e-11))
        assert report.worst_violation == pytest.approx(9.9e-10, rel=1e-6)
        assert not report.passed
        assert analysis.form_sandwich_check(_eta_family(n, 0.0)).worst_violation == 0.0

    def test_zero_anchor_fails_with_a_finite_worst(self):
        """z^2 has Im F(i) = 0: all of Im F(z) lies on the anchor's kernel."""
        report = analysis.form_sandwich_check(scalar_family(lambda z: z * z))
        assert report.worst_violation == 1.0 and not report.passed

    def test_a_kernel_shared_by_b1_and_the_weights_passes(self, rng):
        q = np.linalg.qr(cgauss(rng, 4, 4))[0]

        def on_range(d):
            return (q * d) @ q.conj().T

        rep = HerglotzRep.create(on_range([1.0, -2.0, 0.5, 3.0]), on_range([1.0, 0.5, 0.0, 0.0]),
                                 [(-1.0, on_range([0.3, 0.0, 0.2, 0.0])),
                                  (2.0, on_range([0.0, 0.7, 0.0, 0.0]))])
        report = analysis.form_sandwich_check(rep)
        assert report.passed, report.worst_violation

    def test_mass_outside_the_anchor_range_fails(self):
        """Im F(i) = diag(1, 0) while Im F(z) reaches the second coordinate away from i."""

        def f(z):
            return np.diag([z, (z - 1j) * (z + 1j)])

        report = analysis.form_sandwich_check(FamilyEvaluator(2, f, "test"))
        assert 0.0 < report.worst_violation <= 1.0 and not report.passed

    @pytest.mark.parametrize("n", [2, 50])
    @pytest.mark.parametrize("ratio", [1e-5, 1e-7, 1e-9, 1e-12])
    @pytest.mark.parametrize("rotate", [False, True], ids=["diagonal", "rotated"])
    def test_an_ill_conditioned_anchor_passes(self, rng, n, ratio, rotate):
        """z B1, B1 with eigenvalues 1 down to ratio: Im F(z) = Im z Im F(i) exactly.

        Whitening every kept direction would multiply round-off by 1 / ratio, and
        dropping the small ones would count their mass as a violation.
        """
        q = np.linalg.qr(cgauss(rng, n, n))[0] if rotate else np.eye(n)
        b1 = (q * np.geomspace(1.0, ratio, n)) @ q.conj().T
        report = analysis.form_sandwich_check(HerglotzRep.create(np.zeros((n, n)), b1))
        assert report.passed, report.worst_violation

    @pytest.mark.parametrize("f", [
        lambda z: np.diag([z, 1e-9 * z + 1e-6 * (z * z + 1)]),
        lambda z: np.array([[z, 1e-3 * (z * z + 1)], [1e-3 * (z * z + 1), 1e-6 * z]]),
    ], ids=["on-the-direction", "in-the-coupling"])
    def test_a_violation_where_the_anchor_is_tiny_fails(self, f):
        """Im F(i) is diag(1, 1e-9) or diag(1, 1e-6), and Im F(z) leaves the sandwich
        through the small direction, or through its coupling to the large one alone."""
        report = analysis.form_sandwich_check(FamilyEvaluator(2, f, "test"))
        assert report.worst_violation > 1e-7 and not report.passed


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

    def test_finite_near_the_float_range(self):
        c2 = analysis.c2_of(1e155 + 1e6j)  # |z|^2 alone would overflow
        assert c2 == pytest.approx(1e304, rel=1e-14)

    def test_far_real_part_at_a_small_height(self):
        z = 27639031.002645526 + 0.00012302993801225083j
        assert _close(analysis.c2_of(z), _mp_c2_of(z))

    def test_dense_grid_oracle(self, rng):
        ts = np.linspace(-2000.0, 2000.0, 200001)
        for _ in range(25):
            z = complex(rng.uniform(-3, 3), 10.0 ** rng.uniform(-1, 1))
            grid_sup = np.max(np.abs(1 + z * ts) / np.abs(ts - z))
            assert grid_sup <= analysis.c2_of(z) * (1 + 1e-12)

    def test_weak_strong_single_atom(self):
        rep = HerglotzRep.create(np.zeros((2, 2)), np.zeros((2, 2)), [(0.0, np.eye(2))])
        report = analysis.weak_strong_check(rep, 1j)
        assert report.passed and report.worst_ratio == pytest.approx(1.0, rel=1e-12)

    def test_weak_strong_random(self, rng):
        for _ in range(10):
            rep = random_rep(rng)
            z = complex(rng.uniform(-2, 2), 10.0 ** rng.uniform(-1, 1))
            assert analysis.weak_strong_check(rep, z).passed

    def test_weak_strong_ratio_is_the_supremum_over_vectors(self, rng):
        """No explicit vector's ratio exceeds the exact one, which a planted 1 % cut fails."""
        for _ in range(20):
            rep = random_rep(rng, int(rng.integers(1, 5)), uniform=False)
            z = complex(rng.uniform(-2, 2), 10.0 ** rng.uniform(-1, 1))
            report = analysis.weak_strong_check(rep, z)
            tail = herglotz.evaluate(rep, z) - rep.b1 * z - rep.b0
            w, v = np.linalg.eigh(rep.measure.k_sigma())
            k_half = (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T
            us = cgauss(rng, rep.dim, 200)
            ratios = (np.linalg.norm(tail @ us, axis=0)
                      / (report.bound * np.sqrt(w[-1]) * np.linalg.norm(k_half @ us, axis=0)))
            assert ratios.max() <= report.worst_ratio * (1 + 1e-12)
            assert report.passed
            planted = 0.99 * report.worst_ratio * report.bound
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(analysis, "c2_of", lambda z: planted)
                cut = analysis.weak_strong_check(rep, z)
            assert (cut.violations, cut.passed) == (1, False)
            assert cut.worst_ratio == pytest.approx(1 / 0.99, rel=1e-12)

    def test_factor_check_random(self, rng):
        for _ in range(10):
            rep = random_rep(rng)
            z = complex(rng.uniform(-2, 2), 10.0 ** rng.uniform(-1, 1))
            report = analysis.factor_check(rep, z)
            assert report.passed
            assert report.worst_ratio <= 1.0 + 1e-9

    def test_factor_implies_vector_bound(self, rng):
        # the operator-norm bound dominates the vector bound's supremum
        rep = random_rep(rng, 3)
        z = 0.4 + 1.3j
        op = analysis.factor_check(rep, z)
        vec = analysis.weak_strong_check(rep, z)
        assert vec.worst_ratio <= op.worst_ratio + 1e-9

    def test_weak_strong_counts_violations_below_the_true_bound(self, monkeypatch):
        rep = HerglotzRep.create(np.zeros((2, 2)), np.zeros((2, 2)), [(0.0, np.eye(2))])
        monkeypatch.setattr(analysis, "c2_of", lambda z: 0.5)  # c2(i) is 1, attained here
        report = analysis.weak_strong_check(rep, 1j)
        assert report.bound == 0.5 and report.violations == 1 and not report.passed

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
