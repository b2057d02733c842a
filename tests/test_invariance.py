from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    cgauss,
    mul_pair,
    random_offaxis,
    random_rep,
    random_upper,
    rep_with_common_kernel,
    rep_with_pinned_eigenvalue,
)
from nevlab import analysis, herglotz, invariance, matnum, pairs, runner
from nevlab.herglotz import FamilyEvaluator, HerglotzRep
from nevlab.matnum import TolerancePolicy


def scalar_family(fn):
    return FamilyEvaluator(1, lambda z: np.array([[fn(z)]]), "test")


DIAG_Z3 = lambda: FamilyEvaluator(2, lambda z: np.diag([z, 3.0 + 0j]), "test")
MUL = lambda: pairs.PairEvaluator.constant(np.zeros((1, 1)), np.eye(1))


class TestPointInvariance:
    def test_pinned_diagonal(self):
        report = invariance.check_point_invariance(DIAG_Z3(), 3.0)
        assert report.passed and report.notes["dim"] == 1
        assert report.worst <= 1e-8

    def test_vacuous_empty_eigenspace(self):
        report = invariance.check_point_invariance(scalar_family(lambda z: z), 0.0)
        assert report.passed and report.notes["dim"] == 0

    def test_random_projector_pinning(self, rng):
        q, _ = np.linalg.qr(cgauss(rng, 4, 4))
        p = q[:, :2] @ q[:, :2].conj().T
        fam = FamilyEvaluator(4, lambda z: z * p + 3.0 * (np.eye(4) - p), "test")
        report = invariance.check_point_invariance(fam, 3.0)
        assert report.passed and report.notes["dim"] == 2

    def test_unpinned_value_everywhere_empty(self, rng):
        fam = FamilyEvaluator.from_rep(random_rep(rng, 3))
        report = invariance.check_point_invariance(fam, 2.5)
        assert report.passed and report.notes["dim"] == 0

    def test_agrees_with_symmetric_core(self, rng):
        from nevlab import relations

        pair = pairs.canonical_pair(DIAG_Z3())
        report = invariance.check_point_invariance(pair, 3.0)
        assert report.passed
        for z in random_upper(rng, 3):
            core = relations.symmetric_core(pair, z)
            phi, psi = pair(z)
            params = matnum.null_space(psi - 3.0 * phi)
            lifted = np.vstack([phi @ params, psi @ params])
            assert relations.contains(
                relations.LinearRelation.from_span(lifted), core
            )


def _turn(z):  # a rotation by Re z, so spans built on it move with z
    c, s = np.cos(z.real), np.sin(z.real)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _pinned_rep(rng, a: float, dim: int = 4) -> HerglotzRep:
    """A representation with F(z) k = a k for a fixed k; its data is Hermitian bit for bit."""
    rep, k = rep_with_common_kernel(rng, dim)
    p = np.eye(dim) - k @ k.conj().T
    atoms = list(zip(rep.locations, rep.weights))
    return HerglotzRep.create(p @ rep.b0 @ p + a * (k @ k.conj().T), rep.b1, atoms)


_POINT_FAMILIES = {
    "rep": lambda rng: FamilyEvaluator.from_rep(random_rep(rng, 3, 4)),
    "pinned-rep": lambda rng: _pinned_rep(rng, 1.5),
    "pinned-callable": lambda rng: rep_with_pinned_eigenvalue(rng, 1.5, dim=3)[0],
    "diagonal": lambda rng: FamilyEvaluator(2, lambda z: np.diag([z, 1.5 + 0j]), "test"),
    "turning": lambda rng: FamilyEvaluator(  # the eigenspace at 1.5 moves: the check fails
        2, lambda z: _turn(z) @ np.diag([1.5, z]) @ _turn(z).T, "t"),
}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(sorted(_POINT_FAMILIES)),
       shift=st.sampled_from([0.0, 0.37]), check_grid=st.booleans())
def test_family_point_check_equals_the_canonical_pair_path(seed, kind, shift, check_grid):
    """ker(F(z) - a) against Phi ker(Psi - a Phi): same verdicts and dimensions, near distances."""
    rng = np.random.default_rng(seed)
    family = _POINT_FAMILIES[kind](rng)
    grid = invariance.default_check_grid() if check_grid else random_offaxis(rng, 12)
    got = invariance.check_point_invariance(family, 1.5 + shift, grid)
    want = invariance.check_point_invariance(pairs.canonical_pair(family), 1.5 + shift, grid)
    assert got.passed == want.passed == (kind != "turning" or shift != 0.0)
    assert [w["eigenspace_dim"] for w in got.witnesses] == \
        [w["eigenspace_dim"] for w in want.witnesses]
    assert got.notes == want.notes
    assert got.worst == pytest.approx(want.worst, rel=0.0, abs=1e-13)
    assert [w["distance"] for w in got.witnesses] == \
        pytest.approx([w["distance"] for w in want.witnesses], rel=0.0, abs=1e-13)


def test_family_point_check_takes_one_svd_per_conjugate_pair(rng, monkeypatch):
    """On the 40-point check grid, 20 matrices meet a full SVD, each the smaller of F(z) - a
    and its adjoint; a permuted grid with the same anchor gives the report bit for bit."""
    rep = _pinned_rep(rng, 1.5)
    grid = invariance.default_check_grid()
    shifted = FamilyEvaluator.from_rep(rep).on_grid(grid) - 1.5 * np.eye(rep.dim)
    smaller = {m.tobytes() if not np.signbit(m[0, 0].imag) else m.conj().T.tobytes()
               for m in shifted}
    seen = _decompositions(monkeypatch)
    report = invariance.check_point_invariance(rep, 1.5, grid)
    monkeypatch.undo()
    full = [a for name, a, values in seen if name == "svd" and not values]
    assert [len(a) for a in full] == [20]
    assert {m.tobytes() for m in full[0]} == smaller
    assert report.passed and report.notes == {"a": 1.5, "dim": 1}
    for _ in range(3):
        order = [0, *(1 + rng.permutation(len(grid) - 1))]
        permuted = invariance.check_point_invariance(rep, 1.5, [grid[k] for k in order])
        assert (permuted.worst, permuted.notes) == (report.worst, report.notes)
        assert permuted.witnesses == [report.witnesses[k] for k in order]


def test_runner_point_check_reads_the_family(rng, monkeypatch):
    """A family entity's point check never evaluates the canonical pair; a pair entity's does."""
    family = FamilyEvaluator.from_rep(_pinned_rep(rng, 1.5))
    pair, grid = pairs.canonical_pair(family), invariance.default_check_grid()
    tol = TolerancePolicy()
    run = runner._CHECKS["point"][1]
    want = invariance.check_point_invariance(pair, 1.5, grid)
    assert run(pair, None, 1.5, grid, tol).witnesses == want.witnesses
    monkeypatch.setattr(pairs.PairEvaluator, "on_grid", lambda *_: pytest.fail("pair evaluated"))
    got = run(pair, family, 1.5, grid, tol)
    assert got.witnesses == invariance.check_point_invariance(family, 1.5, grid).witnesses


class TestImagKernelInvariance:
    def test_diagonal_kernel(self):
        rep = HerglotzRep.create(np.zeros((2, 2)), np.diag([1.0, 0.0]))
        report = invariance.check_imag_kernel_invariance(rep)
        assert report.passed and report.notes["dim"] == 1

    def test_uniform_no_kernel(self):
        fam = FamilyEvaluator(2, lambda z: z * np.eye(2), "test")
        report = invariance.check_imag_kernel_invariance(fam)
        assert report.passed and report.notes["dim"] == 0
        assert report.notes["corridor_worst"] <= 1e-10

    def test_constructed_common_kernel(self, rng):
        rep, _ = rep_with_common_kernel(rng)
        report = invariance.check_imag_kernel_invariance(rep)
        assert report.passed and report.notes["dim"] == 1


class TestResolventInvariance:
    def test_linear_family_regular_everywhere(self):
        report = invariance.check_resolvent_invariance(scalar_family(lambda z: z), 5.0)
        assert report.passed and report.notes["regular"] == 1

    def test_pinned_eigenvalue_never_regular(self):
        report = invariance.check_resolvent_invariance(DIAG_Z3(), 3.0)
        assert report.passed and report.notes["regular"] == 0

    def test_pure_mul_relation_regular(self):
        report = invariance.check_resolvent_invariance(MUL(), 4.0)
        assert report.passed and report.notes["regular"] == 1


class TestBoundednessInvariance:
    def test_bounded_family(self, rng):
        fam = FamilyEvaluator.from_rep(random_rep(rng, 3))
        report = invariance.check_boundedness_invariance(fam)
        assert report.passed and report.notes["rank"] == 3

    def test_constantly_unbounded(self):
        report = invariance.check_boundedness_invariance(MUL())
        assert report.passed and report.notes["rank"] == 0

    def test_block_sum_constant_corank(self, rng):
        p = mul_pair(rng, 3)
        report = invariance.check_boundedness_invariance(p)
        assert report.passed and report.notes["rank"] == 2


class TestMulInvariance:
    def test_mul_carrying_pair(self, rng):
        report = invariance.check_mul_invariance(mul_pair(rng, 3))
        assert report.passed and report.notes["dim"] == 1

    def test_operator_family(self, rng):
        fam = FamilyEvaluator.from_rep(random_rep(rng, 2))
        report = invariance.check_mul_invariance(fam)
        assert report.passed and report.notes["dim"] == 0


class TestClassifyFamilyPair:
    def test_uniform_scalar(self):
        p = pairs.canonical_pair(scalar_family(lambda z: z))
        out = invariance.classify_family_pair(p)
        assert out.label == "R^u"
        assert out.rcond_phi >= 1e-12 and out.rcond_psi >= 1e-12
        assert out.lam_min == pytest.approx(0.25)

    def test_pinned_family_not_strict(self):
        out = invariance.classify_family_pair(pairs.canonical_pair(DIAG_Z3()))
        assert out.label == "R" and out.kernel_dim == 1 and out.mul_dim == 0

    def test_mul_family(self, rng):
        out = invariance.classify_family_pair(mul_pair(rng, 3))
        assert out.label == "R~" and out.mul_dim == 1

    def test_strict_at_coarse_tolerance(self):
        d = np.diag(1.0 / np.arange(1, 21))
        p = pairs.canonical_pair(FamilyEvaluator(20, lambda z: z * d, "test"))
        out = invariance.classify_family_pair(p, TolerancePolicy(eps_psd=5e-3))
        assert out.label == "R^s"
        assert invariance.classify_family_pair(p).label == "R^u"

    def test_agreement_with_family_classification(self, rng):
        for _ in range(1000):
            kind = rng.integers(0, 3)
            if kind == 0:
                rep = random_rep(rng, int(rng.integers(2, 5)))
            elif kind == 1:
                rep, _ = rep_with_common_kernel(rng, 3)
            else:
                rep = random_rep(rng, 2, uniform=True)
            fam = FamilyEvaluator.from_rep(rep)
            a = herglotz.classify(fam).label
            b = invariance.classify_family_pair(pairs.canonical_pair(fam)).label
            assert a == b


class TestMaximumPrincipleSchur:
    def test_moebius_scalar(self):
        report = invariance.maximum_principle_schur(
            lambda z: np.array([[(z - 1j) / (z + 1j)]]), 1.0
        )
        assert report.passed
        assert report.notes["alpha_regular"] == 1

    def test_unimodular_constant(self):
        u = np.exp(0.7j)
        report = invariance.maximum_principle_schur(lambda z: u * np.eye(2), u)
        assert report.passed
        dims = {w["alpha_kernel_dim"] for w in report.witnesses}
        assert dims == {2}

    def test_unit_defect_direction(self):
        def c(z):
            return np.diag([(z - 1j) / (z + 1j), 1.0 + 0j])

        report = invariance.maximum_principle_schur(c, 1.0)
        assert report.passed
        assert {w["defect_kernel_dim"] for w in report.witnesses} == {1}
        assert {w["alpha_kernel_dim"] for w in report.witnesses} == {1}

    def test_from_pair(self, rng):
        p = pairs.canonical_pair(FamilyEvaluator.from_rep(random_rep(rng, 2)))
        report = invariance.maximum_principle_schur(p, -1.0)
        assert report.passed

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            invariance.maximum_principle_schur(lambda z: np.eye(1), 0.5)


class TestSweep:
    def test_decaying_diagonal(self, rng):
        report = invariance.sweep_continuous_spectrum(
            lambda n: FamilyEvaluator(
                n, lambda z, n=n: z * np.diag(1.0 / np.arange(1, n + 1)), "sweep"
            ),
            [8, 16, 32],
            trials=50,
            rng=rng,
        )
        assert report.passed and report.monotone
        assert report.decay_verdict == "decay"
        assert report.ratio_worst <= 1e-9

    def test_identity_family_reports_no_decay(self, rng):
        report = invariance.sweep_continuous_spectrum(
            lambda n: FamilyEvaluator(n, lambda z, n=n: z * np.eye(n), "sweep"),
            [8, 16],
            trials=20,
            rng=rng,
        )
        assert report.monotone and report.ratios_ok
        assert report.decay_verdict == "no-decay"
        assert not report.passed

    def test_rejects_non_increasing_lists(self, rng):
        fam = lambda n: FamilyEvaluator(n, lambda z, n=n: z * np.eye(n), "sweep")
        with pytest.raises(ValueError):
            invariance.sweep_continuous_spectrum(fam, [16, 8], rng=rng)
        with pytest.raises(ValueError):
            invariance.sweep_continuous_spectrum(fam, [], rng=rng)


def _corridor_worst(family_sequence, sigma, n_list, grid) -> float:
    """A standalone corridor, kept as the reference for the sweep's ratio_worst.

    c1 sigma_min(z0) <= sigma_min(z) <= c2 sigma_min(z0) at each n and upper
    point z, z0 the first upper point, relative to 1 + ||Im F_n(z0)||.
    """
    upper = [z for z in grid if z.imag > 0]
    z0 = upper[0]
    worst = 0.0
    for n in n_list:
        s0 = sigma[(n, z0)]
        im = matnum.herm_part(matnum.imag_part(family_sequence(n)(z0)))
        scale = 1.0 + np.abs(np.linalg.eigvalsh(im)).max()
        for z in upper[1:]:
            hp = analysis.harnack_constants(z0, z)
            s = sigma[(n, z)]
            worst = max(worst, max(hp.c1 * s0 - s, s - hp.c2 * s0) / scale)
    return worst


def _rep_sequence(n: int) -> FamilyEvaluator:
    """A representation-based sweep sequence: two atoms with weights diag(1/k^2)."""
    weight = np.diag(1.0 / np.arange(1, n + 1) ** 2)
    return FamilyEvaluator.from_rep(
        HerglotzRep.create(np.zeros((n, n)), 0.1 * weight, [(-1.0, weight), (2.0, weight)])
    )


def _squared_sequence(n: int) -> FamilyEvaluator:
    """z^2 diag(1/k): Im is 2xy diag(1/k), not a positive harmonic function."""
    return FamilyEvaluator(n, lambda z: z * z * np.diag(1.0 / np.arange(1, n + 1)), "sweep")


def _rotated(m: np.ndarray) -> np.ndarray:
    """Q m Q* for a fixed orthogonal Q: the same spectrum, no longer diagonal."""
    q = np.linalg.qr(np.random.default_rng(7).standard_normal(m.shape))[0]
    return q @ m @ q.T


def _projection_sequence(n: int) -> FamilyEvaluator:
    """z P, P the projection on (1, ..., 1): Im F_n is singular at every z."""
    p = np.full((n, n), 1.0 / n)
    return FamilyEvaluator(n, lambda z: z * p, "sweep")


def _rotated_dyadic_sequence(n: int) -> FamilyEvaluator:
    """atomic-dyadic, its weight rotated: sigma_min = 2^-n P(z, 0) is under round-off past n = 53."""
    weight = _rotated(np.diag(2.0 ** -np.arange(1, n + 1)))
    return FamilyEvaluator.from_rep(
        HerglotzRep.create(np.zeros((n, n)), np.zeros((n, n)), [(0.0, weight)]))


_SEQUENCES = {**runner._SWEEPS, "rep": _rep_sequence, "z-squared": _squared_sequence}
_SWEEP_GRID = herglotz.offaxis_points(herglotz.default_grid())


class TestSweepRatios:
    """The sweep's ratio check is the Harnack corridor of the sigma_min it reports."""

    @pytest.mark.parametrize("name", sorted(_SEQUENCES))
    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_ratio_worst_is_the_corridor_of_the_reported_sigma_min(self, name, seed):
        grid = herglotz.offaxis_points(herglotz.default_grid())
        report = invariance.sweep_continuous_spectrum(
            _SEQUENCES[name], [3, 6], grid, trials=25, rng=np.random.default_rng(seed)
        )
        assert report.ratio_worst == _corridor_worst(_SEQUENCES[name], report.sigma_min, [3, 6],
                                                     grid)

    @pytest.mark.parametrize("name", sorted(_SEQUENCES))
    def test_the_corridor_passes_where_the_sandwich_passes(self, name):
        """Courant-Fischer: the Loewner sandwich at each n implies the corridor."""
        report = invariance.sweep_continuous_spectrum(_SEQUENCES[name], [3, 6], _SWEEP_GRID)
        upper = [z for z in _SWEEP_GRID if z.imag > 0]
        sandwiches = [analysis.form_sandwich_check(_SEQUENCES[name](n), upper, upper[0])
                      for n in (3, 6)]
        assert report.ratios_ok == all(s.passed for s in sandwiches)
        assert report.ratios_ok == (name != "z-squared")

    def test_z_squared_fails_the_sandwich_and_the_sweep(self):
        family = FamilyEvaluator(2, lambda z: z * z * np.eye(2), "test")
        sandwich = analysis.form_sandwich_check(family)
        assert sandwich.worst_violation == 1.0 and not sandwich.passed
        sweep = invariance.sweep_continuous_spectrum(
            lambda n: FamilyEvaluator(n, lambda z: z * z * np.eye(n), "sweep"), [2, 4])
        assert sweep.ratio_worst > invariance.CORRIDOR_TOL
        assert not sweep.ratios_ok and not sweep.passed

    @pytest.mark.parametrize("sequence, n_list", [(_projection_sequence, [3, 6, 12]),
                                                  (_rotated_dyadic_sequence, [56, 64])],
                             ids=["projection", "rotated-dyadic"])
    def test_a_singular_non_diagonal_sequence_passes(self, sequence, n_list):
        """sigma_min is round-off of either sign here; the corridor scales by 1 + ||Im F_n(z0)||."""
        report = invariance.sweep_continuous_spectrum(sequence, n_list, _SWEEP_GRID)
        assert report.ratios_ok, report.ratio_worst
        assert report.ratio_worst == _corridor_worst(sequence, report.sigma_min, n_list,
                                                     _SWEEP_GRID)
        for n in n_list:
            assert analysis.form_sandwich_check(sequence(n), _SWEEP_GRID).passed

    @pytest.mark.parametrize("n", [50, 200])
    def test_a_purely_directional_violation_passes_the_corridor(self, n):
        """The declared narrowing: the eta-family's excess lies off the bottom of the spectrum."""
        e = np.zeros((n, n))
        e[0, 0] = 1.0

        def sequence(m):
            return FamilyEvaluator(m, lambda z: z * np.eye(m) + 1e-11 * z * abs(z) ** 2 * e[:m, :m],
                                   "eta")

        assert not analysis.form_sandwich_check(sequence(n)).passed
        assert invariance.sweep_continuous_spectrum(sequence, [n // 2, n]).ratios_ok


def _sweep_loop(family_sequence, n_list, grid):
    """sigma_min and ratio_worst with every point decomposed afresh: the reference for reuse."""
    sigma = {}
    for n in n_list:
        family = family_sequence(n)
        for z in grid:
            im = matnum.imag_part(family(z))
            sigma[(n, z)] = float(np.linalg.eigvalsh(matnum.herm_part(im * np.sign(z.imag)))[0])
    return sigma, _corridor_worst(family_sequence, sigma, n_list, grid)


# distinct heights: no two points share a folded Im F_n for any sequence
_DISTINCT_GRID = (0.3 + 0.5j, -1.0 + 1.3j, 2.0 - 0.2j, 0.5 + 2.5j, -0.7 - 0.9j, 0.0 + 0.35j)


def _count_eigvalsh(monkeypatch) -> Counter:
    """Matrices handed to np.linalg.eigvalsh, by dimension."""
    sizes: Counter = Counter()
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a, *r, **k: sizes.update([np.shape(a)[-1]]) or eigvalsh(a, *r, **k))
    return sizes


class TestSweepReuse:
    """A folded Im F_n met again reuses its sigma_min, bit for bit."""

    @pytest.mark.parametrize("grid", [_SWEEP_GRID, _DISTINCT_GRID], ids=["default", "distinct"])
    @pytest.mark.parametrize("name", sorted(_SEQUENCES))
    def test_report_equals_the_loop_without_reuse(self, monkeypatch, name, grid):
        families = {n: _SEQUENCES[name](n) for n in (3, 6, 12)}  # built before counting
        sizes = _count_eigvalsh(monkeypatch)
        report = invariance.sweep_continuous_spectrum(
            families.get, [3, 6, 12], grid, trials=20, rng=np.random.default_rng(4))
        if grid is _DISTINCT_GRID:
            assert sizes == {n: len(grid) for n in (3, 6, 12)}
        sigma, ratio_worst = _sweep_loop(_SEQUENCES[name], [3, 6, 12], grid)
        assert list(report.sigma_min) == list(sigma)
        assert np.array(list(report.sigma_min.values())).tobytes() == \
            np.array(list(sigma.values())).tobytes()
        assert report.ratio_worst == ratio_worst

    def test_diag_inverse_k_takes_three_eigensolves_per_n(self, monkeypatch):
        """z diag(1/k) folds onto one Im F_n per height: -0.0 entries do not split the key."""
        sizes = _count_eigvalsh(monkeypatch)
        invariance.sweep_continuous_spectrum(runner._SWEEPS["diag-inverse-k"], [4, 8, 16],
                                             trials=10, rng=np.random.default_rng(0))
        assert sizes == {4: 3, 8: 3, 16: 3}  # 30 each without reuse

    def test_without_room_every_point_is_decomposed(self, monkeypatch):
        monkeypatch.setattr(invariance, "SWEEP_KEY_BYTES", 0)
        sizes = _count_eigvalsh(monkeypatch)
        report = invariance.sweep_continuous_spectrum(
            runner._SWEEPS["diag-inverse-k"], [4, 8], trials=10, rng=np.random.default_rng(0))
        assert sizes == {4: 30, 8: 30}
        sigma, ratio_worst = _sweep_loop(runner._SWEEPS["diag-inverse-k"], [4, 8],
                                         herglotz.default_grid())
        assert report.sigma_min == sigma and report.ratio_worst == ratio_worst


def test_imag_kernel_decomposes_each_folded_matrix_once(rng, monkeypatch):
    """The 40-point check grid folds onto 20 matrices, each meeting one eigh."""
    rep = random_rep(rng, 3, 4)
    seen = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *r, **k: seen.append(len(a)) or eigh(a))
    sizes = _count_eigvalsh(monkeypatch)
    report = invariance.check_imag_kernel_invariance(rep)
    assert len(report.grid) == 40 and seen == [20] and not sizes
    for z, w in zip(report.grid, report.witnesses):  # conjugate points read one matrix
        twin = report.witnesses[report.grid.index(z.conjugate())]
        assert (w["kernel_dim"], w["lam_min"]) == (twin["kernel_dim"], twin["lam_min"])


class TestSweepStreaming:
    """The sweep evaluates each point once per n and draws nothing."""

    def test_one_family_call_per_grid_point_and_n(self):
        calls = {}

        def sequence(n):
            def fn(z):
                calls[n] = calls.get(n, 0) + 1
                return z * np.diag(1.0 / np.arange(1, n + 1))
            return FamilyEvaluator(n, fn, "sweep")

        invariance.sweep_continuous_spectrum(sequence, [4, 8, 16], _SWEEP_GRID, trials=10,
                                             rng=np.random.default_rng(0))
        assert calls == {n: len(_SWEEP_GRID) for n in (4, 8, 16)}

    @settings(max_examples=20, deadline=None)
    @given(st.permutations(_SWEEP_GRID), st.sampled_from(sorted(_SEQUENCES)))
    def test_grid_order_leaves_the_report(self, perm, name):
        grid = _SWEEP_GRID
        # keep the anchor: the first upper point of grid stays first among the upper points
        z0 = next(z for z in grid if z.imag > 0)
        first = next(i for i, z in enumerate(perm) if z.imag > 0)
        at = perm.index(z0)
        perm[first], perm[at] = perm[at], perm[first]

        def sweep(g):
            return invariance.sweep_continuous_spectrum(
                _SEQUENCES[name], [3, 6], g, trials=10, rng=np.random.default_rng(3))

        want, got = sweep(grid), sweep(perm)
        assert got.sigma_min == want.sigma_min
        assert got.ratio_worst == want.ratio_worst
        assert got.passed == want.passed

    @pytest.mark.parametrize("seed", [0, 4])
    def test_rng_and_trials_are_not_read(self, seed):
        """Nothing in the sweep samples: the generator is left as it came, the report equal."""
        rng = np.random.default_rng(seed)
        state = rng.bit_generator.state
        got = invariance.sweep_continuous_spectrum(_SEQUENCES["rep"], [3, 5, 8], trials=7, rng=rng)
        assert rng.bit_generator.state == state
        want = invariance.sweep_continuous_spectrum(_SEQUENCES["rep"], [3, 5, 8], trials=1)
        assert (got.rows(), got.ratio_worst, got.passed) == (want.rows(), want.ratio_worst,
                                                             want.passed)


class TestReportStructure:
    def test_grid_permutation_leaves_verdict(self, rng):
        fam = DIAG_Z3()
        grid = list(herglotz.default_grid())
        r1 = invariance.check_point_invariance(fam, 3.0, grid)
        perm = [grid[i] for i in rng.permutation(len(grid))]
        r2 = invariance.check_point_invariance(fam, 3.0, perm)
        assert r1.passed == r2.passed
        assert r1.worst == pytest.approx(r2.worst, abs=1e-14)

    def test_direct_sum_conjunction(self, rng):
        fam_a, _ = rep_with_pinned_eigenvalue(rng, 3.0, dim=3)
        fam_b = FamilyEvaluator.from_rep(random_rep(rng, 2))
        both = herglotz.family_direct_sum(fam_a, fam_b)
        ra = invariance.check_point_invariance(fam_a, 3.0)
        rb = invariance.check_point_invariance(fam_b, 3.0)
        rsum = invariance.check_point_invariance(both, 3.0)
        assert rsum.passed == (ra.passed and rb.passed)
        assert rsum.notes["dim"] == ra.notes["dim"] + rb.notes["dim"]

    def test_rows_align_with_grid(self):
        report = invariance.check_boundedness_invariance(DIAG_Z3())
        rows = report.rows()
        assert len(rows) == len(report.grid)
        assert all("z_re" in r and "phi_rank" in r for r in rows)

    @pytest.mark.parametrize("check", ["point", "mul"])
    def test_grid_permutation_random_reps(self, rng, check):
        def turn(z):  # a rotation by Re z, so spans built on it move with z
            c, s = np.cos(z.real), np.sin(z.real)
            return np.array([[c, -s], [s, c]], dtype=complex)

        if check == "point":
            run = lambda obj, g: invariance.check_point_invariance(obj, 1.5, g)
            moving = FamilyEvaluator(2, lambda z: turn(z) @ np.diag([1.5, z]) @ turn(z).T, "t")
            fixed = rep_with_pinned_eigenvalue(rng, 1.5, dim=3)[0]
        else:
            run = lambda obj, g: invariance.check_mul_invariance(obj, g)
            moving = pairs.PairEvaluator(
                2, lambda z: (turn(z) @ np.diag([0.0, 1.0]) @ turn(z).T, np.eye(2))
            )
            fixed = mul_pair(rng)
        for obj in (moving, fixed, FamilyEvaluator.from_rep(random_rep(rng, 3, 4))):
            for _ in range(3):
                grid = random_offaxis(rng, 12)
                r1 = run(obj, grid)
                r2 = run(obj, [grid[i] for i in rng.permutation(len(grid))])
                assert r1.passed == r2.passed
                assert r1.worst == pytest.approx(r2.worst, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("check", [
        lambda g: invariance.check_point_invariance(DIAG_Z3(), 3.0, g),
        lambda g: invariance.check_imag_kernel_invariance(DIAG_Z3(), g),
        lambda g: invariance.check_resolvent_invariance(DIAG_Z3(), 3.0, g),
        lambda g: invariance.check_boundedness_invariance(DIAG_Z3(), g),
        lambda g: invariance.check_mul_invariance(DIAG_Z3(), g),
    ])
    def test_real_only_grid_is_a_domain_error(self, check):
        with pytest.raises(herglotz.DomainError):
            check([0.5, 2.0])

    def test_imag_kernel_dimension_change_sets_distance(self):
        def fn(z):  # Im F has a kernel everywhere except at z = 2i
            return np.diag([z, z if abs(z - 2j) < 1e-9 else 3.0 + 0j])

        report = invariance.check_imag_kernel_invariance(
            FamilyEvaluator(2, fn, "test"), [1j, 2j, -1j]
        )
        assert not report.passed and report.worst == 1.0
        assert [row["distance"] for row in report.rows()] == [1.0, 1.0, 1.0]

    def test_dimension_change_fails_fast(self):
        # family whose eigenspace at 3 exists only at one special point
        def fn(z):
            return np.diag([z, 3.0 + 0j]) if abs(z - 1j) < 1e-9 else np.diag([z, 4.0 + 0j])

        fam = FamilyEvaluator(2, fn, "test")
        grid = [1j, 2j, 0.5 + 1j, -1j]
        report = invariance.check_point_invariance(fam, 3.0, grid)
        assert not report.passed
        assert report.notes.get("reason") == "dimension varies"


class TestNoUpperPoint:
    """Checks anchored in C_+ raise DomainError on a grid without a point there."""

    def test_sweep(self):
        def sequence(n):
            return FamilyEvaluator(n, lambda z: z * np.diag(1.0 / np.arange(1, n + 1)), "sweep")

        with pytest.raises(herglotz.DomainError, match=r"no point in C_\+"):
            invariance.sweep_continuous_spectrum(sequence, [2, 4], [-1j, 2 - 1j], trials=5)

    @pytest.mark.parametrize("grid", [[-1j, 0.5], [-1j, 2 - 1j], []])
    def test_schur_maximum_principle(self, grid):
        pair = pairs.canonical_pair(HerglotzRep.create(np.eye(2), np.eye(2)))
        for schur in (pair, lambda z: np.eye(2, dtype=complex)):
            with pytest.raises(herglotz.DomainError, match=r"no point in C_\+"):
                invariance.maximum_principle_schur(schur, 1.0, grid)


def _span_drift_loop(spans, witnesses=None):
    """The one-pair-at-a-time engine, kept as the reference for the batched one.

    Each pair is measured from its span with the smaller bytes.
    """
    dims = sorted({s.shape[1] for s in spans})
    if len(dims) != 1:
        for w in witnesses or []:
            w["distance"] = 1.0
        return 1.0, {"reason": "dimension varies", "dims": dims}
    for w, s in zip(witnesses or [], spans):
        w["distance"] = matnum.subspace_distance(s, spans[0])
    ordered = sorted(spans, key=lambda s: s.tobytes())
    worst = max((matnum.subspace_distance(u, v)
                 for i, u in enumerate(ordered) for v in ordered[i + 1:]), default=0.0)
    return worst, {"dim": dims[0]}


def _point_spans(rng, n, pinned):
    """ker(F(z) - a) of a pinned family over the check grid, as the point check takes them."""
    family = rep_with_pinned_eigenvalue(rng, 1.5, dim=n, pinned=pinned)[0]
    return matnum.null_space(family.on_grid(invariance.default_check_grid()) - 1.5 * np.eye(n))


def _imag_kernel_spans(rng):
    """The imag-kernel check's spans: conjugate points fold onto bitwise-equal matrices."""
    grid = invariance.default_check_grid()
    family = FamilyEvaluator.from_rep(rep_with_common_kernel(rng)[0])
    folded = matnum.imag_part(family.on_grid(grid))
    return matnum._hermitian_kernels(folded * herglotz.imag_signs(grid), TolerancePolicy())[0]


def _tied_lines(rng):
    """40 lines at one pairwise angle in exact arithmetic, so round-off decides the maximum."""
    eye, phases = np.eye(41), np.exp(2j * np.pi * rng.uniform(size=40))
    return [0.8 * eye[:, :1] + 0.6 * phase * eye[:, j + 1:j + 2] for j, phase in enumerate(phases)]


def _planes(rng, single, draws):
    """draws rotations of three planes: span(e1, e2), turned toward e3 and e4, and toward e3.

    The turns have sine 0.5 and single.  The first pair's residual has singular
    values 0.5 and 0.5, so the largest Frobenius bound, and the second pair's has
    the one value single: at 0.6 the pair with the largest bound is not the worst
    pair, and at 0.5 the pairs tie and round-off decides which is the worst.
    """
    def plane(turns):
        m = np.zeros((4, 2))
        m[:2, :2] = np.diag(np.sqrt(1.0 - np.square(turns)))
        m[2, 0], m[3, 1] = turns
        return m
    sets = [[q @ plane(t) for t in ((0.0, 0.0), (0.5, 0.5), (single, 0.0))]
            for q in (np.linalg.qr(cgauss(rng, 4, 4))[0] for _ in range(draws))]
    for s in sets if single > 0.5 else ():  # the pair with the largest bound is not the worst
        resid = [s[j] - s[i] @ (s[i].conj().T @ s[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
        assert np.argmax([np.linalg.norm(r) for r in resid]) != np.argmax(
            [np.linalg.norm(r, 2) for r in resid])
    return sets


def _plane_bases(rng, draws):
    """draws sets of 40 orthonormal bases of one plane in C^5: round-off decides the worst pair.

    Every residual is round-off of the order of eps, so ||R||_F / sqrt(2) of
    one pair falls below ||R||_F of most others and reaches the SVD unless
    the lower bound is the largest column norm.
    """
    planes = (np.linalg.qr(cgauss(rng, 5, 5))[0][:, :2] for _ in range(draws))
    return [[plane @ np.linalg.qr(cgauss(rng, 2, 2))[0] for _ in range(40)] for plane in planes]


def _tiny_drift(rng):
    """Lines 1e-200 apart: squaring their residuals unscaled gives 0."""
    return [np.array([[1.0], [j * 1e-200]], dtype=complex) for j in rng.permutation(10)]


SPAN_CASES = {  # span sets for the screen, each builder gives a list of them
    "point-n64-k1": lambda rng: [_point_spans(rng, 64, 1)],
    "point-n5-k2": lambda rng: [_point_spans(rng, 5, 2)],
    "imag-kernel-conjugate-repeats": lambda rng: [_imag_kernel_spans(rng)],
    "repeated-spans": lambda rng: [[s.copy() for s in _point_spans(rng, 4, 1)[:20] * 2]],
    "tied-lines": lambda rng: [_tied_lines(rng)],
    "orthogonal-lines": lambda rng: [list(np.eye(12, dtype=complex).T[:, :, None])],
    "planes-top-bound-not-worst": lambda rng: _planes(rng, 0.6, 20),
    "planes-tied": lambda rng: _planes(rng, 0.5, 300),
    "plane-bases-k2": lambda rng: _plane_bases(rng, 6),
    "tiny-drift": lambda rng: [_tiny_drift(rng)],
    "k0": lambda rng: [[np.zeros((5, 0), dtype=complex)] * 40],
    "all-equal": lambda rng: [[np.linalg.qr(cgauss(rng, 5, 5))[0][:, :2]] * 40],
}


class TestSpanDrift:
    @pytest.mark.parametrize("vary", [False, True])
    def test_batched_equals_pairwise_loop(self, rng, vary):
        for _ in range(40):
            n = int(rng.integers(1, 6))
            count = int(rng.integers(1, 12))
            k = int(rng.integers(0, n + 1))
            base = cgauss(rng, n, n)
            spans = []
            for _ in range(count):  # near one span, or anywhere
                scale = 1e-9 if rng.uniform() < 0.5 else 1.0
                q, _ = np.linalg.qr(base + scale * cgauss(rng, n, n))
                kk = int(rng.integers(0, n + 1)) if vary else k
                spans.append(q[:, :kk])
            got_w = [{"i": i} for i in range(count)]
            want_w = [{"i": i} for i in range(count)]
            got = invariance._span_drift(spans, got_w)
            want = _span_drift_loop(spans, want_w)
            assert got == want and got_w == want_w
            assert all(type(w["distance"]) is float for w in got_w)
            assert invariance._span_drift(spans) == _span_drift_loop(spans)

    @pytest.mark.parametrize("chunk_bytes", [1, 700])  # one pair a call, a few pairs a call
    def test_chunked_equals_pairwise_loop(self, rng, monkeypatch, chunk_bytes):
        monkeypatch.setattr(invariance, "SPAN_CHUNK_BYTES", chunk_bytes)
        for vary in (False, True):
            self.test_batched_equals_pairwise_loop(rng, vary)

    @pytest.mark.parametrize("chunk_bytes", [1, 700, invariance.SPAN_CHUNK_BYTES])
    @pytest.mark.parametrize("case", sorted(SPAN_CASES))
    def test_screen_equals_pairwise_loop(self, rng, monkeypatch, case, chunk_bytes):
        monkeypatch.setattr(invariance, "SPAN_CHUNK_BYTES", chunk_bytes)
        for spans in SPAN_CASES[case](rng):
            got_w, want_w = [{} for _ in spans], [{} for _ in spans]
            assert invariance._span_drift(spans, got_w) == _span_drift_loop(spans, want_w)
            assert got_w == want_w

    def test_passing_check_sends_a_handful_of_residuals_to_lapack(self, rng, monkeypatch):
        """Witness residuals, at most 40, and at most four pairwise ones meet an SVD.

        Measuring every pair sent 780 pairwise residuals on the 40-point check grid.
        Six sets of 40 bases of one plane, whose residuals are all round-off, send
        at most 180 of their 4,680 pairs; ||R||_F / sqrt(k) as the lower bound sent 491.
        """
        svd, drift, calls, sent = np.linalg.svd, invariance._span_drift, [], []

        def counted_svd(a, *args, **kwargs):
            if not kwargs.get("compute_uv", True):
                calls.append(len(a))
            return svd(a, *args, **kwargs)

        def counted_drift(spans, witnesses=None):  # the matrices its SVDs take
            calls.clear()
            out = drift(spans, witnesses)
            sent.append(sum(calls))
            return out

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(invariance, "_span_drift", counted_drift)
        pinned = rep_with_pinned_eigenvalue(rng, 1.5, dim=4)[0]
        for report in (invariance.check_point_invariance(pinned, 1.5),
                       invariance.check_imag_kernel_invariance(rep_with_common_kernel(rng)[0])):
            assert report.passed and len(report.grid) == 40 and 0 < sent[-1] <= 44
        for case, most in [("point-n64-k1", 4), ("k0", 0), ("all-equal", 1), ("plane-bases-k2", 180)]:
            sent.clear()
            for spans in SPAN_CASES[case](rng):  # no witnesses: pairwise residuals only
                counted_drift(spans)
            assert sum(sent) <= most, case

    def test_check_spans_equal_pairwise_loop(self, rng, monkeypatch):
        fam = FamilyEvaluator.from_rep(random_rep(rng, 3, 4))
        pinned = rep_with_pinned_eigenvalue(rng, 1.5, dim=3)[0]
        kernel, mul = rep_with_common_kernel(rng)[0], mul_pair(rng)
        runs = [
            lambda: invariance.check_point_invariance(pinned, 1.5),
            lambda: invariance.check_point_invariance(fam, 0.0),
            lambda: invariance.check_imag_kernel_invariance(kernel),
            lambda: invariance.check_mul_invariance(mul),
            lambda: invariance.maximum_principle_schur(pairs.canonical_pair(fam), -1.0),
        ]
        for run in runs:
            got = run()
            monkeypatch.setattr(invariance, "_span_drift", _span_drift_loop)
            want = run()
            monkeypatch.undo()
            assert (got.passed, got.worst, got.notes) == (want.passed, want.worst, want.notes)
            assert got.witnesses == want.witnesses


class TestSchurGridPermutation:
    def test_grid_permutation_leaves_verdict(self, rng):
        def turn(z):  # a rotation by Re z, so the defect and alpha spans move with z
            c, s = np.cos(z.real), np.sin(z.real)
            return np.array([[c, -s], [s, c]], dtype=complex)

        def moving(z):
            return turn(z) @ np.diag([(z - 1j) / (z + 1j), 1.0 + 0j]) @ turn(z).T

        cases = [
            (lambda z: np.diag([(z - 1j) / (z + 1j), 1.0 + 0j]), 1.0),
            (moving, 1.0),
            (pairs.canonical_pair(FamilyEvaluator.from_rep(random_rep(rng, 3, 4))), -1.0),
        ]
        verdicts = set()
        for schur, alpha in cases:
            for _ in range(3):
                grid = random_upper(rng, 12)
                r1 = invariance.maximum_principle_schur(schur, alpha, grid)
                perm = [grid[i] for i in rng.permutation(len(grid))]
                r2 = invariance.maximum_principle_schur(schur, alpha, perm)
                assert r1.passed == r2.passed
                assert r1.worst == pytest.approx(r2.worst, rel=1e-12, abs=1e-14)
                verdicts.add(r1.passed)
        assert verdicts == {True, False}


# -- one decomposition per matrix: the class rules against the parent's code -------


def _svdvals(m: np.ndarray) -> np.ndarray:
    return np.linalg.svd(m, compute_uv=False)


def _parent_label(lam_min: float, kernel_dim: int, norm: float, tol) -> str:
    if kernel_dim > 0:
        return herglotz.CLASS_PLAIN
    if lam_min >= 10.0 * tol.eps_psd * (1.0 + norm):
        return herglotz.CLASS_UNIFORM
    return herglotz.CLASS_STRICT


def _parent_classify(family, tol=TolerancePolicy()) -> herglotz.Classification:
    """herglotz.classify with Im F(i) decomposed three times, kept as the reference."""
    offaxis = herglotz.offaxis_points(None, "classify")
    upper = herglotz.upper_points(offaxis)
    count, signs = len(offaxis), herglotz.imag_signs(offaxis)
    values = family.on_grid(offaxis + tuple(z.conjugate() for z in upper) + (1j,))
    a, b = values[count:-1], values[:count][signs[:, 0, 0] > 0].conj().swapaxes(-1, -2)
    scale = 1.0 + np.maximum(_svdvals(a).max(axis=1), _svdvals(b).max(axis=1))
    sym = float(np.max(_svdvals(a - b).max(axis=1) / scale, initial=0.0))
    forms = matnum.imag_part(values[:count]) * signs
    lams = np.linalg.eigvalsh((forms + forms.conj().swapaxes(-1, -2)) / 2.0)
    oks = lams[:, 0] >= -tol.eps_psd * (1.0 + np.abs(lams).max(axis=1))
    margin = float(np.min(lams[:, 0], initial=np.inf))
    im_i = matnum.imag_part(values[-1])
    lam_min = float(np.linalg.eigvalsh((im_i + im_i.conj().T) / 2.0)[0])
    if not (sym <= tol.eps_eq and oks.all()):
        return herglotz.Classification(herglotz.CLASS_NOT_NEV, lam_min, -1, sym, margin)
    s = _svdvals(im_i)
    kernel_dim = len(s) - int(np.count_nonzero(s > tol.eps_rank * s[0]))
    label = _parent_label(lam_min, kernel_dim, float(s[0]), tol)
    return herglotz.Classification(label, lam_min, kernel_dim, sym, margin)


def _parent_classify_family_pair(pair, tol=TolerancePolicy(), z=1j):
    """invariance.classify_family_pair with kern and Phi each decomposed twice, the reference."""
    phi, psi = pair(z)
    kern = matnum.herm_part(pairs.diagonal_kernel(phi, psi, z, tol))
    lams = np.linalg.eigvalsh((kern + kern.conj().T) / 2.0)
    _, s, _ = np.linalg.svd(np.stack([kern, phi]))
    kernel_dim, mul_dim = (len(r) - int(np.count_nonzero(r > tol.eps_rank * r[0])) for r in s)
    sv = _svdvals(np.stack([phi, psi]))
    rc_phi, rc_psi = (np.divide(sv[:, -1], sv[:, 0], out=np.zeros(2), where=sv[:, 0] != 0.0)
                      .tolist())
    label = _parent_label(float(lams[0]), kernel_dim, float(np.abs(lams).max()), tol)
    if label == herglotz.CLASS_PLAIN and mul_dim > 0:
        label = invariance.CLASS_FAMILY
    return invariance.PairClassification(label, float(lams[0]), kernel_dim, mul_dim,
                                         rc_phi, rc_psi)


def _corpus_family(rng) -> FamilyEvaluator:
    """Dims 1-5: planted common kernels, rank-one atoms, weights from 1e-10 to 1, near-ties.

    One direction sits near the rank cutoff or the uniform threshold in a
    third of the draws; one draw in ten adds i c H, which breaks the symmetry.
    """
    n = int(rng.integers(1, 6))
    q, _ = np.linalg.qr(cgauss(rng, n, n))
    p = q[:, int(rng.integers(0, n)) if rng.uniform() < 0.4 else 0:]  # kernel: the dropped columns
    scales = 10.0 ** rng.uniform(-10.0, 0.0, p.shape[1])
    near = rng.choice([1e-8, 1e-9, 0.0], p=[0.2, 0.15, 0.65])
    if near and len(scales):
        scales[0] = near * 10.0 ** rng.uniform(-0.3, 0.3)
    d = (p * np.sqrt(scales)) @ p.conj().T

    def weight(rank: int, scale: float) -> np.ndarray:
        g = cgauss(rng, n, rank)
        return scale * d @ (g @ g.conj().T) @ d.conj().T

    b0 = cgauss(rng, n, n)
    b1 = weight(n, 0.5) if rng.uniform() < 0.6 else np.zeros((n, n))
    atoms = [(float(t), weight(1 if rng.uniform() < 0.5 else n, 10.0 ** rng.uniform(-10.0, 0.0)))
             for t in np.unique(rng.uniform(-5.0, 5.0, int(rng.integers(0, 4))))]
    rep = HerglotzRep.create((b0 + b0.conj().T) / 2.0, b1, atoms or None)
    if rng.uniform() < 0.1:
        h = 10.0 ** rng.uniform(-12.0, 0.0) * cgauss(rng, n, n)
        return FamilyEvaluator(n, lambda z: herglotz.evaluate(rep, z) + 1j * (h + h.conj().T),
                               "test")
    return FamilyEvaluator.from_rep(rep)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (matnum.ConditioningError, ValueError) as exc:
        return type(exc).__name__


class TestClassRules:
    @pytest.mark.parametrize("seed", range(4))
    def test_classifiers_equal_the_parent_on_a_seeded_corpus(self, seed):
        """500 families a seed, each classified, and its canonical pair at i and one more point."""
        rng = np.random.default_rng(1000 + seed)
        labels = Counter()
        for _ in range(500):
            fam = _corpus_family(rng)
            got = herglotz.classify(fam)
            assert got == _parent_classify(fam)
            labels[got.label] += 1
            pair = pairs.canonical_pair(fam)
            if rng.uniform() < 0.3:  # a {0} x C direction: R~ or a mul_dim next to a strict part
                pair = pairs.pair_direct_sum(pair, MUL())
            for z in (1j, random_upper(rng, 1)[0]):
                got = _outcome(invariance.classify_family_pair, pair, z=z)
                assert got == _outcome(_parent_classify_family_pair, pair, z=z)
                labels["pair " + getattr(got, "label", got)] += 1
        classes = {"not-R", "R", "R^s", "R^u"}
        assert classes | {"pair " + c for c in ("R", "R~", "R^s", "R^u")} <= set(labels)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), side=st.sampled_from([-1, 1]))
    def test_kernel_dim_flips_at_a_planted_eps_rank(self, seed, n, side):
        """eps_rank = |lambda_k| / max |lambda| (1 + side 1e-6): lambda_k in the kernel or not."""
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(cgauss(rng, n, n))
        b1 = (u * 10.0 ** -np.arange(0.0, 2.0 * n, 2.0)) @ u.conj().T  # two decades apart
        fam = FamilyEvaluator.from_rep(HerglotzRep.create(np.zeros((n, n)), b1))
        pair = pairs.canonical_pair(fam)
        phi, psi = pair(1j)
        values = [matnum.herm_part_eig(matnum.imag_part(fam(1j))),
                  matnum.herm_part_eig(pairs.diagonal_kernel(phi, psi, 1j))]
        k = int(rng.integers(0, n - 1))  # not the largest
        for classify, lams in zip((herglotz.classify, invariance.classify_family_pair), values):
            sizes = np.abs(lams)
            tol = TolerancePolicy(eps_rank=sizes[k] / sizes.max() * (1.0 + side * 1e-6))
            want = int(np.count_nonzero(sizes <= sizes[k])) - (side < 0)
            assert classify(fam if classify is herglotz.classify else pair, tol).kernel_dim == want

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), side=st.sampled_from([-1, 1]))
    def test_uniform_threshold_flips_at_a_planted_eps_psd(self, seed, n, side):
        """eps_psd = lambda_min / (10 (1 + max |lambda|)) (1 + side 1e-6): R^s above, R^u below."""
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(cgauss(rng, n, n))
        b1 = (u * rng.uniform(1e-3, 2.0, n)) @ u.conj().T
        fam = FamilyEvaluator.from_rep(HerglotzRep.create(np.zeros((n, n)), b1))
        lams = matnum.herm_part_eig(matnum.imag_part(fam(1j)))
        tol = TolerancePolicy(eps_psd=lams[0] / (10.0 * (1.0 + np.abs(lams).max()))
                              * (1.0 + side * 1e-6))
        want = "R^s" if side > 0 else "R^u"
        assert herglotz.strictness(lams, tol) == (want, lams[0], 0)
        assert herglotz.classify(fam, tol).label == want


def _decompositions(monkeypatch) -> list:
    """(numpy routine, input stack, values only) of every SVD and eigensolve from here on."""
    seen = []
    for name in ("svd", "eigvalsh", "eigh"):
        def spy(a, *r, _name=name, _fn=getattr(np.linalg, name), **k):
            seen.append((_name, np.array(a), k.get("compute_uv") is False))
            return _fn(a, *r, **k)
        monkeypatch.setattr(np.linalg, name, spy)
    return seen


def _meets(stack: np.ndarray, matrices) -> bool:
    """Whether a slice of stack is, to the last bit, one of matrices or its Hermitian part."""
    keys = {m.tobytes() for m in matrices} | {matnum.herm_part(m).tobytes() for m in matrices}
    return stack.shape[-2:] == matrices[0].shape and any(
        x.tobytes() in keys for x in stack.reshape((-1,) + stack.shape[-2:]))


class TestDecompositionCounts:
    def test_classify_family_pair_takes_one_eigvalsh_and_one_values_svd(self, rng, monkeypatch):
        for pair in (pairs.canonical_pair(random_rep(rng, 3, 4)), mul_pair(rng, 3)):
            pair(1j)  # evaluated (and memoised) before counting
            seen = _decompositions(monkeypatch)
            invariance.classify_family_pair(pair)
            monkeypatch.undo()
            assert [(name, a.shape[0], values) for name, a, values in seen] == \
                [("eigvalsh", 1, False), ("svd", 2, True)]

    def test_classify_decomposes_im_f_at_i_once(self, rng, monkeypatch):
        fam = FamilyEvaluator.from_rep(random_rep(rng, 3, 4))
        im_i = matnum.imag_part(fam(1j))
        seen = _decompositions(monkeypatch)
        herglotz.classify(fam, grid=[0.5 + 2j, -1.0 - 0.3j, 2.0 + 0.7j])
        monkeypatch.undo()
        assert [name for name, a, _ in seen if _meets(a, [im_i])] == ["eigvalsh"]

    def test_validate_takes_no_svd_of_its_forms(self, rng, monkeypatch):
        pair = pairs.canonical_pair(random_rep(rng, 3, 4))
        zs = herglotz.default_grid()
        phis, psis = pair.on_grid(zs)
        signs = herglotz.imag_signs(zs)
        forms = -1j * (phis.conj().swapaxes(-1, -2) @ psis - psis.conj().swapaxes(-1, -2) @ phis)
        seen = _decompositions(monkeypatch)
        assert pairs.validate(pair).passed
        monkeypatch.undo()
        assert [name for name, a, _ in seen if _meets(a, list(forms / signs))] == ["eigvalsh"]


@pytest.mark.parametrize("make", [
    lambda rng: FamilyEvaluator.from_rep(random_rep(rng, 3, 4)),
    lambda rng: FamilyEvaluator(2, lambda z: z * z * np.eye(2), "test"),  # outside the corridor
])
def test_imag_kernel_anchor_below_the_axis_comes_from_the_folded_stack(rng, monkeypatch, make):
    """Each distinct point is evaluated once and no SVD meets the anchor; the parent's verdict."""
    family = make(rng)
    seen = []
    grid = (0.4 - 0.8j, 1.0 + 0.5j, -2.0 + 3.0j, 1.0 - 0.5j, -0.3 - 1.7j, 1.0 + 0.5j)
    counted = FamilyEvaluator(family.dim, lambda z: seen.append(z) or family(z), "test")
    folded = [complex(z.real, abs(z.imag)) for z in grid]
    anchor = matnum.imag_part(family(folded[0]))
    calls = _decompositions(monkeypatch)
    report = invariance.check_imag_kernel_invariance(counted, grid)
    monkeypatch.undo()
    assert sorted(seen, key=str) == sorted(set(grid), key=str)
    assert not any(_meets(a, [anchor]) for name, a, _ in calls if name == "svd")
    stack = matnum.imag_part(family.on_grid(grid)) * herglotz.imag_signs(grid)
    assert [w["kernel_dim"] for w in report.witnesses] == \
        [b.shape[1] for b in matnum.null_space(stack)]
    lam_mins = [w["lam_min"] for w in report.witnesses]
    scale = 1.0 + matnum.spectral_norm(anchor)  # the parent's second source for the anchor
    want = max(analysis.harnack_excess(analysis.harnack_constants(folded[0], z), lam_mins[0], m,
                                       scale) for z, m in zip(folded, lam_mins))
    assert report.notes["corridor_worst"] == pytest.approx(want, rel=1e-12, abs=0.0)
    span_worst = invariance._span_drift(matnum.hermitian_kernels(stack)[0])[0]
    assert report.passed == (span_worst <= 1e-8 and want <= invariance.CORRIDOR_TOL)
