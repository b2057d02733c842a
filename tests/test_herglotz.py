import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    cgauss,
    random_hermitian,
    random_offaxis,
    random_psd,
    random_rep,
    random_upper,
    rep_with_common_kernel,
    rep_with_pinned_eigenvalue,
)
from nevlab import analysis, herglotz, invariance, matnum
from nevlab.herglotz import FamilyEvaluator, HerglotzRep
from nevlab.matnum import TolerancePolicy


def scalar_rep(b0=0.0, b1=0.0, atoms=()):
    return HerglotzRep.create(
        [[b0]], [[b1]], [(t, [[w]]) for t, w in atoms] or None
    )


IDENTITY_REP = lambda: scalar_rep(b1=1.0)          # F(z) = z
INVERSE_REP = lambda: scalar_rep(atoms=((0.0, 1.0),))  # F(z) = -1/z


class TestEvaluate:
    def test_linear(self):
        np.testing.assert_allclose(herglotz.evaluate(IDENTITY_REP(), 1j), [[1j]])

    def test_single_atom(self):
        np.testing.assert_allclose(herglotz.evaluate(INVERSE_REP(), 1j), [[1j]])

    def test_scalar_arithmetic(self):
        rep = scalar_rep(b0=1.0, atoms=((2.0, 1.0),))
        np.testing.assert_allclose(
            herglotz.evaluate(rep, 1j), [[1.0 + 0.2j]], atol=1e-15
        )

    def test_pole_rejected(self):
        with pytest.raises(herglotz.PoleError):
            herglotz.evaluate(INVERSE_REP(), 0.0)

    def test_real_point_off_atoms_allowed(self):
        value = herglotz.evaluate(INVERSE_REP(), 2.0)
        np.testing.assert_allclose(value, [[-0.5]])

    def test_symmetry_exact(self, rng):
        rep = random_rep(rng)
        for z in random_offaxis(rng, 8):
            a = herglotz.evaluate(rep, np.conj(z))
            b = herglotz.evaluate(rep, z).conj().T
            scale = matnum.spectral_norm(b)
            assert matnum.spectral_norm(a - b) <= 4 * np.finfo(float).eps * scale

    @pytest.mark.parametrize("block_bytes", [herglotz.EVAL_BLOCK_BYTES, 16, 1000])
    @pytest.mark.parametrize("dim, atoms", [(64, 8), (4, 3), (1, 2)])
    def test_blocked_grid_is_each_point_alone_bit_for_bit(self, rng, monkeypatch, block_bytes,
                                                          dim, atoms):
        """On the 40-point check grid, whose blocks split its conjugate pairs: each value is
        the whole-grid sum of B0 + B1 z and the atoms at its point alone, and F(conj z) = F(z)*."""
        monkeypatch.setattr(herglotz, "EVAL_BLOCK_BYTES", block_bytes)
        locs = np.sort(rng.uniform(-5.0, 5.0, atoms))
        rep = HerglotzRep.create(random_hermitian(rng, dim), random_psd(rng, dim, 0.5),
                                 [(float(t), random_psd(rng, dim, 0.7)) for t in locs])
        grid = invariance.default_check_grid()
        values = herglotz.evaluate_grid(rep, grid)
        assert values.shape == (len(grid), dim, dim)
        for z, value in zip(grid, values):
            at = np.full((1, 1, 1), z)
            alone = rep.b0 + rep.b1 * at
            for t, w in zip(rep.locations, rep.weights):
                alone = alone + np.full((1, 1, 1), 1.0 / (t - z) - t / (t * t + 1.0)) * w
            assert value.tobytes() == alone[0].tobytes() == herglotz.evaluate(rep, z).tobytes()
            assert values[grid.index(z.conjugate())].tobytes() == value.conj().T.tobytes()

    def test_half_plane_positivity(self, rng):
        rep = random_rep(rng)
        for z in herglotz.default_grid():
            h = matnum.imag_part(herglotz.evaluate(rep, z)) * np.sign(z.imag)
            ok, _ = matnum.is_psd(h)
            assert ok


class TestDerivative:
    def test_linear(self):
        for z in (1j, 2 + 3j, -1 - 0.5j):
            np.testing.assert_allclose(herglotz.derivative(IDENTITY_REP(), z), [[1.0]])

    def test_inverse_scalar_calculus(self):
        np.testing.assert_allclose(herglotz.derivative(INVERSE_REP(), 1j), [[-1.0]])

    def test_finite_difference_oracle(self, rng):
        rep = random_rep(rng)
        step = 1e-5
        for z in (0.3 + 1j, -2 + 0.5j, 1 - 2j):
            fd = (herglotz.evaluate(rep, z + step) - herglotz.evaluate(rep, z - step)) / (
                2 * step
            )
            d = herglotz.derivative(rep, z)
            rel = matnum.spectral_norm(fd - d) / matnum.spectral_norm(d)
            assert rel <= 1e-6


class TestImagPoisson:
    def test_linear(self):
        np.testing.assert_allclose(herglotz.imag_poisson(IDENTITY_REP(), 2j), [[2.0]])

    def test_inverse(self):
        np.testing.assert_allclose(herglotz.imag_poisson(INVERSE_REP(), 1j), [[1.0]])

    def test_matches_imag_part(self, rng):
        rep = random_rep(rng)
        for z in (0.5 + 0.1j, -2 + 1j, 3 + 10j):
            direct = matnum.imag_part(herglotz.evaluate(rep, z))
            poisson = herglotz.imag_poisson(rep, z)
            scale = 1 + matnum.spectral_norm(direct)
            assert matnum.spectral_norm(direct - poisson) / scale <= 1e-9

    def test_lower_half_plane_rejected(self):
        with pytest.raises(herglotz.DomainError):
            herglotz.imag_poisson(IDENTITY_REP(), -1j)


class TestNevanlinnaKernel:
    def test_linear_constant_one(self):
        rep = IDENTITY_REP()
        for z, w in ((1j, 2j), (1j, 1j), (0.5 - 1j, 2 + 3j)):
            np.testing.assert_allclose(
                herglotz.nevanlinna_kernel(rep, z, w), [[1.0]], atol=1e-14
            )
        # diagonal across the axis selects the derivative branch
        np.testing.assert_allclose(herglotz.nevanlinna_kernel(rep, 1j, -1j), [[1.0]])

    def test_inverse_diagonal(self):
        np.testing.assert_allclose(
            herglotz.nevanlinna_kernel(INVERSE_REP(), 1j, 1j), [[1.0]]
        )

    def test_gram_psd_random_points(self, rng):
        rep = random_rep(rng)
        points = random_offaxis(rng, 5)
        vectors = [cgauss(rng, rep.dim) for _ in points]
        gram = herglotz.kernel_gram(rep, points, vectors)
        ok, lam = matnum.is_psd(gram)
        assert ok, lam


class TestKernelGram:
    def test_single_point(self):
        gram = herglotz.kernel_gram(IDENTITY_REP(), [1j], [np.array([1.0])])
        np.testing.assert_allclose(gram, [[1.0]])

    def test_duplicate_rows_rank_deficient(self):
        rep = random_rep(np.random.default_rng(3), dim=3)
        z, h = 0.7 + 1.3j, np.array([1.0, 2.0, -1.0])
        gram = herglotz.kernel_gram(rep, [z, z], [h, h])
        ok, _ = matnum.is_psd(gram)
        assert ok
        s = matnum.singular_values(gram)
        assert s[1] <= 1e-10 * s[0]

    def test_six_point_eigenvalue_floor(self, rng):
        rep = random_rep(rng, dim=4)
        points = random_offaxis(rng, 6)
        vectors = [cgauss(rng, 4) for _ in points]
        gram = herglotz.kernel_gram(rep, points, vectors)
        lam = np.linalg.eigvalsh(matnum.herm_part(gram))[0]
        assert lam >= -1e-10 * (1 + matnum.spectral_norm(gram))


class TestClassify:
    def test_uniform(self):
        fam = FamilyEvaluator(2, lambda z: z * np.eye(2), "test")
        assert herglotz.classify(fam).label == "R^u"

    def test_plain_with_kernel(self):
        rep = HerglotzRep.create(np.zeros((2, 2)), np.diag([1.0, 0.0]))
        out = herglotz.classify(rep)
        assert out.label == "R" and out.kernel_dim == 1

    def test_strict_at_coarse_tolerance(self):
        d = np.diag(1.0 / np.arange(1, 21))
        fam = FamilyEvaluator(20, lambda z: z * d, "test")
        coarse = TolerancePolicy(eps_psd=5e-3)
        out = herglotz.classify(fam, coarse)
        assert out.label == "R^s"
        assert out.lam_min == pytest.approx(1 / 20)
        # at the default tolerance the same family is uniformly strict
        assert herglotz.classify(fam).label == "R^u"

    def test_not_in_class(self):
        fam = FamilyEvaluator(1, lambda z: np.array([[-z]]), "test")
        assert herglotz.classify(fam).label == "not-R"


class TestPointInvarianceAtMatrixScale:
    def test_imag_kernel_recurs_on_grid(self, rng):
        rep, kernel = rep_with_common_kernel(rng)
        grid = herglotz.default_grid() + tuple(random_offaxis(rng, 5))
        assert len(grid) >= 20
        for z in grid:
            span = matnum.null_space(matnum.imag_part(herglotz.evaluate(rep, z)))
            assert matnum.subspace_distance(span, kernel) <= 1e-8

    def test_eigenspace_recurs_on_grid(self, rng):
        fam, fixed = rep_with_pinned_eigenvalue(rng, a=3.0)
        for z in herglotz.default_grid():
            f = fam(z)
            span = matnum.null_space(f - 3.0 * np.eye(fam.dim))
            assert matnum.subspace_distance(span, fixed) <= 1e-8


class TestStieltjesInvert:
    def test_single_atom(self):
        total = herglotz.stieltjes_invert(INVERSE_REP(), -1.0, 1.0)
        np.testing.assert_allclose(total, [[1.0]], rtol=1e-3)

    def test_no_measure(self):
        total = herglotz.stieltjes_invert(IDENTITY_REP(), -2.0, 5.0)
        assert matnum.spectral_norm(total) <= 1e-3

    def test_two_atoms_window(self):
        rep = scalar_rep(atoms=((-2.0, 1.0), (2.0, 1.0)))
        total = herglotz.stieltjes_invert(rep, 1.0, 3.0)
        np.testing.assert_allclose(total, [[1.0]], rtol=1e-3)

    def test_matrix_weights(self, rng):
        w1, w2 = random_psd(rng, 3), random_psd(rng, 3)
        rep = HerglotzRep.create(
            np.zeros((3, 3)), random_psd(rng, 3), [(-0.7, w1), (0.4, w2)]
        )
        total = herglotz.stieltjes_invert(rep, -1.0, 1.0)
        target = w1 + w2
        rel = matnum.spectral_norm(total - target) / matnum.spectral_norm(target)
        assert rel <= 1e-3

    def test_endpoint_pole_rejected(self):
        with pytest.raises(herglotz.PoleError):
            herglotz.stieltjes_invert(INVERSE_REP(), 0.0, 1.0)

    def test_divergent_sweep_raises(self):
        with pytest.raises(herglotz.SweepDivergenceError):
            herglotz.stieltjes_invert(INVERSE_REP(), -1e-4, 1e-4)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    x=st.floats(-5.0, 5.0),
    y=st.floats(1e-2, 1e2),
)
@example(seed=65536, x=1e-08, y=0.015625)  # second point 1e-8 off the real axis
def test_kernel_gram_psd_property(seed, x, y):
    gen = np.random.default_rng(seed)
    rep = random_rep(gen, int(gen.integers(1, 5)), 4, uniform=False)
    points = [complex(x, y), complex(x, y) * 1j + 0.3, complex(-x, -y)]
    points = [z for z in points if z.imag != 0] or [1j]
    vectors = [cgauss(gen, rep.dim) for _ in points]
    gram = herglotz.kernel_gram(rep, points, vectors)
    lam = np.linalg.eigvalsh(matnum.herm_part(gram))[0]
    assert lam >= -1e-10 * (1 + matnum.spectral_norm(gram))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), y=st.floats(1e-2, 1e2))
def test_symmetry_and_positivity_property(seed, y):
    gen = np.random.default_rng(seed)
    rep = random_rep(gen, 3, 4, uniform=False)
    z = complex(gen.uniform(-4, 4), y)
    value = herglotz.evaluate(rep, z)
    mirror = herglotz.evaluate(rep, np.conj(z)).conj().T
    assert matnum.spectral_norm(value - mirror) <= 1e-12 * (
        1 + matnum.spectral_norm(value)
    )
    ok, _ = matnum.is_psd(matnum.imag_part(value))
    assert ok


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    points=st.lists(st.tuples(st.floats(-6.0, 6.0), st.floats(1e-2, 1e2), st.booleans()),
                    min_size=1, max_size=8),
    offset=st.booleans(),
)
def test_symmetry_residual_property(seed, points, offset):
    """F(conj z) = F(z)* to round-off on random off-axis grids, with or without an offset."""
    gen = np.random.default_rng(seed)
    rep = random_rep(gen, int(gen.integers(1, 5)), 4, uniform=False)
    family = (FamilyEvaluator.from_rep_with_offset(rep, random_hermitian(gen, rep.dim))
              if offset else FamilyEvaluator.from_rep(rep))
    grid = [complex(x, y if above else -y) for x, y, above in points]
    assert family.symmetry_residual(grid) <= 1e-12


def test_measure_requires_psd_weights():
    with pytest.raises(ValueError, match="weight at t=0.0 is not PSD"):
        scalar_rep(atoms=((0.0, -1.0),))


def test_measure_requires_increasing_locations():
    """Atoms are sorted by location; a repeated location is rejected."""
    assert scalar_rep(atoms=((2.0, 1.0), (-1.0, 3.0))).locations == (-1.0, 2.0)
    with pytest.raises(ValueError, match="atom locations must be distinct"):
        scalar_rep(atoms=((1.0, 1.0), (1.0, 1.0)))


def test_weights_of_another_size_are_a_dimension_mismatch():
    for atoms in ([(0.0, np.eye(2))], [(0.0, [[1.0]]), (1.0, np.eye(2))]):
        with pytest.raises(matnum.MatrixShapeError, match="measure dimension mismatch"):
            HerglotzRep.create([[0.0]], [[1.0]], atoms)


def test_an_empty_atom_list_is_no_atoms():
    rep = HerglotzRep.create([[0.5]], [[1.0]], [])
    assert (rep.locations, rep.weights, rep.dim) == ((), (), 1)
    assert rep.k_sigma().tolist() == [[0.0]]
    value = herglotz.evaluate(rep, 2j)
    assert value.tolist() == herglotz.evaluate(scalar_rep(0.5, 1.0), 2j).tolist() == [[0.5 + 2j]]


def test_weights_that_pass_alone_can_fail_as_a_normalization_sum():
    """Each weight is PSD within psd_from's floor, but the floors do not add up."""
    w = np.diag([-0.9e-10, 0.0])
    assert matnum.is_psd(w)[0]
    with pytest.raises(ValueError, match=r"normalization sum not PSD \(lambda_min=-1.800e-10\)"):
        HerglotzRep.create(np.zeros((2, 2)), np.zeros((2, 2)), [(0.0, w), (1e-8, w)])


def test_family_direct_sum_blocks(rng):
    fa = FamilyEvaluator.from_rep(random_rep(rng, 2, 3))
    fb = FamilyEvaluator.from_rep(random_rep(rng, 3, 3))
    fc = herglotz.family_direct_sum(fa, fb)
    z = 0.3 + 1.7j
    v = fc(z)
    np.testing.assert_allclose(v[:2, :2], fa(z))
    np.testing.assert_allclose(v[2:, 2:], fb(z))
    assert matnum.spectral_norm(v[:2, 2:]) == 0.0


# -- the kernel block and its slices, against the formulas they replaced --------


def _closed_form_kernel(rep, z, w):
    """B1 + sum_j W_j / ((t_j - z)(t_j - conj w)), one atom at a time."""
    out = rep.b1.astype(np.complex128).copy()
    for t, weight in zip(rep.locations, rep.weights):
        out = out + weight / ((t - z) * (t - np.conj(w)))
    return out


def _quotient_kernel(family, z, w):
    fz, fw = family.on_grid((z, w))
    return (fz - fw.conj().T) / (z - np.conj(w))


def _derivative_loop(rep, z):
    out = rep.b1.astype(np.complex128).copy()
    for t, w in zip(rep.locations, rep.weights):
        out = out + w / (t - z) ** 2
    return out


def _poisson_loop(rep, z):
    x, y = z.real, z.imag
    out = rep.b1 * y
    for t, w in zip(rep.locations, rep.weights):
        out = out + (y / ((x - t) ** 2 + y * y)) * w
    return out


def _gram_loop(rep, points, vectors):
    n = len(points)
    gram = np.zeros((n, n), dtype=np.complex128)
    for j in range(n):
        for i in range(j, n):
            gram[i, j] = vectors[i].conj() @ (_closed_form_kernel(rep, points[j], points[i])
                                              @ vectors[j])
            gram[j, i] = np.conj(gram[i, j])
    return gram


def _grid_with_conjugates(gen, count):
    """count random off-axis points, then the conjugates of the first half."""
    zs = random_offaxis(gen, count)
    return zs + [z.conjugate() for z in zs[: count // 2]]


def _relative(a, b):
    return matnum.spectral_norm(a - b) / matnum.spectral_norm(b)


@pytest.mark.parametrize("seed", range(6))
def test_every_slice_of_the_kernel_block_is_the_closed_form_bit_for_bit(seed):
    gen = np.random.default_rng(seed)
    rep = random_rep(gen, int(gen.integers(1, 5)), 6, uniform=False)
    zs, ws = _grid_with_conjugates(gen, 6), _grid_with_conjugates(gen, 4)
    block = herglotz._kernels(rep, zs, ws, TolerancePolicy())
    assert block.shape == (len(zs), len(ws), rep.dim, rep.dim)
    for i, z in enumerate(zs):
        for k, w in enumerate(ws):
            want = _closed_form_kernel(rep, z, w)
            assert block[i, k].tobytes() == want.tobytes()
            assert herglotz.nevanlinna_kernel(rep, z, w).tobytes() == want.tobytes()
        assert herglotz.derivative(rep, z).tobytes() == _derivative_loop(rep, z).tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_the_quotient_block_is_the_plain_quotient_bit_for_bit(seed):
    gen = np.random.default_rng(seed)
    rep = random_rep(gen, 3, 4)
    family = FamilyEvaluator.from_callable(lambda z: herglotz.evaluate(rep, z), 3)
    zs, ws = random_offaxis(gen, 5), random_upper(gen, 3)
    block = herglotz._kernels(family, zs, ws, TolerancePolicy())
    for i, z in enumerate(zs):
        for k, w in enumerate(ws):
            assert block[i, k].tobytes() == _quotient_kernel(family, z, w).tobytes()
    with pytest.raises(herglotz.DomainError, match="diagonal z = conj"):
        herglotz._kernels(family, zs, ws + [zs[2].conjugate()], TolerancePolicy())


@pytest.mark.parametrize("seed", range(6))
def test_poisson_form_and_gram_equal_their_loops(seed):
    gen = np.random.default_rng(seed)
    rep = random_rep(gen, int(gen.integers(1, 5)), 6, uniform=False)
    zs = _grid_with_conjugates(gen, 6)
    for z in random_upper(gen, 4):
        poisson = herglotz.imag_poisson(rep, z)
        slice_ = herglotz._kernels(rep, [z], [z], TolerancePolicy())[0, 0]
        assert np.array_equal(poisson, z.imag * slice_)
        assert _relative(poisson, _poisson_loop(rep, z)) <= 1e-13
    vectors = [cgauss(gen, rep.dim) for _ in zs]
    assert _relative(herglotz.kernel_gram(rep, zs, vectors), _gram_loop(rep, zs, vectors)) <= 1e-13


def test_stieltjes_inversion_rejects_an_atom_endpoint_of_a_family_too():
    for f in (INVERSE_REP(), FamilyEvaluator.from_rep(INVERSE_REP())):
        with pytest.raises(herglotz.PoleError):
            herglotz.stieltjes_invert(f, 0.0, 1.0)


def test_boundary_extrapolations_give_the_weight_and_the_first_moment():
    family = FamilyEvaluator.from_rep(scalar_rep(atoms=((0.5, 2.0),)))
    weight = herglotz.boundary_extrapolations(family, 0.0, 1.0, herglotz.STIELTJES_ETAS)
    assert len(weight) == len(herglotz.STIELTJES_ETAS) - 1
    assert np.array_equal(weight[-1], herglotz.stieltjes_invert(family, 0.0, 1.0))
    moment = herglotz.boundary_extrapolations(family, 0.0, 1.0, analysis.MOMENT_ETAS, power=1)
    np.testing.assert_allclose(weight[-1], [[2.0]], rtol=1e-3)
    np.testing.assert_allclose(moment[-1], [[1.0]], rtol=1e-3)


def test_boundary_integrals_leave_the_value_memo_to_the_grid():
    """The quadrature's nodes are never asked for again, so none of them fills the memo."""
    family = FamilyEvaluator.from_rep(random_rep(np.random.default_rng(5), 2, 3))
    herglotz.boundary_extrapolations(family, 0.0, 1.0, herglotz.STIELTJES_ETAS)
    assert family.memo.values == {} and family.memo.nbytes == 0
    herglotz.stieltjes_invert(family, 0.0, 1.0)
    assert list(family.memo.values) == [(0.0, 1.0)]  # its scale, F(i)
    grid = herglotz.default_grid()
    family.on_grid(grid)
    assert len(family.memo.values) == len(set(grid) | {1j})


@pytest.mark.parametrize("zs", [[0.5, 2.0], [], [3.0]])
def test_symmetry_residual_needs_an_offaxis_point(zs):
    """F(z) = iz is not symmetric; a grid on the axis must not read as perfect symmetry."""
    family = FamilyEvaluator.from_callable(lambda z: np.array([[1j * z]]), 1)
    assert family.symmetry_residual([1j]) == 1.0
    with pytest.raises(herglotz.DomainError, match="symmetry_residual"):
        family.symmetry_residual(zs)
    assert family.symmetry_residual() == family.symmetry_residual(herglotz.upper_grid())


def test_scipy_integrate_is_loaded_only_by_the_boundary_integral():
    """Importing the library's other entry points leaves scipy.integrate unloaded."""
    src = str(Path(herglotz.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, nevlab.runner, nevlab.invariance, nevlab.relations, nevlab.examples; "
            "print('scipy.integrate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "False"
