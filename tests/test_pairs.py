import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cgauss, mul_pair, random_hermitian, random_rep, random_upper
from nevlab import herglotz, invariance, matnum, pairs, relations
from nevlab.herglotz import FamilyEvaluator, HerglotzRep
from nevlab.pairs import JUnitary, PairEvaluator


def scalar_family(fn):
    return FamilyEvaluator(1, lambda z: np.array([[fn(z)]]), "test")


LINEAR = lambda: scalar_family(lambda z: z)          # F(z) = z
ZERO = lambda: scalar_family(lambda z: 0.0)          # F(z) = 0
DIAG_Z3 = lambda: FamilyEvaluator(2, lambda z: np.diag([z, 3.0 + 0j]), "test")
MUL = lambda: PairEvaluator.constant(np.zeros((1, 1)), np.eye(1))  # {0} x C


class TestCanonicalPair:
    def test_linear_closed_form(self, rng):
        p = pairs.canonical_pair(LINEAR())
        for z in random_upper(rng, 6):
            phi, psi = p(z)
            np.testing.assert_allclose(phi, [[1 / (z + 1j)]], atol=1e-14)
            np.testing.assert_allclose(psi, [[z / (z + 1j)]], atol=1e-14)

    def test_constant_zero_family(self):
        phi, psi = pairs.canonical_pair(ZERO())(1j)
        np.testing.assert_allclose(phi, [[-1j]])
        np.testing.assert_allclose(psi, [[0.0]], atol=1e-16)

    def test_graph_carries_pinned_direction(self):
        p = pairs.canonical_pair(DIAG_Z3())
        rel = relations.from_pair_at(p, 0.4 + 2.2j)
        pinned = np.array([[0.0], [1.0], [0.0], [3.0]]) / np.sqrt(10)
        assert relations.contains(relations.LinearRelation(2, pinned), rel)

    def test_normalization_upper(self, rng):
        rep = random_rep(rng, 3)
        p = pairs.canonical_pair(FamilyEvaluator.from_rep(rep))
        for z in random_upper(rng, 5):
            phi, psi = p(z)
            assert matnum.spectral_norm(psi + 1j * phi - np.eye(3)) <= 1e-13
            phi_l, psi_l = p(np.conj(z))
            assert matnum.spectral_norm(psi_l - 1j * phi_l - np.eye(3)) <= 1e-13


class TestValidate:
    def test_canonical_linear_residuals(self):
        report = pairs.validate(pairs.canonical_pair(LINEAR()))
        assert report.passed
        assert max(report.symmetry_residuals) <= 1e-12
        assert min(report.positivity_margins) >= -1e-12

    def test_np1_failure(self):
        bad = PairEvaluator.constant(np.eye(1), -1j * np.eye(1))
        report = pairs.validate(bad, [1j, 2j])
        assert not report.passed
        assert min(report.positivity_margins) < -0.5

    def test_constant_selfadjoint_relation(self):
        assert pairs.validate(MUL()).passed


class TestPairKernel:
    def test_linear_diagonal(self, rng):
        p = pairs.canonical_pair(LINEAR())
        np.testing.assert_allclose(pairs.pair_kernel(p, 1j, 1j), [[0.25]], atol=1e-14)
        for z in random_upper(rng, 4):
            expected = 1.0 / abs(z + 1j) ** 2
            np.testing.assert_allclose(
                pairs.pair_kernel(p, z, z), [[expected]], atol=1e-14
            )

    def test_pure_mul_vanishes(self, rng):
        p = MUL()
        for z in random_upper(rng, 3):
            assert matnum.spectral_norm(pairs.pair_kernel(p, z, z)) <= 1e-15

    def test_uniform_family_definite(self, rng):
        p = pairs.canonical_pair(FamilyEvaluator.from_rep(random_rep(rng, 3)))
        lam = np.linalg.eigvalsh(matnum.herm_part(pairs.pair_kernel(p, 1j, 1j)))[0]
        assert lam > 0

    def test_mirror_diagonal_rejected(self):
        p = pairs.canonical_pair(LINEAR())
        with pytest.raises(pairs.DiagonalKernelError):
            pairs.pair_kernel(p, 1j, -1j)


class TestCayley:
    def test_linear_moebius(self):
        p = pairs.canonical_pair(LINEAR())
        np.testing.assert_allclose(pairs.cayley(p, 1j), [[0.0]], atol=1e-15)
        np.testing.assert_allclose(abs(pairs.cayley(p, 2j)[0, 0]), 1 / 3, atol=1e-14)

    def test_pure_mul_is_identity(self):
        np.testing.assert_allclose(pairs.cayley(MUL(), 1.3j), [[1.0]])

    def test_diagonal_unimodular_block(self, rng):
        p = pairs.canonical_pair(DIAG_Z3())
        for z in random_upper(rng, 4):
            c = pairs.cayley(p, z)
            np.testing.assert_allclose(c[0, 0], (z - 1j) / (z + 1j), atol=1e-13)
            np.testing.assert_allclose(c[1, 1], (3 - 1j) / (3 + 1j), atol=1e-13)
            assert abs(abs(c[1, 1]) - 1.0) <= 1e-13

    def test_contractive_on_random_families(self, rng):
        for _ in range(5):
            p = pairs.canonical_pair(FamilyEvaluator.from_rep(random_rep(rng)))
            for z in random_upper(rng, 4):
                assert matnum.spectral_norm(pairs.cayley(p, z)) <= 1 + 1e-10


class TestSchurKernel:
    def test_scalar_chain(self):
        p = pairs.canonical_pair(LINEAR())
        np.testing.assert_allclose(pairs.schur_kernel(p, 1j, 1j), [[0.5]], atol=1e-12)
        assert pairs.kernel_identity_residual(p, 1j, 1j) <= 1e-12

    def test_pure_mul_kernel_vanishes(self):
        assert matnum.spectral_norm(pairs.schur_kernel(MUL(), 1j, 2j)) <= 1e-15

    def test_gram_psd_and_identity(self, rng):
        p = pairs.canonical_pair(FamilyEvaluator.from_rep(random_rep(rng, 3)))
        zs = random_upper(rng, 4)
        blocks = [[pairs.schur_kernel(p, zc, zr) for zc in zs] for zr in zs]
        gram = np.block(blocks)
        ok, _ = matnum.is_psd(matnum.herm_part(gram))
        assert ok
        for z in zs:
            for w in zs:
                assert pairs.kernel_identity_residual(p, z, w) <= 1e-10


class TestTransforms:
    def test_identity_junitary(self, rng):
        p = pairs.canonical_pair(FamilyEvaluator.from_rep(random_rep(rng, 2)))
        q = pairs.transform(p, np.eye(4))
        z = 0.3 + 1.1j
        np.testing.assert_allclose(q.stacked(z), p.stacked(z))

    def test_flip_gives_inverse_negative(self, rng):
        p = pairs.canonical_pair(LINEAR())
        flipped = pairs.transform(p, JUnitary.flip(p.dim))
        inverse_neg = pairs.canonical_pair(scalar_family(lambda z: -1 / z))
        for z in random_upper(rng, 4):
            r1 = relations.from_pair_at(flipped, z)
            r2 = relations.from_pair_at(inverse_neg, z)
            assert r1.distance(r2) <= 1e-10
        np.testing.assert_allclose(
            pairs.pair_kernel(flipped, 1j, 1j), [[0.25]], atol=1e-14
        )

    def test_hermitian_shift_is_affine(self, rng):
        p = pairs.canonical_pair(LINEAR())
        shifted = pairs.transform(p, JUnitary.shift([[1.0]]))
        target = pairs.canonical_pair(scalar_family(lambda z: z + 1))
        for z in random_upper(rng, 4):
            assert relations.from_pair_at(shifted, z).distance(
                relations.from_pair_at(target, z)
            ) <= 1e-10

    def test_shift_requires_hermitian(self):
        with pytest.raises(pairs.PairAxiomError):
            JUnitary.shift([[1j]])

    def test_scale_transform_valid(self, rng):
        p = pairs.canonical_pair(FamilyEvaluator.from_rep(random_rep(rng, 2)))
        y = cgauss(rng, 2, 2) + 3 * np.eye(2)
        q = pairs.transform(p, JUnitary.scale(y))
        assert pairs.validate(q).passed
        # the congruence moves the graph but preserves the kernel
        n1 = pairs.pair_kernel(p, 1j, 2j)
        n2 = pairs.pair_kernel(q, 1j, 2j)
        assert matnum.spectral_norm(n1 - n2) <= 1e-10 * (1 + matnum.spectral_norm(n1))

    def test_herglotz_shift(self, rng):
        p = pairs.canonical_pair(LINEAR())
        m = HerglotzRep.create([[0.0]], [[1.0]])  # M(z) = z, uniformly strict
        q = pairs.herglotz_shift_transform(p, m)
        target = pairs.canonical_pair(scalar_family(lambda z: 2 * z))
        assert pairs.validate(q).passed
        for z in random_upper(rng, 3):
            assert relations.from_pair_at(q, z).distance(
                relations.from_pair_at(target, z)
            ) <= 1e-10

    def test_herglotz_shift_rejects_non_uniform(self):
        p = pairs.canonical_pair(LINEAR())
        flat = HerglotzRep.create([[1.0]], [[0.0]])  # constant, kernel everywhere
        with pytest.raises(pairs.PairAxiomError):
            pairs.herglotz_shift_transform(p, flat)

    def test_junitary_rejects_plain_matrix(self):
        with pytest.raises(pairs.PairAxiomError):
            JUnitary.create(2 * np.eye(4))

    def test_random_junitary_satisfies_metric(self, rng):
        j = pairs.krein_j(3)
        for _ in range(10):
            w = JUnitary.random(3, rng)
            resid = matnum.spectral_norm(w.w.conj().T @ j @ w.w - j)
            assert resid <= 1e-9 * (1 + matnum.spectral_norm(w.w) ** 2)

    def test_kernel_preserved_under_junitary(self, rng):
        p = pairs.canonical_pair(FamilyEvaluator.from_rep(random_rep(rng, 3)))
        zs = random_upper(rng, 3)
        for _ in range(10):
            q = pairs.transform(p, JUnitary.random(3, rng))
            for z in zs:
                for w in zs:
                    n1 = pairs.pair_kernel(p, z, w)
                    n2 = pairs.pair_kernel(q, z, w)
                    assert matnum.spectral_norm(n1 - n2) <= 1e-10 * (
                        1 + matnum.spectral_norm(n1)
                    )

    def test_transformed_pairs_stay_valid(self, rng):
        p = pairs.canonical_pair(FamilyEvaluator.from_rep(random_rep(rng, 3)))
        for _ in range(5):
            q = pairs.transform(p, JUnitary.random(3, rng))
            assert pairs.validate(q, random_upper(rng, 3)).passed


def _drawn_pair(rng, kind: str, dim: int, planted: bool) -> PairEvaluator:
    """A pair of dim 1-4 with a generic block of dim >= 1.

    ``planted`` adds a constant self-adjoint direction {1, t}, which lies in
    the kernel of N(z, z); "multivalued" adds the direction {0, 1}.  The
    generic block keeps N(z, z) from vanishing entirely, a case the rank
    rule misreads (``test_vanishing_kernel_keeps_its_dimension_under_junitary``).
    """
    parts = []
    if planted and dim > 1:
        parts.append(PairEvaluator.constant(np.eye(1), rng.standard_normal((1, 1))))
    if kind == "multivalued" and dim > len(parts) + 1:
        parts.append(MUL())
    rest = dim - len(parts)
    if kind == "constant":
        parts.append(PairEvaluator.constant(cgauss(rng, rest, rest), cgauss(rng, rest, rest)))
    else:
        parts.append(pairs.canonical_pair(random_rep(rng, rest, 3)))
    return functools.reduce(pairs.pair_direct_sum, parts)


def _strictness(c) -> tuple:
    """The kernel's own witnesses: R~ is R with a multivalued part, which W moves."""
    label = herglotz.CLASS_PLAIN if c.label == invariance.CLASS_FAMILY else c.label
    return label, c.kernel_dim


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4),
       kind=st.sampled_from(["canonical", "constant", "multivalued"]), planted=st.booleans())
def test_pair_checks_are_j_invariant(seed, dim, kind, planted):
    """The boundary form, the kernel's class witnesses and the axioms are J-invariant.

    A random J-unitary moves the multivalued part (``flip`` swaps it with
    the kernel of Psi), so mul_dim is compared under shift and scale, the
    J-unitaries [[Y^-1, 0], [X Y^-1, Y*]] that keep ker Phi.  The a-dependent
    witnesses are left out: ``flip`` sends the eigenvalue a to -1/a.
    """
    rng = np.random.default_rng(seed)
    p = _drawn_pair(rng, kind, dim, planted)
    moved = pairs.transform(p, JUnitary.random(p.dim, rng))
    z = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.2, 3.0))
    w = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.2, 3.0)) * rng.choice([1.0, -1.0])
    (phis, psis), (mphis, mpsis) = p.on_grid((z, w)), moved.on_grid((z, w))
    d = pairs.boundary_form(phis[0], psis[0], phis[1], psis[1])
    d_moved = pairs.boundary_form(mphis[0], mpsis[0], mphis[1], mpsis[1])
    size = np.prod(matnum.spectral_norm(np.concatenate([phis, psis], axis=1)))  # |T(z)| |T(w)|
    assert matnum.spectral_norm(d_moved - d) <= 1e-12 * size

    before, after = invariance.classify_family_pair(p), invariance.classify_family_pair(moved)
    assert _strictness(before) == _strictness(after)
    assert abs(before.lam_min - after.lam_min) <= 1e-12 * (1.0 + abs(before.lam_min))
    assert pairs.validate(p).passed == pairs.validate(moved).passed

    y = np.eye(p.dim) + 0.3 * cgauss(rng, p.dim, p.dim) / p.dim
    kept = pairs.transform(pairs.transform(p, JUnitary.scale(y)),
                           JUnitary.shift(random_hermitian(rng, p.dim)))
    c = invariance.classify_family_pair(kept)
    assert (c.label, c.kernel_dim, c.mul_dim) == (before.label, before.kernel_dim,
                                                   before.mul_dim)
    assert pairs.validate(kept).passed == pairs.validate(p).passed


@pytest.mark.xfail(strict=True, reason="rank_from cuts at eps_rank times the largest "
                   "eigenvalue, so a kernel that vanishes up to round-off reads as full rank")
def test_vanishing_kernel_keeps_its_dimension_under_junitary(rng):
    assert invariance.classify_family_pair(MUL()).kernel_dim == 1
    moved = pairs.transform(MUL(), JUnitary.random(1, rng))
    assert invariance.classify_family_pair(moved).kernel_dim == 1


class TestEquivalence:
    def test_reparametrization_is_equivalent(self, rng):
        p = pairs.canonical_pair(FamilyEvaluator.from_rep(random_rep(rng, 2)))
        q = pairs.reparametrized(p, 2.0 * np.eye(2))
        assert pairs.equivalent(p, q)

    def test_shifted_family_not_equivalent(self):
        p = pairs.canonical_pair(LINEAR())
        q = pairs.canonical_pair(scalar_family(lambda z: z + 1))
        assert not pairs.equivalent(p, q)

    def test_junitary_moves_graph(self, rng):
        p = pairs.canonical_pair(LINEAR())
        assert not pairs.equivalent(p, pairs.transform(p, JUnitary.flip(p.dim)))
        assert pairs.equivalent(p, pairs.transform(p, JUnitary.shift([[0.0]])))


class TestMulDetection:
    def test_kernels_constant_for_canonical_pairs(self, rng):
        p = mul_pair(rng, 3)
        spans_phi, spans_psi = [], []
        for z in herglotz.default_grid():
            phi, psi = p(z)
            spans_phi.append(matnum.null_space(phi))
            spans_psi.append(matnum.null_space(psi))
        assert all(s.shape[1] == 1 for s in spans_phi)
        assert all(
            matnum.subspace_distance(s, spans_phi[0]) <= 1e-8 for s in spans_phi
        )
        assert all(
            matnum.subspace_distance(s, spans_psi[0]) <= 1e-8 for s in spans_psi
        )


def test_pair_direct_sum_blocks(rng):
    pa = pairs.canonical_pair(FamilyEvaluator.from_rep(random_rep(rng, 2)))
    pb = MUL()
    p = pairs.pair_direct_sum(pa, pb)
    phi, psi = p(1j)
    assert phi.shape == (3, 3)
    np.testing.assert_allclose(phi[2, 2], 0.0)
    np.testing.assert_allclose(psi[2, 2], 1.0)
    assert pairs.validate(p).passed


def test_scale_checks_the_metric_with_the_given_tolerance():
    y = np.array([[2.0, 1.0j], [0.5, 3.0]])  # its J-metric residual is round-off, not 0
    assert JUnitary.scale(y).dim == 2
    with pytest.raises(pairs.PairAxiomError):
        JUnitary.scale(y, matnum.TolerancePolicy(eps_eq=1e-30))
