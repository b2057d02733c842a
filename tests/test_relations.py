import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cgauss, mul_pair, random_hermitian, random_rep, random_upper
from nevlab import herglotz, matnum, pairs, relations
from nevlab.herglotz import FamilyEvaluator
from nevlab.matnum import TolerancePolicy
from nevlab.relations import LinearRelation


def scalar_family(fn):
    return FamilyEvaluator(1, lambda z: np.array([[fn(z)]]), "test")


DIAG_Z3 = lambda: FamilyEvaluator(2, lambda z: np.diag([z, 3.0 + 0j]), "test")


def random_relation(rng, n, k):
    return LinearRelation.from_span(cgauss(rng, 2 * n, k))


class TestConstruction:
    def test_graph_of_multiplication_by_i(self):
        p = pairs.canonical_pair(scalar_family(lambda z: z))
        rel = relations.from_pair_at(p, 1j)
        assert rel.dim == 1 and rel.ambient == 1
        target = np.array([[1.0], [1j]]) / np.sqrt(2)
        assert matnum.subspace_distance(rel.basis, target) <= 1e-12

    def test_pure_mul(self):
        rel = relations.from_pair_at(
            pairs.PairEvaluator.constant(np.zeros((1, 1)), np.eye(1)), 2j
        )
        assert rel.distance(LinearRelation.pure_mul(1)) <= 1e-14

    def test_pinned_direction_present(self):
        rel = relations.from_pair_at(pairs.canonical_pair(DIAG_Z3()), 2j)
        assert rel.dim == 2
        pinned = LinearRelation.from_span(np.array([[0.0], [1.0], [0.0], [3.0]]))
        assert relations.contains(pinned, rel)

    def test_basis_orthonormal(self, rng):
        rel = random_relation(rng, 3, 4)
        gram = rel.basis.conj().T @ rel.basis
        assert matnum.spectral_norm(gram - np.eye(rel.dim)) <= 1e-12


class TestParts:
    def test_zero_operator_graph(self):
        p = relations.parts(LinearRelation.graph(np.zeros((1, 1))))
        assert p.dom.shape[1] == 1 and p.ker.shape[1] == 1
        assert p.ran.shape[1] == 0 and p.mul.shape[1] == 0

    def test_pure_mul_parts(self):
        p = relations.parts(LinearRelation.pure_mul(1))
        assert p.dom.shape[1] == 0 and p.mul.shape[1] == 1

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), k=st.integers(1, 8),
           rank_top=st.integers(0, 4))
    def test_rank_nullity(self, seed, n, k, rank_top):
        """dom + mul and ran + ker each have width dim T, also with a singular top block."""
        rng = np.random.default_rng(seed)
        span = cgauss(rng, 2 * n, k)
        span[:n] = cgauss(rng, n, min(rank_top, n)) @ cgauss(rng, min(rank_top, n), k)
        t = LinearRelation.from_span(span)
        p = relations.parts(t)
        assert p.dom.shape[1] + p.mul.shape[1] == t.dim
        assert p.ran.shape[1] + p.ker.shape[1] == t.dim

    def test_one_full_svd_of_both_blocks_and_two_image_ranges(self, rng, monkeypatch):
        t = random_relation(rng, 3, 4)
        seen, lapack = [], matnum._lapack
        monkeypatch.setattr(matnum, "_lapack",
                            lambda kind, m: seen.append((kind, m.shape)) or lapack(kind, m))
        relations.parts(t)
        assert seen == [("svd", (2, 3, 4)), ("svd_thin", (1, 3, 1)), ("svd_thin", (1, 3, 1))]

    def test_nilpotent_graph(self):
        p = relations.parts(LinearRelation.graph([[0.0, 1.0], [0.0, 0.0]]))
        e1 = np.array([[1.0], [0.0]])
        assert p.mul.shape[1] == 0 and p.dom.shape[1] == 2
        assert matnum.subspace_distance(p.ker, e1) <= 1e-12
        assert matnum.subspace_distance(p.ran, e1) <= 1e-12


class TestAdjoint:
    def test_zero_graph_selfadjoint(self):
        t = LinearRelation.graph(np.zeros((1, 1)))
        assert relations.adjoint(t).distance(t) <= 1e-14
        assert relations.is_selfadjoint(t)

    def test_pure_mul_selfadjoint(self):
        t = LinearRelation.pure_mul(2)
        assert relations.adjoint(t).distance(t) <= 1e-14
        assert relations.is_selfadjoint(t)

    def test_matrix_adjoint_oracle(self, rng):
        a = cgauss(rng, 3, 3)
        t_star = relations.adjoint(LinearRelation.graph(a))
        assert t_star.distance(LinearRelation.graph(a.conj().T)) <= 1e-12

    def test_involution_and_dimension_count(self, rng):
        for k in (1, 2, 3, 5):
            t = random_relation(rng, 3, k)
            t_star = relations.adjoint(t)
            assert t.dim + t_star.dim == 6
            assert relations.adjoint(t_star).distance(t) <= 1e-10

    def test_pair_snapshot_adjoint_is_conjugate_point(self, rng):
        p = pairs.canonical_pair(FamilyEvaluator.from_rep(random_rep(rng, 3)))
        for z in random_upper(rng, 3):
            t_star = relations.adjoint(relations.from_pair_at(p, z))
            t_conj = relations.from_pair_at(p, np.conj(z))
            assert t_star.distance(t_conj) <= 1e-10


class TestSymmetryCriteria:
    def test_hermitian_graph_symmetric(self, rng):
        t = LinearRelation.graph(random_hermitian(rng, 3))
        assert relations.is_symmetric(t)
        assert relations.is_selfadjoint(t)

    def test_dissipative_and_accumulative(self):
        up = LinearRelation.graph([[1j]])
        down = LinearRelation.graph([[-1j]])
        assert relations.is_dissipative(up) and not relations.is_symmetric(up)
        assert relations.is_accumulative(down)
        assert relations.is_maximal_dissipative(up)
        assert relations.is_maximal_accumulative(down)

    def test_symmetric_but_not_maximal(self):
        span = np.zeros((4, 1))
        span[0, 0] = 1.0  # graph of 0 on span(e1) in C^2, domain not dense
        t = LinearRelation.from_span(span)
        assert relations.is_symmetric(t)
        assert not relations.is_selfadjoint(t)
        assert not relations.is_maximal_dissipative(t)

    def test_adjoint_cross_check_follows_the_policy(self):
        """A graph about 1e-7 from its adjoint is selfadjoint under eps_rank = 1e-6."""
        antisym = np.array([[0.0, 1.0], [-1.0, 0.0]])
        t = LinearRelation.graph(np.array([[1.0, 0.5], [0.5, -2.0]]) + 2e-7 * antisym)
        tol = TolerancePolicy(eps_rank=1e-6, eps_eq=1e-6)
        assert 1e-8 < t.distance(relations.adjoint(t)) < 1e-6
        assert relations.is_symmetric(t, tol)
        assert relations.is_selfadjoint(t, tol)
        assert not relations.is_selfadjoint(t)

    def test_mul_equals_adjoint_mul_for_maximal(self, rng):
        p = mul_pair(rng, 3)
        for z in random_upper(rng, 3):
            t = relations.from_pair_at(p, z)
            assert relations.is_maximal_dissipative(t)
            m1 = relations.parts(t).mul
            m2 = relations.parts(relations.adjoint(t)).mul
            assert matnum.subspace_distance(m1, m2) <= 1e-10


class TestResolvent:
    def test_zero_graph(self):
        r = relations.resolvent_at(LinearRelation.graph(np.zeros((1, 1))), 1j)
        np.testing.assert_allclose(r, [[1j]], atol=1e-14)

    def test_pure_mul_resolvent_vanishes(self):
        r = relations.resolvent_at(LinearRelation.pure_mul(2), 0.5 + 2j)
        assert matnum.spectral_norm(r) <= 1e-14

    def test_eigenvalue_hit_flags_singular(self):
        assert relations.resolvent_at(LinearRelation.graph([[1.0]]), 1.0) is None
        # the core bottom - z top of diag(1, 2)'s graph at z = 1 has a round-off sigma_min, not 0
        assert relations.resolvent_at(LinearRelation.graph(np.diag([1.0, 2.0])), 1.0) is None

    def test_matches_matrix_resolvent(self, rng):
        a = cgauss(rng, 3, 3)
        z = 0.4 + 1.7j
        r = relations.resolvent_at(LinearRelation.graph(a), z)
        np.testing.assert_allclose(r, np.linalg.inv(a - z * np.eye(3)), atol=1e-10)


class TestSumsAndIntersections:
    def test_intersection_idempotent(self, rng):
        t = random_relation(rng, 3, 2)
        assert relations.intersect(t, t).distance(t) <= 1e-10

    def test_componentwise_sum_fills_space(self):
        out = relations.componentwise_sum(
            LinearRelation.graph(np.zeros((1, 1))), LinearRelation.pure_mul(1)
        )
        assert out.dim == 2

    def test_operator_sum_of_graphs(self, rng):
        a, b = cgauss(rng, 3, 3), cgauss(rng, 3, 3)
        out = relations.operator_sum(LinearRelation.graph(a), LinearRelation.graph(b))
        assert out.distance(LinearRelation.graph(a + b)) <= 1e-10

    def test_intersection_of_disjoint_graphs(self, rng):
        t1 = LinearRelation.graph(np.eye(2))
        t2 = LinearRelation.graph(2 * np.eye(2))
        assert relations.intersect(t1, t2).dim == 0

    def test_zero_relation_meets_and_sits_in_any_relation(self, rng):
        zero = LinearRelation(2, np.zeros((4, 0), dtype=complex))
        t = LinearRelation.graph(cgauss(rng, 2, 2))
        for a, b in ((zero, t), (t, zero), (zero, zero)):
            out = relations.intersect(a, b)
            assert out.basis.shape == (4, 0) and out.basis.dtype == np.complex128
        assert relations.contains(zero, t) and relations.contains(zero, zero)
        assert not relations.contains(t, zero)

    def test_operator_sum_with_zero_relation_keeps_mul(self):
        zero = LinearRelation(1, np.zeros((2, 0), dtype=complex))
        out = relations.operator_sum(LinearRelation.pure_mul(1), zero)
        assert out.distance(LinearRelation.pure_mul(1)) <= 1e-14
        # a graph meets the zero relation only at the origin
        out2 = relations.operator_sum(LinearRelation.graph(np.eye(1)), zero)
        assert out2.dim == 0


class TestSymmetricCore:
    def test_uniform_family_trivial_core(self):
        p = pairs.canonical_pair(scalar_family(lambda z: z))
        assert relations.symmetric_core(p, 1j).dim == 0

    def test_pinned_core_every_point(self, rng):
        p = pairs.canonical_pair(DIAG_Z3())
        target = LinearRelation.from_span(np.array([[0.0], [1.0], [0.0], [3.0]]))
        for z in [1j] + random_upper(rng, 4):
            core = relations.symmetric_core(p, z)
            assert core.dim == 1
            assert core.distance(target) <= 1e-8

    def test_core_equals_intersection_with_adjoint(self, rng):
        p = pairs.canonical_pair(DIAG_Z3())
        for z in random_upper(rng, 3):
            core = relations.symmetric_core(p, z)
            t = relations.from_pair_at(p, z)
            other = relations.intersect(t, relations.adjoint(t))
            assert core.distance(other) <= 1e-8

    def test_block_family_with_mul_direction(self, rng):
        p = pairs.pair_direct_sum(
            pairs.canonical_pair(DIAG_Z3()),
            pairs.PairEvaluator.constant(np.zeros((1, 1)), np.eye(1)),
        )
        pinned = np.zeros((6, 1)); pinned[1, 0] = 1.0; pinned[4, 0] = 3.0
        mul_dir = np.zeros((6, 1)); mul_dir[5, 0] = 1.0
        for z in [0.3 + 0.9j] + random_upper(rng, 2):
            core = relations.symmetric_core(p, z)
            assert core.dim == 2
            assert relations.contains(LinearRelation.from_span(pinned), core)
            assert relations.contains(LinearRelation.from_span(mul_dir), core)

    def test_symmetric_subrelation_propagates(self, rng):
        # a symmetric piece of the graph at one point sits inside all of them
        p = pairs.canonical_pair(DIAG_Z3())
        s = relations.symmetric_core(p, 0.7 + 0.4j)
        assert relations.is_symmetric(s)
        for z in herglotz.default_grid():
            assert relations.contains(s, relations.from_pair_at(p, z))

    def test_lower_half_plane_rejected(self):
        p = pairs.canonical_pair(scalar_family(lambda z: z))
        with pytest.raises(ValueError):
            relations.symmetric_core(p, -1j)


class TestCritConsistency:
    def test_snapshots_maximal_dissipative(self, rng):
        candidates = [
            pairs.canonical_pair(FamilyEvaluator.from_rep(random_rep(rng, 3))),
            mul_pair(rng, 3),
            pairs.transform(
                pairs.canonical_pair(FamilyEvaluator.from_rep(random_rep(rng, 2))),
                pairs.JUnitary.flip(2),
            ),
        ]
        for p in candidates:
            assert pairs.validate(p).passed
            for z in random_upper(rng, 4):
                t = relations.from_pair_at(p, z)
                assert relations.is_maximal_dissipative(t)
                assert relations.is_maximal_accumulative(
                    relations.from_pair_at(p, np.conj(z))
                )
