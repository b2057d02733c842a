import ast
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cgauss
from nevlab import matnum
from nevlab.matnum import TolerancePolicy


def test_imag_part_scalar():
    np.testing.assert_allclose(matnum.imag_part([[1j]]), [[1.0]])


def test_imag_part_diagonal():
    out = matnum.imag_part([[1 + 2j, 0], [0, 3]])
    np.testing.assert_allclose(out, [[2.0, 0.0], [0.0, 0.0]])


def test_imag_part_reconstructs(rng):
    t = cgauss(rng, 4, 4)
    re, im = matnum.herm_part(t), matnum.imag_part(t)
    assert matnum.spectral_norm(im - im.conj().T) == 0.0
    resid = matnum.spectral_norm(t - (re + 1j * im))
    assert resid <= 4 * np.finfo(float).eps * matnum.spectral_norm(t)


def test_imag_part_rejects_nonsquare():
    with pytest.raises(matnum.MatrixShapeError):
        matnum.imag_part(np.zeros((2, 3)))


def test_is_psd_identity():
    ok, lam = matnum.is_psd(np.eye(3))
    assert ok and lam == pytest.approx(1.0)


def test_is_psd_boundary():
    ok, lam = matnum.is_psd(np.diag([1.0, 0.0]))
    assert ok and abs(lam) < 1e-15


def test_is_psd_definite_violation():
    ok, lam = matnum.is_psd(np.diag([1.0, -1e-3]))
    assert not ok and lam == pytest.approx(-1e-3)


def test_is_psd_rejects_nonhermitian():
    with pytest.raises(matnum.HermitianityError):
        matnum.is_psd([[0.0, 1.0], [0.0, 0.0]])


def test_gram_matrices_are_psd(rng):
    for _ in range(1000):
        m = cgauss(rng, 3, 3)
        ok, _ = matnum.is_psd(m.conj().T @ m)
        assert ok


def test_null_space_zero_matrix():
    u = matnum.null_space(np.zeros((2, 2)))
    assert u.shape == (2, 2)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)


def test_null_space_identity():
    assert matnum.null_space(np.eye(3)).shape == (3, 0)


def test_null_space_rank_one():
    u = matnum.null_space([[1.0, 1.0], [1.0, 1.0]])
    assert u.shape == (2, 1)
    target = np.array([1.0, -1.0]) / np.sqrt(2)
    assert abs(abs(target.conj() @ u[:, 0]) - 1.0) < 1e-12


def test_null_space_orthonormal(rng):
    for _ in range(50):
        a = cgauss(rng, 4, 6)
        a[:, 3:] = a[:, :3] @ cgauss(rng, 3, 3)  # force rank deficiency
        u = matnum.null_space(a)
        assert u.shape[1] >= 1
        gram = u.conj().T @ u
        assert matnum.spectral_norm(gram - np.eye(u.shape[1])) <= 1e-12
        assert matnum.spectral_norm(a @ u) <= 1e-7 * max(1, matnum.spectral_norm(a))


def test_subspace_distance_examples():
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    mid = np.array([[1.0], [1.0]]) / np.sqrt(2)
    assert matnum.subspace_distance(e1, e1) == 0.0
    assert matnum.subspace_distance(e1, e2) == pytest.approx(1.0)
    assert matnum.subspace_distance(e1, mid) == pytest.approx(np.sin(np.pi / 4))


def test_subspace_distance_dim_mismatch_sentinel():
    u = np.eye(3)[:, :1]
    v = np.eye(3)[:, :2]
    assert matnum.subspace_distance(u, v) == 1.0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_subspace_distance_unitary_invariance(seed):
    gen = np.random.default_rng(seed)
    u, _ = np.linalg.qr(cgauss(gen, 5, 2))
    v, _ = np.linalg.qr(cgauss(gen, 5, 2))
    q, _ = np.linalg.qr(cgauss(gen, 2, 2))
    d1 = matnum.subspace_distance(u, v)
    d2 = matnum.subspace_distance(u @ q, v)
    assert d1 == pytest.approx(d2, abs=1e-10)
    assert matnum.subspace_distance(u, u @ q) <= 1e-10
    assert d1 == pytest.approx(matnum.subspace_distance(v, u), abs=1e-12)


def test_solve_identity(rng):
    b = cgauss(rng, 3, 2)
    x, rc = matnum.solve(np.eye(3), b)
    np.testing.assert_allclose(x, b)
    assert rc == pytest.approx(1.0)


def test_solve_rejects_ill_conditioned():
    with pytest.raises(matnum.ConditioningError):
        matnum.solve(np.diag([1.0, 1e-15]), np.eye(2))


RCOND_MIN = 1e-12  # the pair guard's threshold: pairs.RCOND_MIN


def _planted(rng, n: int, rcond: float) -> np.ndarray:
    """U diag(s) V* with s from 1 down to rcond: rcond_2 is rcond."""
    u, _ = np.linalg.qr(cgauss(rng, n, n))
    v, _ = np.linalg.qr(cgauss(rng, n, n))
    s = np.concatenate([[1.0], np.sort(rng.uniform(0.3, 1.0, n - 2))[::-1], [rcond]])
    return (u * s) @ v.conj().T


def _decision(fn, a):
    """(value, None) or (None, the ConditioningError text)."""
    try:
        return fn(a), None
    except matnum.ConditioningError as exc:
        return None, str(exc)


# rcond just above and just below the threshold, far above it, and between it and the
# Frobenius bound's factor, which only the SVD decides
PLANTED_RCONDS = (1.01 * RCOND_MIN, 0.99 * RCOND_MIN, 1e-2, 3.0 * RCOND_MIN, 0.5 * RCOND_MIN)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5),
       picks=st.lists(st.sampled_from(PLANTED_RCONDS), min_size=1, max_size=6))
def test_inverse_decides_planted_stacks_as_the_svd_guard(seed, n, picks):
    rng = np.random.default_rng(seed)
    stack = np.stack([_planted(rng, n, rc) for rc in picks])
    svd_guard = lambda a: matnum.solve(a, np.broadcast_to(np.eye(n), a.shape), RCOND_MIN)[0]
    for a in (stack, *stack):  # the stack names its first failing matrix
        got, got_err = _decision(lambda m: matnum.inverse(m, RCOND_MIN), a)
        want, want_err = _decision(svd_guard, a if a.ndim == 3 else a[None])
        assert got_err == want_err
        if want_err is None:
            assert np.array_equal(got, want if a.ndim == 3 else want[0])
    fails = [rc < RCOND_MIN for rc in picks]
    assert (_decision(lambda m: matnum.inverse(m, RCOND_MIN), stack)[1] is None) == (not any(fails))


def test_inverse_skips_the_svd_when_the_bound_certifies(rng, monkeypatch):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    good = np.stack([_planted(rng, 4, 1e-3) for _ in range(3)])
    matnum.inverse(good, RCOND_MIN)
    assert calls == []
    with pytest.raises(matnum.ConditioningError):
        matnum.inverse(np.concatenate([good, _planted(rng, 4, 0.99 * RCOND_MIN)[None]]),
                       RCOND_MIN)
    assert calls == [1]


@pytest.mark.parametrize("singular", [np.zeros((3, 3)), np.ones((3, 3)), np.diag([1.0, 0.0, 2.0])])
def test_exactly_singular_inverse_is_a_conditioning_error(singular):
    """LAPACK's bare LinAlgError never escapes: the SVD guard names the matrix."""
    with pytest.raises(matnum.ConditioningError, match="solve rejected: reciprocal condition"):
        matnum.inverse(singular)
    with pytest.raises(matnum.ConditioningError, match="condition 0.000e"):
        matnum.inverse(np.stack([np.eye(3), singular, np.eye(3)]))
    for a in (singular, np.stack([np.eye(3), singular])):  # solve(A, I)'s error, word for word
        eye = np.broadcast_to(np.eye(3), a.shape)
        assert _decision(matnum.inverse, a)[1] == _decision(lambda m: matnum.solve(m, eye), a)[1]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), count=st.integers(1, 8))
def test_inverse_is_numpy_solve_against_the_identity_bit_for_bit(seed, n, count):
    """inv is zgesv with B = I: the values of np.linalg.solve(A, I), for a stack and each matrix."""
    stack = cgauss(np.random.default_rng(seed), count, n, n)
    want = np.linalg.solve(stack, np.broadcast_to(np.eye(n, dtype=np.complex128), stack.shape))
    assert matnum.inverse(stack).tobytes() == want.tobytes()
    for a, x in zip(stack, want):
        assert matnum.inverse(a).tobytes() == x.tobytes()


def test_a_zero_by_zero_matrix_is_invertible_and_solves_to_the_empty_solution():
    from nevlab import relations

    empty = np.zeros((0, 0))
    assert matnum.definitely_invertible(empty) and matnum.rcond(empty) == 1.0
    assert matnum.rcond(np.zeros((2, 0, 0))).tolist() == [1.0, 1.0]
    assert matnum.inverse(empty).shape == (0, 0)
    assert matnum.inverse(np.zeros((2, 0, 0))).shape == (2, 0, 0)
    x, rc = matnum.solve(empty, np.zeros((0, 3)))
    assert x.shape == (0, 3) and rc == 1.0
    point = relations.LinearRelation(0, np.zeros((0, 0), dtype=np.complex128))
    assert relations.resolvent_at(point, 1j).shape == (0, 0)


# -- Hermitian decisions: the certified gate and the norm read from eigenvalues


def _raises_hermitianity(fn, *args) -> bool:
    try:
        fn(*args)
    except matnum.HermitianityError as exc:
        assert str(exc).startswith("matrix is not Hermitian within eps_eq=")
        return True
    return False


def _skewed(rng, n: int, amount: float) -> np.ndarray:
    """A Hermitian matrix plus amount times a skew-Hermitian one, at a scale over six decades."""
    h, k = cgauss(rng, n, n), cgauss(rng, n, n)
    return 10.0 ** rng.uniform(-3.0, 3.0) * ((h + h.conj().T) + amount * (k - k.conj().T))


HERMITIAN_PRIMITIVES = (matnum.is_psd, matnum.eig_hermitian, matnum.hermitian_kernels,
                        matnum.as_hermitian)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), side=st.sampled_from([-1, 1]),
       amounts=st.lists(st.sampled_from([0.0, 1e-15, 1e-9, 1e-4]), min_size=1, max_size=5))
def test_hermitian_gate_decides_planted_residuals_as_the_svd_rule(seed, n, side, amounts):
    """eps_eq planted at (1 + side 1e-6) times the largest residual, where the SVD rule decides."""
    rng = np.random.default_rng(seed)
    stack = np.stack([_skewed(rng, n, amount) for amount in amounts])
    residuals = matnum.hermitian_residual(stack)
    worst = float(residuals.max())
    if worst == 0.0:  # no threshold to plant: an exactly Hermitian stack passes
        assert not any(_raises_hermitianity(fn, stack) for fn in HERMITIAN_PRIMITIVES)
        return
    tol = TolerancePolicy(eps_eq=worst * (1.0 + side * 1e-6))
    for fn in HERMITIAN_PRIMITIVES:
        assert _raises_hermitianity(fn, stack, tol) == (side < 0)
        for one, residual in zip(stack, residuals):
            assert _raises_hermitianity(fn, one, tol) == (residual > tol.eps_eq)


def test_hermitian_gate_takes_no_svd_on_a_hermitian_stack(rng, monkeypatch):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    stack = np.stack([_skewed(rng, 5, amount) for amount in (0.0, 1e-15, 0.0)])
    for fn in HERMITIAN_PRIMITIVES:
        fn(stack)
    assert calls == []
    assert _raises_hermitianity(matnum.is_psd, np.stack([stack[0], _skewed(rng, 5, 1e-4)]))
    assert calls == [1, 1]  # the exact rule: two norms of the one uncertified matrix


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
def test_hermitian_gate_is_scale_free(scale):
    """Entries near under- or overflow certify nothing the exact rule would reject."""
    skew = scale * np.array([[0.0, 1.0], [0.0, 0.0]])
    assert _raises_hermitianity(matnum.is_psd, skew)
    assert matnum.is_psd(scale * np.eye(2)) == (True, scale)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), side=st.sampled_from([-1, 1]),
       eps_psd=st.sampled_from([1e-3, 1e-6]))
def test_psd_scale_from_eigenvalues_decides_planted_margins_as_the_svd_norm(seed, n, side, eps_psd):
    """lambda_min planted at -eps_psd (1 + ||H||) (1 + side 1e-6).

    ||H|| read as max |lambda| decides as ||H|| read as sigma_max does.
    """
    rng = np.random.default_rng(seed)
    tol = TolerancePolicy(eps_psd=eps_psd)
    norm = 10.0 ** rng.uniform(0.0, 3.0)
    lam = np.concatenate([[-eps_psd * (1.0 + norm) * (1.0 + side * 1e-6)],
                          rng.uniform(0.0, norm, n - 2), [norm]])
    u, _ = np.linalg.qr(cgauss(rng, n, n))
    h = matnum.herm_part((u * lam) @ u.conj().T)
    stack = np.stack([h, h[::-1, ::-1], np.eye(n)])
    oks, lams = matnum.is_psd(stack, tol)
    svd_rule = (lams >= -tol.eps_psd * (1.0 + matnum.spectral_norm(stack))).tolist()
    assert oks == svd_rule == [side < 0, side < 0, True]
    assert matnum.is_psd(h, tol) == (oks[0], lams[0])


def test_hermitian_kernels_equal_null_space_and_eigvalsh(rng):
    n = 5
    u, _ = np.linalg.qr(cgauss(rng, n, n))
    mats = [(u[:, :k] * rng.uniform(0.5, 2.0, k)) @ u[:, :k].conj().T for k in range(n + 1)]
    mats += [np.zeros((n, n)), -mats[3], mats[2]]  # the zero matrix, a negative one, a repeat
    stack = np.stack(mats)
    bases, lams = matnum.hermitian_kernels(stack)
    want = matnum.null_space(stack)
    widths = [n - k for k in range(n + 1)] + [n, 2, 3]
    assert [b.shape for b in bases] == [w.shape for w in want] == [(n, k) for k in widths]
    for b, w in zip(bases, want):
        assert matnum.subspace_distance(b, w) <= 1e-12
    np.testing.assert_allclose(lams, np.linalg.eigvalsh(stack)[:, 0], rtol=0, atol=1e-14)
    assert np.array_equal(bases[-1], bases[2]) and lams[-1] == lams[2]
    bases[-1][...] = 0.0  # a repeat hands out a basis of its own
    assert not np.array_equal(bases[-1], bases[2])
    one, lam = matnum.hermitian_kernels(stack[3])
    assert np.array_equal(one, bases[3]) and lam == lams[3]
    empty, lam0 = matnum.hermitian_kernels(np.zeros((2, 0, 0)))
    assert [b.shape for b in empty] == [(0, 0), (0, 0)] and lam0.tolist() == [0.0, 0.0]


def _ranked(rng, rows: int, cols: int, rank: int, scale: float) -> np.ndarray:
    """U diag(s) V*, rows x cols, with min(rank, rows, cols) values s in scale * [0.5, 2]."""
    k = min(rank, rows, cols)
    u, _ = np.linalg.qr(cgauss(rng, rows, rows))
    v, _ = np.linalg.qr(cgauss(rng, cols, cols))
    return (u[:, :k] * (scale * rng.uniform(0.5, 2.0, k))) @ v[:, :k].conj().T


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(0, 4), cols=st.integers(0, 4),
       ranks=st.lists(st.integers(0, 4), min_size=0, max_size=4))
def test_rank_from_singular_values_is_rank_and_the_basis_widths(seed, rows, cols, ranks):
    """Zero, rank-deficient, empty and single stacks: one count behind every rank decision."""
    rng = np.random.default_rng(seed)
    stack = np.zeros((len(ranks), rows, cols), dtype=np.complex128)
    for k, r in enumerate(ranks):
        stack[k] = _ranked(rng, rows, cols, r, 10.0 ** rng.uniform(-3.0, 3.0))
    got = matnum.rank_from(matnum.singular_values(stack))
    assert got == matnum.rank(stack)
    assert got == [cols - b.shape[1] for b in matnum.null_space(stack)]
    assert got == [b.shape[1] for b in matnum.range_space(stack)]
    assert got == [min(r, rows, cols) for r in ranks]
    for one, want in zip(stack, got):
        assert matnum.rank_from(matnum.singular_values(one)) == matnum.rank(one) == want


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 5),
       ranks=st.lists(st.integers(0, 5), min_size=0, max_size=4))
def test_rank_from_hermitian_eigenvalues_is_the_hermitian_kernel_widths(seed, n, ranks):
    """Indefinite Hermitian matrices of planted rank: rank_from counts what the kernel omits."""
    rng = np.random.default_rng(seed)
    stack = np.zeros((len(ranks), n, n), dtype=np.complex128)
    for k, r in enumerate(ranks):
        u, _ = np.linalg.qr(cgauss(rng, n, n))
        lam = rng.choice([-1.0, 1.0], min(r, n)) * rng.uniform(0.5, 2.0, min(r, n))
        stack[k] = matnum.herm_part((u[:, :len(lam)] * lam) @ u[:, :len(lam)].conj().T)
    lams, _ = matnum.eig_hermitian(stack)
    bases, _ = matnum.hermitian_kernels(stack)
    got = matnum.rank_from(lams)
    assert got == [n - b.shape[1] for b in bases] == [min(r, n) for r in ranks]
    assert got == [matnum.rank_from(matnum.eig_hermitian(one)[0]) for one in stack]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 5), count=st.integers(0, 4),
       sides=st.lists(st.sampled_from([-1, 0, 1]), min_size=4, max_size=4))
def test_psd_from_is_is_psd(seed, n, count, sides):
    """lambda_min planted on both sides of the floor, or far from it; stacks of 0 to 4."""
    rng = np.random.default_rng(seed)
    tol = TolerancePolicy()
    stack = np.zeros((count, n, n), dtype=np.complex128)
    for k in range(count):
        if n:
            norm = 10.0 ** rng.uniform(-2.0, 2.0)
            lam = np.concatenate([rng.uniform(0.0, norm, n - 1), [norm]])
            lam[0] = -tol.eps_psd * (1.0 + norm) * (1.0 + sides[k] * 1e-6) if sides[k] else lam[0]
            u, _ = np.linalg.qr(cgauss(rng, n, n))
            stack[k] = matnum.herm_part((u * lam) @ u.conj().T)
    oks, lam_mins = matnum.psd_from(matnum.herm_part_eig(stack), tol)
    want_oks, want_mins = matnum.is_psd(stack, tol)
    assert oks == want_oks and lam_mins.tobytes() == want_mins.tobytes()
    for one in stack:
        assert matnum.psd_from(matnum.herm_part_eig(one), tol) == matnum.is_psd(one, tol)
    assert matnum.psd_from(np.zeros(0), tol) == matnum.is_psd(np.zeros((0, 0)), tol) == (True, 0.0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), side=st.sampled_from([-1, 1]))
def test_psd_from_flips_at_a_planted_eps_psd(seed, n, side):
    """eps_psd planted at -lambda_min / (1 + max |lambda|) (1 + side 1e-6): PSD exactly above it."""
    rng = np.random.default_rng(seed)
    lams = np.sort(np.concatenate([[-10.0 ** rng.uniform(-6.0, -2.0)],
                                   rng.uniform(-1e-3, 10.0, n - 1)]))
    eps_psd = -lams[0] / (1.0 + np.abs(lams).max()) * (1.0 + side * 1e-6)
    assert matnum.psd_from(lams, TolerancePolicy(eps_psd=eps_psd)) == (side > 0, lams[0])


def test_hermitian_kernels_decompose_each_distinct_matrix_once(rng, monkeypatch):
    seen = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *r, **k: seen.append(len(a)) or eigh(a))
    h = _skewed(rng, 4, 0.0)
    matnum.hermitian_kernels(np.stack([h, -h, h, h.copy(), -h]))
    assert seen == [2]


def test_herm_part_eig_takes_no_hermitian_gate(rng):
    """Eigen-data of herm_part(x), bit for bit, where the gated primitives raise."""
    x = _skewed(rng, 5, 1e-6)
    assert 1e-7 < matnum.hermitian_residual(x) < 1e-5
    h = matnum.herm_part(x)
    assert matnum.herm_part_eig(x).tobytes() == np.linalg.eigvalsh(h).tobytes()
    for got, want in zip(matnum.herm_part_eig(x, vectors=True), np.linalg.eigh(h)):
        assert got.tobytes() == want.tobytes()
    stack = np.stack([x, x.T, x])
    want = np.linalg.eigvalsh(matnum.herm_part(stack))
    assert matnum.herm_part_eig(stack).tobytes() == want.tobytes()
    for fn in HERMITIAN_PRIMITIVES:
        assert _raises_hermitianity(fn, x)


def test_inverse_singular_values_are_those_of_the_inverse(rng):
    for n in (1, 3, 8):
        a = _planted(rng, n, 1e-6) if n > 1 else np.array([[2.0 + 1j]])
        got = matnum.inverse_singular_values(a)
        np.testing.assert_allclose(got, matnum.singular_values(matnum.inverse(a)), rtol=1e-9)
        assert np.all(np.diff(got) <= 0.0)
    assert matnum.inverse_singular_values(np.zeros((0, 0))).shape == (0,)


@pytest.mark.parametrize("rcond", [0.99 * RCOND_MIN, 0.0])
def test_inverse_singular_values_guard_as_solve_does(rng, rcond):
    a = _planted(rng, 6, rcond)
    with pytest.raises(matnum.ConditioningError) as solved:
        matnum.solve(a, np.eye(6), RCOND_MIN)
    with pytest.raises(matnum.ConditioningError) as got:
        matnum.inverse_singular_values(a, RCOND_MIN)
    assert str(got.value) == str(solved.value)
    assert matnum.inverse_singular_values(_planted(rng, 6, 1.01 * RCOND_MIN), RCOND_MIN)[0] > 0


def test_spectral_norm_is_numpy_2_norm(rng):
    stack = cgauss(rng, 6, 4, 3)
    assert matnum.spectral_norm(stack).tolist() == np.linalg.norm(stack, 2, axis=(1, 2)).tolist()


def test_singular_values_descending():
    np.testing.assert_allclose(matnum.singular_values(np.diag([3.0, 1.0])), [3.0, 1.0])


def test_eig_hermitian_closed_form():
    w, v = matnum.eig_hermitian([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(w, [-1.0, 1.0])
    np.testing.assert_allclose(v.conj().T @ v, np.eye(2), atol=1e-14)


def test_tolerance_policy_validation():
    with pytest.raises(ValueError):
        TolerancePolicy(eps_psd=0.0)
    with pytest.raises(ValueError):
        TolerancePolicy(eps_rank=1.5)
    t = TolerancePolicy()
    assert (t.eps_psd, t.eps_rank, t.eps_eq) == (1e-10, 1e-8, 1e-9)


def test_no_bare_small_literal_in_a_comparison_outside_matnum():
    """Thresholds below 1e-6 come from the policy or a named constant, not a literal."""
    bare = []
    for path in sorted(Path(matnum.__file__).parent.glob("*.py")):
        if path.name == "matnum.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare):
                bare += [f"{path.name}:{c.lineno} {c.value!r}" for c in ast.walk(node)
                         if isinstance(c, ast.Constant) and isinstance(c.value, float)
                         and 0.0 < abs(c.value) < 1e-6]
    assert bare == []


def test_no_threshold_is_a_keyword_parameter():
    """Verdict slacks are named constants or policy fields, not parameters of public functions."""
    found = []
    for path in sorted(Path(matnum.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                functions += [node for node in cls.body if isinstance(node, ast.FunctionDef)]
        for fn in functions:
            args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
            found += [f"{path.name}:{fn.lineno} {fn.name}({arg.arg})" for arg in args
                      if not fn.name.startswith("_")
                      and (arg.arg in ("rtol", "threshold") or arg.arg.endswith(("_tol", "_rtol")))]
    assert found == []


# Functions outside herglotz.py that may still decide a half-plane themselves, and why.
OWN_POINT_DECISIONS = {
    ("runner.py", "_upper_point"): "document rule: its error line is tested and exits 2",
    ("runner.py", "_grid"): "document rule: its error line is tested and exits 2",
    ("examples.py", "build_interval_family"):
        "its +-i/h^2 is a Python complex: numpy's complex division rounds otherwise",
}


def _decides_points(node) -> bool:
    """Whether node compares .imag with 0, builds sign(.imag), or filters a comprehension by .imag."""
    def imag(n):
        return any(isinstance(m, ast.Attribute) and m.attr == "imag" for m in ast.walk(n))

    if isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
        return (any(isinstance(o, ast.Attribute) and o.attr == "imag" for o in operands)
                and any(isinstance(o, ast.Constant) and type(o.value) in (int, float)
                        and o.value == 0 for o in operands))
    if isinstance(node, ast.Call):
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        return name == "sign" and any(imag(arg) for arg in node.args)
    return isinstance(node, ast.comprehension) and any(imag(cond) for cond in node.ifs)


def test_points_are_decided_in_herglotz_only():
    """Grid filters, half-plane guards and sign arrays live in herglotz's point gate."""
    found = set()
    for path in sorted(Path(matnum.__file__).parent.glob("*.py")):
        if path.name == "herglotz.py":
            continue
        for top in ast.parse(path.read_text()).body:
            if any(_decides_points(node) for node in ast.walk(top)):
                found.add((path.name, getattr(top, "name", f"line {top.lineno}")))
    assert found == set(OWN_POINT_DECISIONS)


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        matnum.as_matrix([[np.nan, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("entries", [
    [[1.0, 0.0], [0.0, complex(0.0, np.nan)]],
    [[1.0, complex(1.0, np.inf)], [0.0, 1.0]],
    [[1.0, complex(2.0, -np.inf)], [0.0, 1.0]],
    np.array([[1.0, np.inf], [0.0, 1.0]]),
    np.array([[1.0, 0.0], [np.nan, 1.0]], dtype=np.float32),
])
def test_as_matrix_rejects_nonfinite_parts(entries):
    with pytest.raises(ValueError):
        matnum.as_matrix(entries)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", ["real", "imag"])
def test_the_finiteness_screen_rejects_a_planted_entry_anywhere(rng, bad, part):
    stack = cgauss(rng, 3, 2, 2)
    for index in np.ndindex(stack.shape):
        planted = stack.copy()
        getattr(planted, part)[index] = bad
        for a in (planted, planted.swapaxes(-1, -2)):  # the screen, and the entry-by-entry test
            with pytest.raises(ValueError, match="NaN or Inf"):
                matnum._checked(a)


def test_the_finiteness_screen_passes_a_finite_stack_whose_sum_overflows():
    """Entries of +-1e308 sum past the float range: the entry-by-entry test passes them."""
    stack = np.full((3, 4, 4), complex(1e308, -1e308))
    stack[1, 2] = -1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the screen warns of no overflow
        assert matnum._checked(stack) is not None
        assert matnum.as_matrix(stack[0]).tobytes() == stack[0].tobytes()


def _residual_distance(u, v) -> float:
    """The one-pair residual formula, kept as the reference for the batched one."""
    if u.shape[1] == 0:
        return 0.0
    resid = v - u @ (u.conj().T @ v)
    return min(1.0, float(np.linalg.norm(resid, 2)))


def _bases(gen, count, n, k, near=None):
    """count orthonormal (n, k) bases; near a given basis, they differ by small turns."""
    out = []
    for _ in range(count):
        if near is None:
            q, _ = np.linalg.qr(cgauss(gen, n, n))
        else:
            q, _ = np.linalg.qr(near + 1e-9 * cgauss(gen, n, n))
        out.append(q[:, :k])
    return np.array(out).reshape(count, n, k)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.data())
def test_subspace_distances_equal_pairwise_calls(n, data):
    k = data.draw(st.integers(0, n))
    count = data.draw(st.integers(0, 4))
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    near = np.linalg.qr(cgauss(gen, n, n))[0] if data.draw(st.booleans()) else None
    us, vs = _bases(gen, count, n, k, near), _bases(gen, count, n, k, near)
    v = _bases(gen, 1, n, k, near)[0]
    out = matnum.subspace_distances(us, vs)
    assert out.shape == (count,)
    assert list(out) == [matnum.subspace_distance(a, b) for a, b in zip(us, vs)]
    assert list(out) == [_residual_distance(a, b) for a, b in zip(us, vs)]
    # null spaces come as Fortran-ordered views; the layout must not change a bit
    assert list(out) == [_residual_distance(np.asfortranarray(a), b) for a, b in zip(us, vs)]
    assert list(matnum.subspace_distances(us, v)) == [matnum.subspace_distance(a, v) for a in us]
    assert list(matnum.subspace_distances(v, us)) == [matnum.subspace_distance(v, a) for a in us]
    assert list(matnum.subspace_distances(v, us)) == [_residual_distance(v, a) for a in us]
    assert matnum.subspace_distances(v, v[None]).shape == (1,)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
@pytest.mark.parametrize("where", ["us", "vs"])
def test_subspace_distances_reject_nonfinite(bad, where):
    stacks = {"us": np.stack([np.eye(3)[:, :2]] * 4).astype(complex),
              "vs": np.eye(3)[:, :2].astype(complex)}
    stacks[where] = stacks[where].copy()
    stacks[where][..., 1, 0] = bad
    with pytest.raises(ValueError):
        matnum.subspace_distances(stacks["us"], stacks["vs"])


@pytest.mark.parametrize("us, vs", [
    (np.zeros((4, 3, 2)), np.zeros((3, 1))),  # different dimensions
    (np.zeros((4, 3, 2)), np.zeros((2, 2))),  # different ambient spaces
    (np.zeros(3), np.zeros(3)),  # not bases
])
def test_subspace_distances_reject_mismatched_bases(us, vs):
    with pytest.raises(matnum.MatrixShapeError):
        matnum.subspace_distances(us, vs)


# -- the one decomposition site: _lapack

_NUMPY_KINDS = {
    "svdvals": ("svd", lambda a: np.linalg.svd(a, compute_uv=False)),
    "svd": ("svd", np.linalg.svd),
    "svd_thin": ("svd", lambda a: np.linalg.svd(a, full_matrices=False)),
    "eigvalsh": ("eigvalsh", np.linalg.eigvalsh),
    "eigh": ("eigh", np.linalg.eigh),
}


def _results(out) -> tuple:
    return tuple(out) if isinstance(out, tuple) else (out,)


def _lapack_calls(monkeypatch, kind: str) -> list:
    """The arrays handed to kind's numpy routine."""
    name = _NUMPY_KINDS[kind][0]
    routine, seen = getattr(np.linalg, name), []
    monkeypatch.setattr(np.linalg, name, lambda a, *r, **k: seen.append(a) or routine(a, *r, **k))
    return seen


def _smaller(kind: str, a: np.ndarray) -> np.ndarray:
    """The matrix _lapack decomposes for a: A* for a full SVD of a square A with smaller bytes."""
    flip = kind == "svd" and a.shape[0] == a.shape[1] and np.signbit(a[0, 0].imag)
    return a.conj().T if flip else a


def _own_call(kind: str, a: np.ndarray) -> tuple:
    """numpy's kind of one matrix, a full SVD read back from A* = U s Vh as (Vh*, s, U*)."""
    b = _smaller(kind, a)
    out = _results(_NUMPY_KINDS[kind][1](b))
    return out if b is a else (out[2].conj().T, out[1], out[0].conj().T)


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(sorted(_NUMPY_KINDS)), seed=st.integers(0, 2**32 - 1),
       rows=st.integers(1, 4), cols=st.integers(1, 4),
       picks=st.lists(st.integers(0, 5), min_size=1, max_size=6))
def test_lapack_equals_one_numpy_call_per_matrix(kind, seed, rows, cols, picks):
    """Planted exact repeats decompose once and get the bits of a call of their own.

    Matrix 1 is matrix 0 with its zero entries negated: bytes apart, so never merged.
    Matrices 4 and 5 are the adjoints of 2 and 1 where the shape allows, so a
    full SVD decomposes each of those pairs once, as its smaller-bytes member.
    """
    cols = rows if kind.startswith("eig") else cols
    rng = np.random.default_rng(seed)
    pool = cgauss(rng, 6, rows, cols)
    pool[0, 0] = 0.0
    pool[1] = np.where(pool[0] == 0.0, -pool[0], pool[0])
    if rows == cols:
        pool[4], pool[5] = pool[2].conj().T, pool[1].conj().T
    stack = pool[picks]
    with pytest.MonkeyPatch.context() as patch:
        seen = _lapack_calls(patch, kind)
        got = _results(matnum._lapack(kind, stack))
    distinct = len({_smaller(kind, a).tobytes() for a in stack})
    assert [len(a) for a in seen] == [distinct]
    if all(_smaller(kind, a) is a for a in stack):
        assert distinct < len(stack) or seen[0] is stack
    for j, a in enumerate(stack):
        want = _own_call(kind, a)
        assert [r[j].tobytes() for r in got] == [w.tobytes() for w in want]
        assert [(r.shape[1:], r.dtype) for r in got] == [(w.shape, w.dtype) for w in want]


def test_lapack_takes_one_svd_of_a_matrix_and_its_adjoint(rng, monkeypatch):
    """[A, A*] is one numpy call of one matrix; A* alone gets the bits it gets beside A."""
    a = cgauss(rng, 3, 3)
    for b in (a, a.conj().T):  # each sign of Im A[0, 0] leads once
        seen = _lapack_calls(monkeypatch, "svd")
        pair = matnum._lapack("svd", np.stack([b, b.conj().T]))
        alone = [matnum._lapack("svd", x[None]) for x in (b, b.conj().T)]
        monkeypatch.undo()
        assert [len(x) for x in seen] == [1, 1, 1]
        assert [x.tobytes() for x in seen[1:]] == [seen[0].tobytes()] * 2
        for j in range(2):
            assert [r[j].tobytes() for r in pair] == [r[0].tobytes() for r in alone[j]]
        u, s, vh = pair
        assert np.allclose((u[1] * s[1]) @ vh[1], b.conj().T, atol=1e-13)


def test_lapack_confirms_each_hash_hit_by_bytes(rng, monkeypatch):
    """Matrices with one word hash but different bytes are decomposed each on its own.

    The hash weighs word i of a matrix by 2i + 1, so adding 3 to word 0 and
    taking 1 from word 1 keeps it, and so does flipping an even number of signs.
    """
    a = cgauss(rng, 2, 2)
    b = a.copy()
    b.reshape(-1).view(np.uint64)[:2] += np.array([3, -1]).astype(np.uint64)
    stack = np.stack([a, b, -a, a, -a, b])
    seen = _lapack_calls(monkeypatch, "svdvals")
    got = matnum._lapack("svdvals", stack)
    assert [len(x) for x in seen] == [3]
    assert [s.tobytes() for s in got] == \
        [np.linalg.svd(x, compute_uv=False).tobytes() for x in stack]


@pytest.mark.parametrize("kind, shape", [
    (kind, shape) for kind in sorted(_NUMPY_KINDS)
    for shape in [(3, 0, 2), (3, 2, 0), (3, 0, 0), (1, 0, 3), (0, 2, 2)]
    if shape[1] == shape[2] or not kind.startswith("eig")  # an eigensolve takes square ones
])
def test_lapack_builds_numpy_2_empty_results(monkeypatch, kind, shape):
    stack = np.zeros(shape, dtype=np.complex128)
    seen = _lapack_calls(monkeypatch, kind)
    got = _results(matnum._lapack(kind, stack))
    monkeypatch.undo()
    assert seen == []
    want = _results(_NUMPY_KINDS[kind][1](stack))
    assert [(r.shape, r.dtype, r.tobytes()) for r in got] == \
        [(w.shape, w.dtype, w.tobytes()) for w in want]


_DECOMPOSITIONS = {"svd", "eig", "eigh", "eigvals", "eigvalsh", "qr", "cholesky", "lstsq",
                   "pinv", "inv", "det"}
_LINALG_SITES = {**{name: {("matnum.py", "_lapack")} for name in _DECOMPOSITIONS},
                 "solve": {("matnum.py", "solve")},
                 "inv": {("matnum.py", "_lapack"), ("matnum.py", "inverse")}}
_LINALG_ANYWHERE = {("numpy", "norm"), ("numpy", "LinAlgError"), ("scipy", "expm")}


def _linalg_uses(tree):
    """(top-level definition, library, name) of each numpy.linalg or scipy.linalg use."""
    libs = {"np": "numpy", "numpy": "numpy", "scipy": "scipy"}
    for top in tree.body:
        owner = getattr(top, "name", f"line {top.lineno}")
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "linalg" and isinstance(node.value.value, ast.Name)):
                yield owner, libs.get(node.value.value.id, node.value.value.id), node.attr
            elif isinstance(node, ast.ImportFrom) and "linalg" in (node.module or ""):
                yield from ((owner, node.module.split(".")[0], a.name) for a in node.names)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                yield from ((owner, "import", a.name) for a in node.names if "linalg" in a.name)


def test_decompositions_run_in_one_matnum_entry():
    """numpy's SVD and eigensolves are called in matnum._lapack only; solve in matnum.solve and
    inv in matnum.inverse."""
    found, entry = [], set()
    for path in sorted(Path(matnum.__file__).parent.glob("*.py")):
        for owner, lib, name in _linalg_uses(ast.parse(path.read_text())):
            if (path.name, owner) == ("matnum.py", "_lapack"):
                entry.add(name)
            allowed = _LINALG_SITES.get(name, set()) if lib == "numpy" else set()
            if (lib, name) not in _LINALG_ANYWHERE and (path.name, owner) not in allowed:
                found.append(f"{path.name}:{owner} {lib} {name}")
    assert found == []
    assert {"svd", "eigh", "eigvalsh"} <= entry  # the walk sees the entry's own calls


# Functions that read eps_psd: the PSD floor, the uniform threshold, and a form's sign check.
EPS_PSD_READERS = {("matnum.py", "psd_from"), ("herglotz.py", "strictness")}


def _functions(tree):
    """(name, node) of each function, at top level or in a class."""
    for top in tree.body:
        for node in [top] + (top.body if isinstance(top, ast.ClassDef) else []):
            if isinstance(node, ast.FunctionDef):
                yield node.name, node


def test_rank_and_psd_decisions_stay_in_matnum():
    """No eps_rank cutoff is formed outside matnum; eps_psd is read by two functions only.

    Comparisons such as d <= tol.eps_rank stay allowed: a distance is not a rank.
    """
    scaled, readers = [], set()
    for path in sorted(Path(matnum.__file__).parent.glob("*.py")):
        for name, fn in _functions(ast.parse(path.read_text())):
            for node in ast.walk(fn):
                if isinstance(node, ast.Attribute) and node.attr == "eps_psd":
                    readers.add((path.name, name))
                if (path.name != "matnum.py" and isinstance(node, ast.BinOp)
                        and isinstance(node.op, ast.Mult)
                        and any(isinstance(o, ast.Attribute) and o.attr == "eps_rank"
                                for o in (node.left, node.right))):
                    scaled.append(f"{path.name}:{node.lineno} {name}")
    assert scaled == []
    assert readers == EPS_PSD_READERS


# The functions of matnum that compare against a tolerance or cutoff constant times a
# scale, and why; every other rank or PSD decision there reads one of them.
RELATIVE_CUTOFFS = {
    "_kept": "the rank cutoff: |v| > eps_rank max |v|",
    "psd_from": "the PSD floor: lambda_min >= -eps_psd (1 + max |lambda|)",
    "invertible_from": "sigma_min against INVERTIBLE_MIN times an external scale",
    "_hermitian": "the Frobenius screen in front of the exact Hermitian rule",
}


def _is_cutoff(node) -> bool:
    """A policy field (tol.eps_*) or an upper-case module constant, with or without its sign."""
    while isinstance(node, ast.UnaryOp):
        node = node.operand
    return ((isinstance(node, ast.Attribute) and node.attr.startswith("eps_"))
            or (isinstance(node, ast.Name) and node.id.isupper()))


def _relative_cutoff(node) -> bool:
    """A comparison with an operand holding a product of a tolerance or cutoff constant."""
    return isinstance(node, ast.Compare) and any(
        isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult)
        and (_is_cutoff(n.left) or _is_cutoff(n.right))
        for operand in (node.left, *node.comparators) for n in ast.walk(operand))


def test_relative_cutoffs_in_matnum_are_the_allowlisted_ones():
    """matnum forms no rank or PSD cutoff of its own outside RELATIVE_CUTOFFS."""
    tree = ast.parse(Path(matnum.__file__).read_text())
    found = {name for name, fn in _functions(tree) if any(map(_relative_cutoff, ast.walk(fn)))}
    assert found == set(RELATIVE_CUTOFFS)


def test_orthonormal_complement_cuts_at_1e_12_of_the_largest_singular_value():
    """U's directions with s > 1e-12 s_max span U; the rest, on either side of the cut, do not."""
    rng = np.random.default_rng(7)
    for tail in (0.0, 0.9e-12, 1.1e-12, 1e-6):
        q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        u = q[:, :3] * np.array([1.0, 1.0, tail])
        s = np.linalg.svd(u, compute_uv=False)
        kept = np.count_nonzero(s > 1e-12 * s[0])
        assert matnum.orthonormal_complement(u).shape == (5, 5 - kept)
    assert matnum.orthonormal_complement(np.zeros((3, 0))).shape == (3, 3)


# the Generator methods that draw; a call of one, or of anything under np.random, draws
DRAWS = {name for name in dir(np.random.Generator) if not name.startswith("_")} - {
    "bit_generator", "spawn"}
RANDOM_DRAWERS = {("invariance.py", "default_check_grid"), ("examples.py", "build_ex4a"),
                  ("pairs.py", "JUnitary.random")}


def _draws(node) -> bool:
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    return node.func.attr in DRAWS or "np.random." in ast.unparse(node.func) + "."


def test_random_draws_stay_in_three_builders():
    """No verifier draws a random number: only the check grid's seeded points, the seeded
    Ex4A operator and JUnitary.random do, each from a generator of its own."""
    def name(node, owner=""):
        return owner + getattr(node, "name", f"line {node.lineno}")

    found = set()
    for path in sorted(Path(matnum.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            members = ([(name(m, f"{top.name}."), m) for m in top.body]
                       if isinstance(top, ast.ClassDef) else [(name(top), top)])
            found |= {(path.name, where) for where, node in members
                      if any(_draws(n) for n in ast.walk(node))}
    assert found == RANDOM_DRAWERS


def _is_adjoint(node) -> bool:
    """_adjoint(m), m.conj().T or m.conj().swapaxes(...)."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "_adjoint"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        node, attr = node.func.value, node.func.attr
        if attr != "swapaxes":
            return False
    elif isinstance(node, ast.Attribute) and node.attr == "T":
        node = node.value
    else:
        return False
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "conj")


def _is_adjoint_product(node) -> bool:
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
            and _is_adjoint(node.left))


def _written_in(match) -> list:
    """(module, top-level definition) of each node of the package that ``match`` accepts."""
    found = []
    for path in sorted(Path(matnum.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            found += [(path.name, getattr(top, "name", f"line {top.lineno}"))
                      for node in ast.walk(top) if match(node)]
    return found


def test_the_j_form_is_written_once():
    """A* B - C* D, the J-form of pairs and relations, is written in pairs.boundary_form only."""
    found = _written_in(lambda node: isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                        and _is_adjoint_product(node.left) and _is_adjoint_product(node.right))
    assert found == [("pairs.py", "boundary_form")]


def test_the_adjoint_is_written_once():
    """m.conj().swapaxes(...) appears in matnum._adjoint only, and no other module defines one."""
    def conj_swapaxes(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "swapaxes" and isinstance(node.func.value, ast.Call)
                and isinstance(node.func.value.func, ast.Attribute)
                and node.func.value.func.attr == "conj")

    assert _written_in(conj_swapaxes) == [("matnum.py", "_adjoint")]
    assert _written_in(lambda node: isinstance(node, ast.FunctionDef)
                       and node.name == "_adjoint") == [("matnum.py", "_adjoint")]


def _bounded_slices(target) -> int:
    """How many bounded slices (:m, m:) index an assignment target such as out[:, :m, :m]."""
    if not (isinstance(target, ast.Subscript) and isinstance(target.slice, ast.Tuple)):
        return 0
    return sum(isinstance(e, ast.Slice) and (e.lower or e.upper) is not None
               for e in target.slice.elts)


def test_the_block_diagonal_assembly_is_written_once():
    """Blocks are written into a stack in matnum._block_diag only, and both direct sums call it."""
    def block_write(node):
        return isinstance(node, ast.Assign) and any(
            _bounded_slices(e) >= 2 for t in node.targets
            for e in (t.elts if isinstance(t, ast.Tuple) else [t]))

    assert set(_written_in(block_write)) == {("matnum.py", "_block_diag")}
    assert _written_in(lambda node: isinstance(node, ast.Attribute)
                       and node.attr == "_block_diag") == [
        ("herglotz.py", "family_direct_sum"), ("pairs.py", "pair_direct_sum")]
