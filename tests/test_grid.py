"""Grid evaluation equals point-by-point evaluation, bit for bit.

``FamilyEvaluator.on_grid`` and ``PairEvaluator.on_grid`` evaluate a whole
grid at once, the stacked ``matnum`` primitives take one batched
decomposition per stack, and the verifiers make one grid call each.  These
tests pin all three to the one-point results with ``==``, not a tolerance,
and count the grid calls so that a per-point loop cannot come back quietly.
"""

import sys
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    cgauss,
    mul_pair,
    random_hermitian,
    random_psd,
    random_rep,
    rep_with_common_kernel,
)
from nevlab import examples, herglotz, invariance, matnum, pairs, relations, runner
from nevlab.herglotz import FamilyEvaluator
from nevlab.matnum import TolerancePolicy
from nevlab.pairs import PairEvaluator


def _grid(rng, length: int) -> list[complex]:
    """Random off-axis points with their conjugates, in random order."""
    if length == 1:
        z = complex(rng.uniform(-3, 3), 10.0 ** rng.uniform(-1, 1))
        return [z if rng.uniform() < 0.5 else z.conjugate()]
    upper = [complex(rng.uniform(-3, 3), 10.0 ** rng.uniform(-1, 1)) for _ in range(length // 2)]
    points = upper + [z.conjugate() for z in upper]
    return [points[i] for i in rng.permutation(len(points))]


def _pointwise(rule, dim: int, zs) -> np.ndarray:
    return np.array([rule(z) for z in zs], dtype=complex).reshape(len(zs), dim, dim)


def _families(rng) -> dict:
    rep, other = random_rep(rng, 3, 4), random_rep(rng, 2, 3)
    custom = FamilyEvaluator.from_callable(lambda z: herglotz.evaluate(other, z), 2)
    return {
        "rep": FamilyEvaluator.from_rep(rep),
        "rep-plus-offset": FamilyEvaluator.from_rep_with_offset(rep, random_hermitian(rng, 3)),
        "direct-sum": herglotz.family_direct_sum(FamilyEvaluator.from_rep(other), custom),
        "callable": custom,
    }


def _pairs(rng) -> dict:
    fams = _families(rng)
    base = pairs.canonical_pair(random_rep(rng, 2, 4))
    y = np.diag([1.5, 0.7]) + 0.1 * cgauss(rng, 2, 2)
    chi = np.diag([2.0, 1.0]) + 0.1 * cgauss(rng, 2, 2)
    return {
        "canonical": base,
        "canonical-offset": pairs.canonical_pair(fams["rep-plus-offset"]),
        "canonical-callable": pairs.canonical_pair(fams["callable"]),
        "constant": PairEvaluator.constant(cgauss(rng, 2, 2), cgauss(rng, 2, 2)),
        "direct-sum": mul_pair(rng),
        "shift": pairs.transform(base, pairs.JUnitary.shift(random_hermitian(rng, 2))),
        "scale": pairs.transform(base, pairs.JUnitary.scale(y)),
        "flip": pairs.transform(base, pairs.JUnitary.flip(base.dim)),
        "junitary": pairs.transform(base, pairs.JUnitary.random(2, rng)),
        "herglotz-shift": pairs.herglotz_shift_transform(base, random_rep(rng, 2, 3)),
        "reparametrized": pairs.reparametrized(base, chi),
        "reparametrized-callable": pairs.reparametrized(base, lambda z: chi + z * np.eye(2)),
        "callable": PairEvaluator(2, lambda z: (z * np.eye(2), np.diag([1.0, z * z]))),
    }


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), length=st.sampled_from([0, 1, 40]))
def test_family_on_grid_equals_pointwise(seed, length):
    rng = np.random.default_rng(seed)
    zs = _grid(rng, length)
    for name, family in _families(rng).items():
        stack = family.on_grid(zs)
        assert stack.shape == (length, family.dim, family.dim), name
        assert np.array_equal(stack, _pointwise(family, family.dim, zs)), name


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), length=st.sampled_from([1, 40]))
def test_rep_values_equal_the_scalar_formula(seed, length):
    """The loop over atoms with Python-scalar coefficients is the reference."""
    rng = np.random.default_rng(seed)
    rep = random_rep(rng, 3, 6)
    zs = _grid(rng, length)

    def scalar(z):
        out = rep.b0 + rep.b1 * z
        for t, w in zip(rep.locations, rep.weights):
            out = out + (1.0 / (t - z) - t / (t * t + 1.0)) * w
        return out

    assert np.array_equal(FamilyEvaluator.from_rep(rep).on_grid(zs), _pointwise(scalar, 3, zs))


def _corner(phi, z: complex, h: float) -> complex:
    return (0.0 + 0.0j if phi is None else complex(herglotz.evaluate(phi, z)[0, 0])) / h


def _library_point_rules(rng) -> dict:
    """name -> (library family, the point rule it replaced), kept as the reference."""
    phi = random_rep(rng, 1, 3) if rng.uniform() < 0.7 else None
    n = int(rng.integers(8, 13))
    out = {}
    for variant in (examples.VARIANT_INTERVAL, examples.VARIANT_HALFLINE):
        config = examples.SturmLiouvilleConfig(n, phi, float(rng.uniform(0.5, 3.0)), variant)
        h = config.length / n
        k = examples._stiffness(n, free_first=phi is not None)

        def interval(z, k=k, h=h):
            out = ((1.0 if z.imag > 0 else -1.0) * 1j / h**2) * k.astype(np.complex128)
            out[0, 0] += _corner(phi, z, h)
            return out

        def halfline(z, k=k / h**2, h=h):
            out = k.astype(np.complex128).copy()
            out[0, 0] += _corner(phi, z, h)
            return out

        rule = interval if variant == examples.VARIANT_INTERVAL else halfline
        out[variant] = (examples.build_family(config), rule)
    ex = examples.build_ex4a(examples.Ex4AConfig(
        int(rng.integers(1, 7)), c_perturbation=float(rng.uniform(0.0, 0.8)), seed=int(n)))
    b_sqrt, eye = np.sqrt(ex.b), np.eye(ex.config.n)
    f_tilde = lambda z: -matnum.inverse(ex.c - eye / z, rcond_min=1e-15)
    out["ex4a-m"] = (ex.m_family, lambda z: (b_sqrt[:, None] * (ex.c - eye / z)) * b_sqrt[None, :])
    out["ex4a-f"] = (ex.f_family, lambda z: (f_tilde(z) / b_sqrt[:, None]) / b_sqrt[None, :])
    out["ex4a-f-tilde"] = (ex.f_tilde, f_tilde)
    out["diag-inverse-k"] = (runner._SWEEPS["diag-inverse-k"](n),
                             lambda z: z * np.diag(1.0 / np.arange(1, n + 1)))
    out["scalar-z-identity"] = (runner._SWEEPS["scalar-z-identity"](n),
                                lambda z: z * np.eye(n, dtype=complex))
    return out


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), length=st.sampled_from([0, 1, 40]))
def test_library_family_values_equal_the_point_rules(seed, length):
    """Library builders carry stacked rules whose values are the old point rules' values."""
    rng = np.random.default_rng(seed)
    zs = _grid(rng, length)
    rules = _library_point_rules(rng)
    for name, (family, rule) in rules.items():
        assert np.array_equal(family.on_grid(zs), _pointwise(rule, family.dim, zs)), name
    library = [family for family, _ in rules.values()] + list(_families(rng).values())[:3]
    library.append(runner._SWEEPS["atomic-dyadic"](3))
    assert all(family.fn is None for family in library)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), length=st.sampled_from([0, 1, 40]))
def test_pair_on_grid_equals_pointwise(seed, length):
    rng = np.random.default_rng(seed)
    zs = _grid(rng, length)
    for name, pair in _pairs(rng).items():
        phis, psis = pair.on_grid(zs)
        assert phis.shape == psis.shape == (length, pair.dim, pair.dim), name
        assert np.array_equal(phis, _pointwise(lambda z: pair(z)[0], pair.dim, zs)), name
        assert np.array_equal(psis, _pointwise(lambda z: pair(z)[1], pair.dim, zs)), name


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 5),
    cols=st.integers(1, 5),
    count=st.sampled_from([0, 1, 7]),
)
def test_stacked_primitives_equal_per_slice(seed, rows, cols, count):
    rng = np.random.default_rng(seed)
    stack = cgauss(rng, count, rows, cols)
    for k in range(0, count, 2):  # every other slice rank deficient, at a random rank
        r = int(rng.integers(0, min(rows, cols) + 1))
        stack[k] = cgauss(rng, rows, r) @ cgauss(rng, r, cols)
    tol = TolerancePolicy(eps_rank=1e-8)
    for fn in (matnum.null_space, matnum.range_space):
        bases = fn(stack, tol)
        assert len(bases) == count
        for basis, one in zip(bases, stack):
            alone = fn(one, tol)
            assert basis.shape == alone.shape and np.array_equal(basis, alone)
    assert matnum.rank(stack, tol) == [matnum.rank(one, tol) for one in stack]
    svals = matnum.singular_values(stack)
    assert svals.shape == (count, min(rows, cols))
    assert all(np.array_equal(s, matnum.singular_values(one)) for s, one in zip(svals, stack))
    norms = matnum.spectral_norm(stack)
    assert norms.tolist() == [matnum.spectral_norm(one) for one in stack]
    square = stack[:, :rows, :rows] if rows <= cols else stack[:, :cols, :cols]
    scales = rng.uniform(0.0, 3.0, count)
    flags = matnum.definitely_invertible(square, scales)
    assert flags == [matnum.definitely_invertible(one, s) for one, s in zip(square, scales)]
    assert matnum.rcond(square).tolist() == [matnum.rcond(one) for one in square]
    herm = square + square.conj().swapaxes(-1, -2)
    for h in (herm, square @ square.conj().swapaxes(-1, -2)):  # Hermitian, then PSD
        assert matnum.hermitian_residual(h).tolist() == [matnum.hermitian_residual(one)
                                                         for one in h]
        oks, lams = matnum.is_psd(h)
        alone = [matnum.is_psd(one) for one in h]
        assert oks == [ok for ok, _ in alone] and lams.tolist() == [lam for _, lam in alone]
        ws, vs = matnum.eig_hermitian(h)
        for w, v, one in zip(ws, vs, h):
            w1, v1 = matnum.eig_hermitian(one)
            assert np.array_equal(w, w1) and np.array_equal(v, v1)
    if count:
        herm[-1, 0, 0] += 1j  # one slice not Hermitian
        for fn in (matnum.is_psd, matnum.eig_hermitian):
            with pytest.raises(matnum.HermitianityError):
                fn(herm)


def test_solve_stack_equals_per_slice(rng):
    a = cgauss(rng, 6, 3, 3) + 3.0 * np.eye(3)
    b = cgauss(rng, 6, 3, 2)
    x, rc = matnum.solve(a, b)
    for k in range(6):
        xk, rck = matnum.solve(a[k], b[k])
        assert np.array_equal(x[k], xk) and rc[k] == rck


def _numpy1_solve(solve):
    """np.linalg.solve as numpy < 2 reads it: a B of one dimension less than A is a stack of vectors."""

    def wrapped(a, b):
        a, b = np.asarray(a), np.asarray(b)
        if b.ndim == a.ndim - 1:
            return solve(a, b[..., None])[..., 0]
        return solve(a, b)

    return wrapped


@pytest.mark.parametrize("count", [1, 3, 5])
def test_stack_solve_against_one_rhs_keeps_numpy1_semantics(rng, monkeypatch, count):
    """One B for a whole (G, n, n) stack, with G = 1, G = n and G != n."""
    a = cgauss(rng, count, 3, 3) + 3.0 * np.eye(3)
    b = cgauss(rng, 3, 2)
    rep = random_rep(rng, 3, 4)
    zs = _grid(rng, 40)[:count]
    want, want_pair = matnum.solve(a, b)[0], pairs.canonical_pair(rep).on_grid(zs)
    monkeypatch.setattr(np.linalg, "solve", _numpy1_solve(np.linalg.solve))
    got, got_pair = matnum.solve(a, b)[0], pairs.canonical_pair(rep).on_grid(zs)  # a new memo
    assert np.array_equal(got, want)
    assert all(np.array_equal(g, w) for g, w in zip(got_pair, want_pair))
    for k in range(count):
        assert np.array_equal(want[k], matnum.solve(a[k], b)[0])


def test_evaluators_take_exactly_one_rule():
    rule = lambda z: z * np.eye(2)
    stacked = lambda zs: np.array([z * np.eye(2) for z in zs])
    for bad in ((None, None), (rule, stacked)):
        with pytest.raises(TypeError):
            FamilyEvaluator(2, bad[0], grid_fn=bad[1])
        with pytest.raises(TypeError):
            PairEvaluator(2, bad[0] and (lambda z: (rule(z), rule(z))), grid_fn=bad[1])
    assert np.array_equal(FamilyEvaluator(2, None, grid_fn=stacked)(1j), rule(1j))


# -- errors are those of the per-point loop ----------------------------------------


def test_nan_from_custom_rule_is_a_value_error():
    fam = FamilyEvaluator.from_callable(lambda z: np.full((2, 2), np.nan if z.real > 0 else z), 2)
    with pytest.raises(ValueError, match="NaN or Inf"):
        fam.on_grid([-1 + 1j, 1 + 1j])
    pair = PairEvaluator(1, lambda z: (np.array([[np.inf]]), np.eye(1)))
    with pytest.raises(ValueError, match="NaN or Inf"):
        pair.on_grid([1j])


def test_wrong_shape_from_custom_rule_is_a_shape_error():
    fam = FamilyEvaluator.from_callable(lambda z: np.eye(3) * z, 2)
    with pytest.raises(matnum.MatrixShapeError, match="declared dim 2"):
        fam.on_grid([1j, 2j])
    with pytest.raises(matnum.MatrixShapeError):
        FamilyEvaluator.from_callable(lambda z: np.ones(2) * z, 2).on_grid([1j])
    pair = PairEvaluator(2, lambda z: (np.eye(2), np.eye(3)))
    with pytest.raises(matnum.MatrixShapeError):
        pair.on_grid([1j])


def test_point_on_a_real_atom_is_a_pole_error(rng):
    rep = herglotz.HerglotzRep.create(np.zeros((2, 2)), np.eye(2), [(0.5, random_psd(rng, 2))])
    fam = FamilyEvaluator.from_rep(rep)
    with pytest.raises(herglotz.PoleError):
        fam.on_grid([1j, complex(0.5, 0.0), 2j])
    with pytest.raises(herglotz.PoleError):
        pairs.canonical_pair(fam).on_grid([1j, complex(0.5, 0.0)])


def test_canonical_pair_guard_names_the_first_failing_point():
    """F(z) + i is singular at one point and nearly singular at another."""
    singular, nearly = 0.3 + 1j, -0.4 + 2j

    def fn(z):
        if z == singular:
            return np.diag([-1j, 1.0])
        if z == nearly:
            return np.diag([-1j + 1e-15, 1.0])
        return z * np.eye(2)

    pair = pairs.canonical_pair(FamilyEvaluator.from_callable(fn, 2))
    for grid in ([1j, nearly, 2j, singular], [1j, singular, nearly]):
        with pytest.raises(matnum.ConditioningError) as loop:
            for z in grid:
                pair(z)
        with pytest.raises(matnum.ConditioningError) as batched:
            pair.on_grid(grid)
        assert str(batched.value) == str(loop.value)


# -- verifiers: a rep family gives the reports its per-point twin gives ------------


def _check_runs(a: float):
    alpha = (a - 1j) / (a + 1j)
    grid = invariance.default_check_grid()
    return {
        "point": lambda f: invariance.check_point_invariance(f, a, grid),
        "imag_kernel": lambda f: invariance.check_imag_kernel_invariance(f, grid),
        "resolvent": lambda f: invariance.check_resolvent_invariance(f, a, grid),
        "boundedness": lambda f: invariance.check_boundedness_invariance(f, grid),
        "mul": lambda f: invariance.check_mul_invariance(f, grid),
        "schur": lambda f: invariance.maximum_principle_schur(
            pairs.canonical_pair(f), alpha, grid),
        "classify_pair": lambda f: invariance.classify_family_pair(pairs.canonical_pair(f)),
    }


@pytest.mark.parametrize("kind", ["generic", "common-kernel"])
def test_checks_on_rep_family_equal_per_point_checks(rng, kind):
    rep = random_rep(rng, 4, 4) if kind == "generic" else rep_with_common_kernel(rng, 4)[0]
    batched = FamilyEvaluator.from_rep(rep)
    # its own twin, so that no value comes from batched's memo
    pointwise = FamilyEvaluator.from_callable(FamilyEvaluator.from_rep(rep), batched.dim)
    for name, run in _check_runs(float(rng.uniform(-2, 2))).items():
        got, want = run(batched), run(pointwise)
        if isinstance(got, invariance.InvarianceReport):
            assert (got.passed, got.worst, got.notes) == (want.passed, want.worst, want.notes)
            assert got.witnesses == want.witnesses, name
        else:
            assert got == want, name


def _cayley_per_point(pair, z):
    """(Psi - i Phi)(Psi + i Phi)^(-1) at one point, solved as a transposed system."""
    phi, psi = pair(z)
    x, _ = matnum.solve((psi + 1j * phi).conj().T, (psi - 1j * phi).conj().T, pairs.RCOND_MIN)
    return x.conj().T


def _resolvent_per_point(pair, a, grid):
    """check_resolvent_invariance as a loop over points, one matrix at a time."""
    alpha = (a - 1j) / (a + 1j)
    grid = herglotz.offaxis_points(grid)
    eye = np.eye(pair.dim, dtype=np.complex128)
    flags, witnesses = [], []
    ok_cross = True
    for z in grid:
        phi, psi = pair(z)
        block_scale = matnum.spectral_norm(pair.stacked(z)) * (1.0 + abs(a))
        smin = float(matnum.singular_values(psi - a * phi)[-1])
        flag = matnum.definitely_invertible(psi - a * phi, block_scale)
        flags.append(flag)
        w = {"smin": smin, "regular": int(flag)}
        if z.imag > 0:
            c = _cayley_per_point(pair, z)
            w["smin_cayley"] = float(matnum.singular_values(c - alpha * eye)[-1])
            flag_c = matnum.definitely_invertible(c - alpha * eye, 2.0)
            ok_cross = ok_cross and (flag_c == flag)
        witnesses.append(w)
    constant = len(set(flags)) == 1
    return (grid, witnesses, constant and ok_cross, 0.0 if (constant and ok_cross) else 1.0,
            {"a": a, "alpha_re": alpha.real, "alpha_im": alpha.imag,
             "regular": int(flags[0]) if constant else -1})


def _schur_per_point(pair, alpha, grid, tol):
    """maximum_principle_schur on a pair as a loop over points, one matrix at a time."""
    grid = tuple(z for z in grid if z.imag > 0)
    defect_spans, eig_spans, inv_flags, reg_flags, witnesses = [], [], [], [], []
    for z in grid:
        c = _cayley_per_point(pair, z)
        eye = np.eye(c.shape[0], dtype=np.complex128)
        defect = eye - c.conj().T @ c  # each span and smallest value from one full SVD
        _, (defect_span,), (defect_s,) = matnum._spaces(defect[None], tol)
        _, (eig_span,), (moved_s,) = matnum._spaces((c - alpha * eye)[None], tol)
        defect_spans.append(defect_span)
        eig_spans.append(eig_span)
        inv_flags.append(matnum.invertible_from(defect_s[-1], 2.0))
        smin = float(moved_s[-1])
        reg_flags.append(matnum.invertible_from(smin, 2.0))
        witnesses.append({"defect_kernel_dim": defect_spans[-1].shape[1],
                          "alpha_kernel_dim": eig_spans[-1].shape[1],
                          "defect_invertible": int(inv_flags[-1]),
                          "smin_alpha": smin})
    worst = max(invariance._span_drift(defect_spans)[0], invariance._span_drift(eig_spans)[0])
    constant_flags = len(set(inv_flags)) == 1 and len(set(reg_flags)) == 1
    return (grid, witnesses, constant_flags and worst <= tol.eps_rank, worst,
            {"alpha_re": alpha.real, "alpha_im": alpha.imag,
             "alpha_regular": int(reg_flags[0]) if constant_flags else -1})


def _fields(report):
    return (report.grid, report.witnesses, report.passed, report.worst, report.notes)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["generic", "common-kernel", "mul"]))
def test_resolvent_and_schur_equal_the_point_loop(seed, kind):
    """The batched assembly (block scales, Cayley transposes, stacks) against the loop."""
    rng = np.random.default_rng(seed)
    if kind == "mul":
        pair = mul_pair(rng)
    else:
        rep = random_rep(rng, 3, 4) if kind == "generic" else rep_with_common_kernel(rng, 3)[0]
        pair = pairs.canonical_pair(rep)
    a = float(rng.uniform(-2, 2))
    alpha = (a - 1j) / (a + 1j)
    tol = TolerancePolicy()
    for grid in (invariance.default_check_grid(), _grid(rng, 40)[:7], [-1j, 2 - 0.5j]):
        got = invariance.check_resolvent_invariance(pair, a, grid, tol)
        assert _fields(got) == _resolvent_per_point(pair, a, grid)
        if not any(z.imag > 0 for z in grid):  # the Schur check needs a point in C_+
            with pytest.raises(herglotz.DomainError, match=r"no point in C_\+"):
                invariance.maximum_principle_schur(pair, alpha, grid, tol)
            continue
        got = invariance.maximum_principle_schur(pair, alpha, grid, tol)
        assert _fields(got) == _schur_per_point(pair, alpha, grid, tol)


def test_resolvent_block_scale_stacks_phi_over_psi():
    """Psi - a Phi with smin between RCOND_MIN |[Phi; Psi]| and RCOND_MIN |[Phi, Psi]|."""
    phi = np.array([[0.0, 1e3], [0.0, 0.0]])
    psi = np.diag([1e3, 1.2e-9])
    pair = PairEvaluator.constant(phi, psi)
    grid = [-1j, 1 - 2j]
    got = invariance.check_resolvent_invariance(pair, 0.0, grid)
    assert _fields(got) == _resolvent_per_point(pair, 0.0, grid)
    assert [w["regular"] for w in got.witnesses] == [1, 1]


# -- the batching stays: grid calls counted -----------------------------------------


def _count_calls(monkeypatch) -> Counter:
    counts: Counter = Counter()
    for cls in (FamilyEvaluator, PairEvaluator):
        for name in ("__call__", "on_grid"):
            original = getattr(cls, name)

            def wrapper(self, *args, _original=original, _key=f"{cls.__name__}.{name}"):
                counts[_key] += 1
                return _original(self, *args)

            monkeypatch.setattr(cls, name, wrapper)
    return counts


def test_point_check_evaluates_the_grid_once(rng, monkeypatch):
    pair = pairs.canonical_pair(FamilyEvaluator.from_rep(random_rep(rng, 3, 4)))
    counts = _count_calls(monkeypatch)
    report = invariance.check_point_invariance(pair, 0.5, invariance.default_check_grid())
    assert len(report.grid) == 40
    assert counts == {"PairEvaluator.on_grid": 1, "FamilyEvaluator.on_grid": 1}


@pytest.mark.parametrize("name", ["imag_kernel", "resolvent", "boundedness", "mul", "schur"])
def test_every_check_evaluates_the_grid_once(rng, monkeypatch, name):
    family = FamilyEvaluator.from_rep(random_rep(rng, 3, 4))
    run = _check_runs(0.5)[name]
    counts = _count_calls(monkeypatch)
    run(family)
    assert counts["FamilyEvaluator.on_grid"] == 1
    assert counts["FamilyEvaluator.__call__"] == 0
    assert counts["PairEvaluator.on_grid"] == (0 if name == "imag_kernel" else 1)
    assert counts["PairEvaluator.__call__"] == 0


def test_pair_classification_evaluates_its_pair_once(rng, monkeypatch):
    pair = pairs.canonical_pair(FamilyEvaluator.from_rep(random_rep(rng, 3, 4)))
    counts = _count_calls(monkeypatch)
    invariance.classify_family_pair(pair, z=0.3 + 2j)
    assert counts["PairEvaluator.on_grid"] == 1
    counts.clear()
    pairs.pair_kernel(pair, 0.3 + 2j, 0.3 + 2j)
    assert counts["PairEvaluator.on_grid"] == 1


@pytest.mark.parametrize("name", ["is_psd", "eig_hermitian", "hermitian_residual"])
def test_hermitian_primitives_check_their_input_once(rng, monkeypatch, name):
    calls = []
    checked = matnum._checked
    monkeypatch.setattr(matnum, "_checked", lambda *a, **k: calls.append(1) or checked(*a, **k))
    stack = np.stack([random_psd(rng, 3) for _ in range(4)])
    getattr(matnum, name)(stack)
    assert len(calls) == 1
    getattr(matnum, name)(stack[0])
    assert len(calls) == 2


@pytest.mark.parametrize("closed", [True, False])
def test_classify_evaluates_each_distinct_point_once(rng, closed):
    """Off-axis points, conjugates of the upper ones and i: each reaches the rule once."""
    rep = random_rep(rng, 3, 4)
    family = FamilyEvaluator.from_rep(rep)
    want = herglotz.classify(FamilyEvaluator.from_rep(rep))  # a second memo: family's stays empty
    grid = herglotz.default_grid() if closed else tuple(_grid(rng, 12)[:7]) + (2j,)
    seen = []
    rule = family.grid_fn
    family.grid_fn = lambda zs: seen.extend(zs) or rule(zs)
    got = herglotz.classify(family, grid=grid)
    offaxis = [z for z in grid if z.imag != 0]
    conj = [z.conjugate() for z in grid if z.imag > 0]
    assert len(seen) == len(set(seen))
    assert set(seen) == set(offaxis + conj + [1j])
    if closed:
        assert len(seen) == 30 and got == want


def test_resolvent_and_schur_take_each_stack_singular_values_once(rng, monkeypatch):
    """The smin witnesses and the invertibility flags share one SVD per stack."""
    pair = pairs.canonical_pair(FamilyEvaluator.from_rep(random_rep(rng, 3, 4)))
    grid = invariance.default_check_grid()
    svd = np.linalg.svd
    seen: Counter = Counter()

    def counted(a, *args, **kwargs):
        if not kwargs.get("compute_uv", True):
            seen[(np.shape(a), np.asarray(a).tobytes())] += 1
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    for check in (lambda: invariance.check_resolvent_invariance(pair, 0.5, grid),
                  lambda: invariance.maximum_principle_schur(pair, (0.5 - 1j) / (0.5 + 1j), grid)):
        seen.clear()
        check()
        assert seen and max(seen.values()) == 1


def _kernel_identity_reference(pair, z, w) -> float:
    """The five-evaluation formula the grid form replaced."""
    cz, cw = pairs.cayley(pair, z), pairs.cayley(pair, w)
    k = (np.eye(pair.dim) - cw.conj().T @ cz) / (-1j * (z - np.conj(w)))
    n = pairs.pair_kernel(pair, z, w)
    phi_z, psi_z = pair(z)
    phi_w, psi_w = pair(w)
    right, _ = matnum.solve(psi_z + 1j * phi_z, np.eye(pair.dim), pairs.RCOND_MIN)
    left_t, _ = matnum.solve((psi_w + 1j * phi_w).conj().T, np.eye(pair.dim), pairs.RCOND_MIN)
    recon = 2.0 * left_t @ n @ right
    return matnum.spectral_norm(k - recon) / (1.0 + matnum.spectral_norm(k))


@pytest.mark.parametrize("name", ["canonical", "callable", "junitary", "direct-sum", "scale"])
def test_kernel_identity_residual_evaluates_the_pair_once(rng, monkeypatch, name):
    pair = _pairs(rng)[name]
    points = [z for z in _grid(rng, 12) if z.imag > 0] + [0.4 + 1.5j]
    on_grid, calls = PairEvaluator.on_grid, []

    def counted(self, zs):
        if self is pair:  # a derived pair also evaluates its base
            calls.append(tuple(zs))
        return on_grid(self, zs)

    for z, w in [(points[0], points[1]), (points[2], points[2]), (points[-1], points[3])]:
        want = _kernel_identity_reference(pair, z, w)
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(PairEvaluator, "on_grid", counted)
            got = pairs.kernel_identity_residual(pair, z, w)
        assert got == want and calls == [(z, w)]


# -- the value memo: a hit is the fresh value, and each point reaches a rule once ----


def _library_evaluators(seed: int) -> dict:
    """Every library family and pair of this module, built afresh from one seed."""
    out = {f"family-{k}": v for k, v in _families(np.random.default_rng(seed)).items()}
    out.update({f"pair-{k}": v for k, v in _pairs(np.random.default_rng(seed)).items()})
    rules = _library_point_rules(np.random.default_rng(seed))
    out.update({f"example-{k}": family for k, (family, _) in rules.items()})
    return out


def _memo_grids(rng) -> tuple[list[complex], list[complex]]:
    """A first grid, then one repeating and permuting it with the other sign of each zero."""
    height, x = 10.0 ** rng.uniform(-1, 1), float(rng.uniform(-3, 3))
    first = _grid(rng, 6) + [complex(0.0, height), complex(x, 0.0)]
    second = first + _grid(rng, 4) + [complex(-0.0, height), complex(x, -0.0)]
    second = [second[i] for i in rng.permutation(len(second))]
    return first, second + second[::3]


def _values(evaluator, zs):
    out = evaluator.on_grid(zs)
    return out if isinstance(out, tuple) else (out,)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_memo_hits_equal_fresh_evaluations(seed):
    rng = np.random.default_rng(seed)
    first, second = _memo_grids(rng)
    evaluators = _library_evaluators(seed)
    for evaluator in evaluators.values():
        _values(evaluator, first)
    fresh = {}  # a new evaluator per distinct point: no memo is involved
    for z in dict.fromkeys(second):
        for name, evaluator in _library_evaluators(seed).items():
            fresh[name, z] = _values(evaluator, (z,))
    for name, evaluator in evaluators.items():
        got = _values(evaluator, second)
        for k, z in enumerate(second):
            assert all(np.array_equal(g[k], w[0]) for g, w in zip(got, fresh[name, z])), (name, z)


def test_memo_reads_minus_zero_as_zero():
    seen = []
    family = FamilyEvaluator.from_callable(lambda z: seen.append(z) or z * np.eye(2), 2)
    family.on_grid([complex(0.0, 1.0), complex(-0.0, 1.0), complex(0.5, 0.0)])
    family.on_grid([complex(0.5, -0.0), complex(-0.0, 1.0)])
    assert seen == [1j, 0.5]


@pytest.mark.parametrize("name", ["family-rep", "family-callable", "pair-canonical",
                                  "pair-constant", "pair-junitary", "example-ex4a-f"])
def test_writing_into_a_returned_stack_changes_no_later_result(name):
    """All points new, all seen, some of each, and one point: each result is the caller's own."""
    rng = np.random.default_rng(7)
    grid = _grid(rng, 8)
    evaluator = _library_evaluators(11)[name]
    want = [w.copy() for w in _values(_library_evaluators(11)[name], grid)]
    for zs in (grid, grid, grid[::-1] + _grid(rng, 2), grid[2:3]):
        got = _values(evaluator, zs)
        for g in got:
            assert g.flags.writeable
            g[...] = np.nan
    for g, w in zip(_values(evaluator, grid), want):
        assert np.array_equal(g, w)
    point = evaluator(grid[0])
    for block in point if isinstance(point, tuple) else (point,):
        block[...] = 0.0
    for g, w in zip(_values(evaluator, grid), want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("name", ["family-rep", "pair-canonical"])
def test_a_memo_hit_shares_no_memory_with_the_kept_blocks(name):
    """Seen points only, and seen with new: equal values in writable stacks of their own."""
    rng = np.random.default_rng(5)
    grid = _grid(rng, 4)
    evaluator = _library_evaluators(3)[name]
    want = _values(evaluator, grid)
    for zs in (grid[::-1], grid[1:] + _grid(rng, 1)):
        got = _values(evaluator, zs)
        kept = [v for values in evaluator.memo.values.values() for v in values]
        for k, z in enumerate(zs):
            if z in grid:
                assert all(np.array_equal(g[k], w[grid.index(z)]) for g, w in zip(got, want))
        for g in got:
            assert g.flags.writeable and g.flags.owndata
            assert not any(np.shares_memory(g, v) for v in kept)


def _held(evaluator) -> int:
    """Bytes of the matrices an evaluator's memo keeps, with their object overhead."""
    kept = [v for values in evaluator.memo.values.values() for v in values]
    return sum(v.nbytes + herglotz.MEMO_MATRIX_BYTES for v in kept)


def test_large_family_memo_stays_within_the_budget():
    """n = 400 on the 30-point default grid, all at once and one point at a time."""
    for one_by_one in (False, True):
        family = runner._SWEEPS["diag-inverse-k"](400)
        grid = herglotz.default_grid()
        if one_by_one:
            for z in grid:
                family(z)
        else:
            family.on_grid(grid)
        assert _held(family) == family.memo.nbytes <= herglotz.MEMO_BYTES
    small = FamilyEvaluator.from_rep(random_rep(np.random.default_rng(0), 5, 4))
    small.on_grid(invariance.default_check_grid())
    assert len(small.memo.values) == 40  # a small family keeps the whole check grid


def test_memo_stays_consistent_under_threads():
    """Six threads on one family: every result exact, the memo's byte count exact."""
    rep = random_rep(np.random.default_rng(3), 3, 4)
    family = FamilyEvaluator.from_rep(rep)
    grid = _grid(np.random.default_rng(4), 40)
    want = FamilyEvaluator.from_rep(rep).on_grid(grid)
    errors = []

    def work(seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            idx = rng.permutation(len(grid))[: int(rng.integers(1, 12))]
            if not np.array_equal(family.on_grid([grid[i] for i in idx]), want[idx]):
                errors.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and errors == []
    assert _held(family) == family.memo.nbytes <= herglotz.MEMO_BYTES


def test_a_unit_reaches_each_rule_once_per_point(rng, monkeypatch):
    """Checks, canonical pair, pair classification, pair kernels and snapshots, as one unit."""
    reached: Counter = Counter()
    memos = []  # kept alive, so no two evaluators share an id
    stacks = herglotz.ValueMemo.stacks

    def counted(self, zs, rule):
        memos.append(self)

        def counting_rule(new):
            reached.update((id(self), z.real + 0.0, z.imag + 0.0) for z in new)
            return rule(new)

        return stacks(self, zs, counting_rule)

    monkeypatch.setattr(herglotz.ValueMemo, "stacks", counted)
    rep, kernel = random_rep(rng, 3, 4), rep_with_common_kernel(rng, 2)[0]
    family = FamilyEvaluator.from_callable(lambda z: herglotz.evaluate(rep, z), 3)
    both = herglotz.family_direct_sum(family, FamilyEvaluator.from_rep(kernel))
    grid = invariance.default_check_grid()
    a = float(rng.uniform(-2, 2))
    for obj in (family, both):
        invariance.check_point_invariance(obj, a, grid)
        invariance.check_resolvent_invariance(obj, a, grid)
        invariance.check_boundedness_invariance(obj, grid)
        invariance.check_imag_kernel_invariance(obj, grid)
        invariance.check_mul_invariance(obj, grid)
        pair = pairs.canonical_pair(obj)
        points = [complex(rng.uniform(-3, 3), 10.0 ** rng.uniform(-1, 1)) for _ in range(3)]
        for z in [1j, *points, *grid[:5]]:
            invariance.classify_family_pair(pair, z=z)
        moved = pairs.transform(pair, pairs.JUnitary.random(pair.dim, rng))
        for z in points:
            for w in points:
                pairs.pair_kernel(pair, z, w)
                pairs.pair_kernel(moved, z, w)
            relations.from_pair_at(pair, z)
    assert reached and max(reached.values()) == 1


def _equivalent_loop(pair1, pair2, zs) -> bool:
    """The point-by-point test that the grid form of ``pairs.equivalent`` replaced."""
    if pair1.dim != pair2.dim:
        return False
    for z in herglotz.offaxis_points(zs):
        u, v = matnum.range_space(pair1.stacked(z)), matnum.range_space(pair2.stacked(z))
        if matnum.subspace_distance(u, v) > TolerancePolicy().eps_rank:
            return False
    return True


def _rank_varying(scale: float) -> PairEvaluator:
    """[Phi; Psi] of rank 1 right of the imaginary axis and 2 left of it; scale keeps the span."""
    return PairEvaluator(2, lambda z: (np.diag([scale, 0.0]),
                                       np.diag([scale, 0.0 if z.real > 0 else 3.0 * scale])))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_equivalent_equals_the_point_loop(seed):
    rng = np.random.default_rng(seed)
    named = _pairs(rng)
    base = named["canonical"]
    candidates = [base, pairs.reparametrized(base, np.diag([2.0, 1.0]) + 0.1 * cgauss(rng, 2, 2)),
                  named["flip"], named["scale"], named["constant"], _rank_varying(1.0),
                  _rank_varying(2.5), mul_pair(rng)]
    grid = _grid(rng, 10) + [0.5, complex(0.0, 2.0), complex(-0.0, -2.0)]
    verdicts = set()
    for p in candidates:
        for q in candidates:
            got = pairs.equivalent(p, q, grid)
            assert got == _equivalent_loop(p, q, grid)
            verdicts.add(got)
    assert verdicts == {True, False}
    assert pairs.equivalent(_rank_varying(1.0), _rank_varying(2.5), grid)
    for empty in ([], [0.5]):  # no point off the axis gives no verdict
        with pytest.raises(herglotz.DomainError, match="equivalent"):
            pairs.equivalent(base, named["flip"], empty)


def test_equivalent_evaluates_each_pair_once(rng, monkeypatch):
    one, two = pairs.canonical_pair(random_rep(rng, 2, 3)), _rank_varying(1.0)
    counts = _count_calls(monkeypatch)
    pairs.equivalent(one, two, invariance.default_check_grid())
    assert counts["PairEvaluator.on_grid"] == 2 and counts["PairEvaluator.__call__"] == 0
