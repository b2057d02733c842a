"""Acceptance suite: one test per criterion, printing a verdict line each.

Verdict lines go to the raw stdout so they stay visible under pytest's
capture; every tolerance is pinned in the assertions below.
"""

import subprocess
import sys
import time

import numpy as np

from conftest import (
    cgauss,
    mul_pair,
    random_hermitian,
    random_rep,
    random_upper,
    rep_with_common_kernel,
    rep_with_pinned_eigenvalue,
)
from nevlab import analysis, examples, herglotz, invariance, matnum, pairs, relations
from nevlab.herglotz import FamilyEvaluator, HerglotzRep
from nevlab.pairs import JUnitary


def announce(num, text, ok):
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] criterion {num:2d}: {text}", file=sys.__stdout__, flush=True)
    assert ok, f"criterion {num} failed: {text}"


def scalar_family(fn):
    return FamilyEvaluator(1, lambda z: np.array([[fn(z)]]), "test")


def test_criterion_01_kernel_positivity():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        dim = int(rng.integers(1, 7))
        rep = random_rep(rng, dim, max_atoms=8, uniform=False)
        points = [
            complex(rng.uniform(-3, 3), s * 10.0 ** rng.uniform(-1, 1))
            for s in rng.choice([-1.0, 1.0], 6)
        ]
        vectors = [cgauss(rng, dim) for _ in points]
        gram = herglotz.kernel_gram(rep, points, vectors)
        lam = np.linalg.eigvalsh(matnum.herm_part(gram))[0]
        worst = max(worst, -lam / (1.0 + matnum.spectral_norm(gram)))
    elapsed = time.monotonic() - start
    announce(
        1,
        f"kernel Gram positivity over 1000 reps (worst {worst:.2e}, {elapsed:.1f}s)",
        worst <= 1e-10 and elapsed <= 30.0,
    )


def test_criterion_02_invariance_suite():
    rng = np.random.default_rng(202)
    grid = herglotz.default_grid()
    start = time.monotonic()
    checked, worst = 0, 0.0
    failures = []
    for index in range(200):
        kind = index % 4
        reports = []
        if kind == 0:  # eigenvalue-pinned family
            a = float(rng.uniform(-3, 3))
            fam, _ = rep_with_pinned_eigenvalue(rng, a, dim=4, pinned=int(rng.integers(1, 3)))
            reports.append(invariance.check_point_invariance(fam, a, grid))
            reports.append(invariance.check_resolvent_invariance(fam, a, grid))
            reports.append(invariance.check_boundedness_invariance(fam, grid))
        elif kind == 1:  # imaginary part with a frozen kernel
            rep, _ = rep_with_common_kernel(rng, 4)
            reports.append(invariance.check_imag_kernel_invariance(rep, grid))
            reports.append(invariance.check_resolvent_invariance(rep, 10.0, grid))
        elif kind == 2:  # multivalued family
            pair = mul_pair(rng, 3)
            reports.append(invariance.check_mul_invariance(pair, grid))
            reports.append(invariance.check_boundedness_invariance(pair, grid))
            reports.append(invariance.check_point_invariance(pair, 0.0, grid))
        else:  # block direct sum
            a = float(rng.uniform(-2, 2))
            fam_a, _ = rep_with_pinned_eigenvalue(rng, a, dim=3)
            fam_b = FamilyEvaluator.from_rep(random_rep(rng, 2, 4))
            both = herglotz.family_direct_sum(fam_a, fam_b)
            reports.append(invariance.check_point_invariance(both, a, grid))
            reports.append(invariance.check_imag_kernel_invariance(both, grid))
            reports.append(invariance.check_mul_invariance(both, grid))
        checked += len(reports)
        for rep_ in reports:
            worst = max(worst, rep_.worst)
            if not rep_.passed:
                failures.append((index, rep_.statement))
    elapsed = time.monotonic() - start
    announce(
        2,
        f"invariance reports on 200 families ({checked} checks, worst "
        f"{worst:.2e}, {elapsed:.1f}s)",
        not failures and worst <= 1e-8 and elapsed <= 60.0,
    )


def test_criterion_03_cayley_schur_chain():
    rng = np.random.default_rng(303)
    collection = [pairs.canonical_pair(FamilyEvaluator.from_rep(random_rep(rng, d)))
                  for d in (1, 2, 3, 4)]
    collection.append(pairs.PairEvaluator.constant(np.zeros((1, 1)), np.eye(1)))
    collection.append(mul_pair(rng, 3))
    base = pairs.canonical_pair(FamilyEvaluator.from_rep(random_rep(rng, 3)))
    collection.append(pairs.transform(base, JUnitary.random(3, rng)))
    collection.append(pairs.transform(base, JUnitary.flip(base.dim)))
    upper = herglotz.upper_grid()
    norm_ok, resid_ok = True, True
    worst_norm, worst_resid = 0.0, 0.0
    for pair in collection:
        assert pairs.validate(pair).passed
        for z in upper:
            worst_norm = max(worst_norm, matnum.spectral_norm(pairs.cayley(pair, z)))
        for z in upper[::3]:
            for w in upper[::3]:
                worst_resid = max(
                    worst_resid, pairs.kernel_identity_residual(pair, z, w)
                )
    norm_ok = worst_norm <= 1.0 + 1e-10
    resid_ok = worst_resid <= 1e-10
    witness = pairs.schur_kernel(
        pairs.canonical_pair(scalar_family(lambda z: z)), 1j, 1j
    )[0, 0]
    witness_ok = abs(witness - 0.5) <= 1e-12
    announce(
        3,
        f"Cayley contractivity (max norm {worst_norm:.12f}), kernel identity "
        f"(max residual {worst_resid:.2e}), diagonal witness 1/2",
        norm_ok and resid_ok and witness_ok,
    )


def test_criterion_04_classification_stability():
    rng = np.random.default_rng(404)
    z_points = random_upper(rng, 10)
    disagreements = 0
    missing_certificates = 0
    for index in range(1000):
        kind = index % 3
        if kind == 0:
            pair = pairs.canonical_pair(
                FamilyEvaluator.from_rep(random_rep(rng, int(rng.integers(2, 5)), 4))
            )
        elif kind == 1:
            rep, _ = rep_with_common_kernel(rng, 3)
            pair = pairs.canonical_pair(FamilyEvaluator.from_rep(rep))
        else:
            pair = mul_pair(rng, 3)
        anchor = invariance.classify_family_pair(pair)
        for z in z_points:
            if invariance.classify_family_pair(pair, z=z).label != anchor.label:
                disagreements += 1
        if anchor.label == "R^u":
            if anchor.rcond_phi < 1e-12 or anchor.rcond_psi < 1e-12:
                missing_certificates += 1
    announce(
        4,
        f"classification agrees at 11 points for 1000 families "
        f"({disagreements} disagreements, {missing_certificates} missing certificates)",
        disagreements == 0 and missing_certificates == 0,
    )


def test_criterion_05_junitary_kernel_invariance():
    rng = np.random.default_rng(505)
    rep = random_rep(rng, 3)
    pair = pairs.canonical_pair(FamilyEvaluator.from_rep(rep))
    zs = random_upper(rng, 3) + [1j]
    worst = 0.0
    for _ in range(100):
        w = JUnitary.random(3, rng)
        moved = pairs.transform(pair, w)
        for z in zs:
            for wpt in zs:
                n1 = pairs.pair_kernel(pair, z, wpt)
                n2 = pairs.pair_kernel(moved, z, wpt)
                worst = max(
                    worst,
                    matnum.spectral_norm(n1 - n2) / (1.0 + matnum.spectral_norm(n1)),
                )
    flipped = pairs.transform(pair, JUnitary.flip(pair.dim))
    inverse_neg = FamilyEvaluator(
        3, lambda z: -matnum.inverse(herglotz.evaluate(rep, z)), "inverse"
    )
    target = pairs.canonical_pair(inverse_neg)
    graph_worst = 0.0
    for z in herglotz.default_grid():
        d = relations.from_pair_at(flipped, z).distance(
            relations.from_pair_at(target, z)
        )
        graph_worst = max(graph_worst, d)
    announce(
        5,
        f"pair kernel invariant under 100 J-unitaries (max {worst:.2e}); "
        f"flip realizes the inverse-negative family (distance {graph_worst:.2e})",
        worst <= 1e-10 and graph_worst <= 1e-10,
    )


def test_criterion_06_harnack_certificates():
    rng = np.random.default_rng(606)
    worst_cone = 0.0
    for _ in range(1000):
        z1, z2 = random_upper(rng, 2)
        worst_cone = max(worst_cone, analysis.certify_harnack(z1, z2))
    sandwich_failures = 0
    worst_sandwich = 0.0
    for _ in range(100):
        report = analysis.form_sandwich_check(random_rep(rng, int(rng.integers(1, 5))))
        worst_sandwich = max(worst_sandwich, report.worst_violation)
        sandwich_failures += 0 if report.passed else 1
    announce(
        6,
        f"Harnack certificate on the extreme rays at 1000 point pairs (worst {worst_cone:.2e}); "
        f"form sandwich on 100 families (worst {worst_sandwich:.2e})",
        worst_cone <= 1e-12 and sandwich_failures == 0,
    )


def test_criterion_07_split_round_trip():
    rng = np.random.default_rng(707)
    worst_resid, worst_const = 0.0, 0.0
    for index in range(20):
        dim = int(rng.integers(2, 5))
        rep = random_rep(rng, dim, 5)
        magnitude = 10.0 ** rng.uniform(0, 6) if index else 1e6
        t0 = random_hermitian(rng, dim)
        t0 *= magnitude / max(matnum.spectral_norm(t0), 1e-30)
        res = analysis.split_bounded_imag(FamilyEvaluator.from_rep_with_offset(rep, t0))
        scale = 1.0 + matnum.spectral_norm(t0)
        worst_resid = max(
            worst_resid, matnum.spectral_norm(res.t_constant - t0) / scale
        )
        worst_const = max(worst_const, res.constancy, res.hermitian_residual)
    announce(
        7,
        f"additive split recovers planted offsets up to 1e6 "
        f"(recovery {worst_resid:.2e}, constancy {worst_const:.2e})",
        worst_resid <= 1e-8 and worst_const <= 1e-8,
    )


def test_criterion_08_measure_tail_estimates():
    rng = np.random.default_rng(808)
    exact = analysis.c2_of(1j) == 1.0
    near = abs(analysis.c2_of(2j) - 2.0) <= 1e-9
    violations = 0
    for _ in range(100):
        rep = random_rep(rng, int(rng.integers(1, 5)))
        z = complex(rng.uniform(-3, 3), 10.0 ** rng.uniform(-1, 1))
        vec = analysis.weak_strong_check(rep, z)
        op = analysis.factor_check(rep, z)
        violations += vec.violations + op.violations
    announce(
        8,
        f"modulus bound: c2(i) exact, c2(2i) within 1e-9, "
        f"vector and operator bounds on 100 representations with {violations} violations",
        exact and near and violations == 0,
    )


def test_criterion_09_interval_decay():
    start = time.monotonic()
    phi = HerglotzRep.create([[0.0]], [[1.0]])
    fam = examples.build_interval_family(
        examples.SturmLiouvilleConfig(n=400, phi=phi)
    )
    zs = [1j, 2 + 3j, -0.5 + 1j, 0.7 + 0.1j, 3 + 10j]
    slopes = [examples.decay_exponent(fam, z) for z in zs]
    spread = max(slopes) - min(slopes)
    elapsed = time.monotonic() - start
    in_window = all(-2.1 <= m <= -1.9 for m in slopes)
    announce(
        9,
        f"interval-family inverse decay: slopes {[round(m, 3) for m in slopes]}, "
        f"spread {spread:.3f} ({elapsed:.1f}s)",
        in_window and spread <= 0.05 and elapsed <= 120.0,
    )


def test_criterion_10_truncation_sweep():
    def seq(n):
        return FamilyEvaluator(
            n, lambda z, n=n: z * np.diag(1.0 / np.arange(1, n + 1)), "sweep"
        )

    n_list = [50, 100, 200, 400]
    reports = [
        invariance.sweep_continuous_spectrum(
            seq, n_list, trials=100, rng=np.random.default_rng(1010)
        )
        for _ in range(2)
    ]
    report = reports[0]
    strict = all(
        all(
            report.sigma_min[(b, z)] < report.sigma_min[(a, z)]
            for a, b in zip(n_list, n_list[1:])
        )
        for z in report.grid
    )
    deterministic = reports[0].rows() == reports[1].rows()
    announce(
        10,
        f"truncation sweep: strictly decreasing at {len(report.grid)} grid points, "
        f"ratio worst {report.ratio_worst:.2e}, deterministic rows",
        strict and report.passed and report.ratios_ok and deterministic,
    )


def test_criterion_11_cli_determinism(tmp_path):
    env_dirs = [tmp_path / "run1", tmp_path / "run2"]
    codes = []
    for out in env_dirs:
        proc = subprocess.run(
            [sys.executable, "-m", "nevlab.cli", "demo", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        codes.append(proc.returncode)
    names = sorted(p.name for p in env_dirs[0].iterdir())
    identical = names == sorted(p.name for p in env_dirs[1].iterdir()) and all(
        (env_dirs[0] / n).read_bytes() == (env_dirs[1] / n).read_bytes() for n in names
    )
    bad_doc = tmp_path / "bad.json"
    bad_doc.write_text('{"version": "wrong"}')
    usage = subprocess.run(
        [sys.executable, "-m", "nevlab.cli", "run", str(bad_doc)],
        capture_output=True,
    ).returncode
    announce(
        11,
        f"CLI determinism: demo exits {codes}, {len(names)} byte-identical reports, "
        f"usage error exits {usage}",
        codes == [0, 0] and identical and usage == 2,
    )
