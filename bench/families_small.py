"""families-small: a seeded stream of small families driven through library calls.

Each unit builds one family of one of four stereotypes (pinned eigenvalue,
common kernel of the imaginary part, multivalued pair, direct sum 3 + 2)
and runs the invariance checks that hold for that stereotype on the 40-point
default check grid, then the classification, kernel, J-unitary and relation
statements every family satisfies.  One family in eight is planted to fail:
its pinned eigenspace turns with Re z, so the point-spectrum check must fail.

Inputs are plain arrays drawn from the seed; the units build every library
object themselves, so the timed region covers the construction too.
"""

from __future__ import annotations

import numpy as np

from nevlab import herglotz, invariance, matnum, pairs, relations
from randmat import atom_locations, cgauss, hermitian, psd, unitary, upper

STREAM_LENGTH = 256  # units generated in set-up; the timed loop cycles through them
TRACE_UNITS = 16
WARMUP_UNITS = 4

# stereotype per slot of a block of eight; slot 0 is the planted family
BLOCK = (0, 0, 1, 1, 2, 2, 3, 3)


def _rep_data(rng, dim, max_atoms):
    """(b0, b1, atoms) with a definite B1 and distinct atom locations."""
    locs = atom_locations(rng, int(rng.integers(1, max_atoms + 1)))
    return (hermitian(rng, dim), psd(rng, dim, 0.5) + 0.3 * np.eye(dim),
            [(float(t), psd(rng, dim, 0.7)) for t in locs])


def _common_kernel_data(rng, dim):
    """B1 and every weight annihilate one direction; B0 is generic."""
    q = unitary(rng, dim)
    p = q[:, : dim - 1]
    proj = p @ p.conj().T

    def shrink(m):
        return proj @ m @ proj

    b1 = shrink(psd(rng, dim, 0.5) + 0.3 * np.eye(dim))
    atoms = [(t, shrink(psd(rng, dim))) for t in (-1.5, 0.7)]
    return (hermitian(rng, dim), b1, atoms)


def _pinned_data(rng, a, dim, pinned, turning):
    inner = _rep_data(rng, dim - pinned, 4)
    turn = None
    if turning:  # F(z) conjugated by exp(i 0.4 Re z G): the fixed space turns
        lam, vec = np.linalg.eigh(hermitian(rng, dim))
        turn = (0.4 * lam, vec)
    return {"a": a, "q": unitary(rng, dim), "pinned": pinned, "inner": inner,
            "turn": turn}


def _upper(rng, n):
    return [upper(rng) for _ in range(n)]


def make_unit(rng, stereotype: int, planted: bool) -> dict:
    unit = {"stereotype": stereotype}
    if stereotype == 0:
        a = float(rng.uniform(-3, 3))
        pinned = int(rng.integers(1, 3))
        unit["family"] = _pinned_data(rng, a, 4, pinned, planted)
        unit["expected"] = {"point": not planted, "resolvent": True, "boundedness": True}
        gram_dim = 4 - pinned
    elif stereotype == 1:
        unit["rep"] = _common_kernel_data(rng, 4)
        unit["expected"] = {"imag_kernel": True, "resolvent": True}
        gram_dim = 4
    elif stereotype == 2:
        unit["rep"] = _rep_data(rng, 2, 4)
        unit["expected"] = {"mul": True, "boundedness": True, "point": True}
        gram_dim = 2
    else:
        unit["family"] = _pinned_data(rng, float(rng.uniform(-2, 2)), 3, 1, False)
        unit["rep"] = _rep_data(rng, 2, 4)
        unit["expected"] = {"point": True, "imag_kernel": True, "mul": True}
        gram_dim = 2
    points = [z if k % 2 else z.conjugate() for k, z in enumerate(_upper(rng, 6))]
    unit["gram"] = (points, [cgauss(rng, gram_dim) for _ in points])
    unit["class_points"] = _upper(rng, 10)
    unit["kernel_points"] = _upper(rng, 3)
    unit["relation_points"] = _upper(rng, 3)
    unit["junitary_seed"] = int(rng.integers(0, 2**31))
    unit["expected"].update(
        {"classify_agrees": True, "gram_psd": True, "junitary_kernel": True,
         "max_dissipative": True}
    )
    return unit


def make_inputs(seed: int, count: int = STREAM_LENGTH, stream: int = 0) -> list[dict]:
    """``count`` units in seeded blocks of eight; ``stream`` separates warm-up inputs."""
    rng = np.random.default_rng([seed, stream])
    units = []
    while len(units) < count:
        for slot in rng.permutation(len(BLOCK)):
            units.append(make_unit(rng, BLOCK[slot], planted=(slot == 0)))
    return units[:count]


# -- the unit ---------------------------------------------------------------------


def _rep(data):
    b0, b1, atoms = data
    return herglotz.HerglotzRep.create(b0, b1, atoms)


def _pinned_family(data):
    """F(z) = a on a fixed subspace and a representation on its complement."""
    q, pinned, a = data["q"], data["pinned"], data["a"]
    dim = q.shape[0]
    moving, fixed = q[:, : dim - pinned], q[:, dim - pinned :]
    inner = _rep(data["inner"])
    if data["turn"] is None:
        pin = a * (fixed @ fixed.conj().T)

        def fn(z):
            return moving @ herglotz.evaluate(inner, z) @ moving.conj().T + pin
    else:
        lam, vec = data["turn"]

        def fn(z):
            r = (vec * np.exp(1j * z.real * lam)) @ vec.conj().T
            m, f = r @ moving, r @ fixed
            return m @ herglotz.evaluate(inner, z) @ m.conj().T + a * (f @ f.conj().T)

    return herglotz.FamilyEvaluator(dim, fn, "pinned"), inner


def run_unit(unit: dict) -> dict:
    grid = invariance.default_check_grid()
    stereotype = unit["stereotype"]
    out = {}
    if stereotype == 0:
        fam, gram_rep = _pinned_family(unit["family"])
        a = unit["family"]["a"]
        out["point"] = invariance.check_point_invariance(fam, a, grid).passed
        out["resolvent"] = invariance.check_resolvent_invariance(fam, a, grid).passed
        out["boundedness"] = invariance.check_boundedness_invariance(fam, grid).passed
        pair = pairs.canonical_pair(fam)
    elif stereotype == 1:
        gram_rep = _rep(unit["rep"])
        out["imag_kernel"] = invariance.check_imag_kernel_invariance(gram_rep, grid).passed
        out["resolvent"] = invariance.check_resolvent_invariance(gram_rep, 10.0, grid).passed
        pair = pairs.canonical_pair(herglotz.FamilyEvaluator.from_rep(gram_rep))
    elif stereotype == 2:
        gram_rep = _rep(unit["rep"])
        pair = pairs.pair_direct_sum(
            pairs.canonical_pair(herglotz.FamilyEvaluator.from_rep(gram_rep)),
            pairs.PairEvaluator.constant(np.zeros((1, 1)), np.eye(1)),
        )
        out["mul"] = invariance.check_mul_invariance(pair, grid).passed
        out["boundedness"] = invariance.check_boundedness_invariance(pair, grid).passed
        out["point"] = invariance.check_point_invariance(pair, 0.0, grid).passed
    else:
        fam_a, _ = _pinned_family(unit["family"])
        gram_rep = _rep(unit["rep"])
        both = herglotz.family_direct_sum(fam_a, herglotz.FamilyEvaluator.from_rep(gram_rep))
        out["point"] = invariance.check_point_invariance(both, unit["family"]["a"], grid).passed
        out["imag_kernel"] = invariance.check_imag_kernel_invariance(both, grid).passed
        out["mul"] = invariance.check_mul_invariance(both, grid).passed
        pair = pairs.canonical_pair(both)

    anchor = invariance.classify_family_pair(pair).label
    out["classify_agrees"] = all(
        invariance.classify_family_pair(pair, z=z).label == anchor
        for z in unit["class_points"]
    )

    points, vectors = unit["gram"]
    gram = herglotz.kernel_gram(gram_rep, points, vectors)
    lam = np.linalg.eigvalsh(matnum.herm_part(gram))[0]
    out["gram_psd"] = bool(-lam / (1.0 + matnum.spectral_norm(gram)) <= 1e-10)

    moved = pairs.transform(
        pair, pairs.JUnitary.random(pair.dim, np.random.default_rng(unit["junitary_seed"]))
    )
    zs = unit["kernel_points"]
    worst = 0.0
    for z in zs:
        for w in zs:
            before = pairs.pair_kernel(pair, z, w)
            after = pairs.pair_kernel(moved, z, w)
            worst = max(worst, matnum.spectral_norm(before - after)
                        / (1.0 + matnum.spectral_norm(before)))
    out["junitary_kernel"] = worst <= 1e-10

    out["max_dissipative"] = all(
        relations.is_maximal_dissipative(relations.from_pair_at(pair, z))
        for z in unit["relation_points"]
    )
    return out
