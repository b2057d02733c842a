"""Execution of job documents: the task table, entities and verifier tasks.

``TASKS`` maps each task kind to its parameters, each with one type rule
and one default, and to its run function.  ``document`` checks every task
through the table when it parses a document, so a parsed task holds typed
values with defaults filled in; ``run_task`` looks up the kind and calls
its run function with them.  The names a task may use below its kind
(checks, analyses, example reports, sweep sequences) are the keys of the
dispatch tables here and nowhere else.  Verifiers are called through their
module attribute, so wrappers installed there see them.

Tasks run in declaration order, each producing one report with flat rows
(suitable for CSV) plus a scalar summary.  Randomized checks derive their
streams from the document seed and the task index, so identical documents
give identical reports regardless of how the run is scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from . import analysis, examples, herglotz, invariance, matnum, pairs
from .document import JobDocument, decode_matrix, real
from .herglotz import FamilyEvaluator, HerglotzRep
from .matnum import TolerancePolicy
from .pairs import PairEvaluator


class RunError(RuntimeError):
    """Raised when a validated document cannot be built or run as declared."""


@dataclass
class TaskReport:
    name: str
    task: str
    passed: bool
    summary: dict
    rows: list[dict] = field(default_factory=list)

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "task": self.task,
            "passed": self.passed,
            "summary": self.summary,
            "rows": self.rows,
        }


# -- type rules: each returns the checked value or raises ValueError("must ...")


def _rule(ok: Callable[[Any], bool], what: str):
    def rule(value):
        if ok(value):
            return value
        raise ValueError(f"must be {what}, got {value!r}")

    return rule


def _int_from(least: int):
    return _rule(lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= least,
                 f"an integer >= {least}")


def _one_of(table: dict):
    return _rule(lambda v: isinstance(v, str) and v in table, f"one of {', '.join(table)}")


def _upper_point(value) -> complex:
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"must be an [re, im] pair, got {value!r}")
    z = complex(real(value[0]), real(value[1]))
    if z.imag <= 0:
        raise ValueError("must lie in the upper half-plane")
    return z


def _list_of(item, min_len: int = 1, increasing: bool = False):
    def rule(value) -> tuple:
        if not isinstance(value, list) or len(value) < min_len:
            raise ValueError(f"must be a list of at least {min_len} item(s)")
        out = []
        for k, v in enumerate(value):
            try:
                out.append(item(v))
            except ValueError as exc:
                raise ValueError(f"[{k}] {exc}") from None
        if increasing and any(b <= a for a, b in zip(out, out[1:])):
            raise ValueError("must be strictly increasing")
        return tuple(out)

    return rule


_REQUIRED = object()
_ENTITY = _rule(lambda v: isinstance(v, str), "an entity name")
_POSITIVE = _int_from(1)


@dataclass(frozen=True)
class TaskKind:
    """Parameter name -> (type rule, default), and the run function.

    A default of None marks an optional parameter whose absence the run
    function handles itself.
    """

    run: Callable[..., tuple[bool, dict, list[dict]]]
    params: dict[str, tuple[Callable[[Any], Any], Any]]

    def check(self, task: dict, where: str, entities, errors: list[str]) -> dict:
        """The task with every parameter checked and defaults filled in.

        Problems go to errors; an ``entity`` parameter must be in entities.
        """
        out = {"name": task.get("name"), "task": task["task"]}
        for key in sorted(set(task) - set(self.params) - {"name", "task"}):
            errors.append(f"{where}: unknown parameter {key!r}")
        for key, (rule, default) in self.params.items():
            if key not in task:
                if default is _REQUIRED:
                    errors.append(f"{where}: missing parameter {key!r}")
                out[key] = default
                continue
            try:
                out[key] = rule(task[key])
            except ValueError as exc:
                errors.append(f"{where}: {key} {exc}")
                continue
            if key == "entity" and out[key] not in entities:
                errors.append(f"{where}: dangling reference to entity {out[key]!r}")
        return out


# -- run functions: (params, built entities, grid, tol, rng) -> (passed, summary, rows)


def _fail(p: dict, why: str) -> RunError:
    return RunError(f"task {p['name']!r}: {why}")


def _family(p: dict, built: dict) -> FamilyEvaluator:
    obj = built[p["entity"]]
    if isinstance(obj, HerglotzRep):
        return FamilyEvaluator.from_rep(obj)
    if isinstance(obj, FamilyEvaluator):
        return obj
    if isinstance(obj, examples.SturmLiouvilleConfig):
        return examples.build_family(obj)
    if isinstance(obj, examples.Ex4AConfig):
        return examples.build_ex4a(obj).f_family
    raise _fail(p, "entity cannot be read as a family")


def _run_classify(p, built, grid, tol, rng):
    obj = built[p["entity"]]
    if isinstance(obj, PairEvaluator):
        cls = pcls = invariance.classify_family_pair(obj, tol)
        passed = True
    else:
        family = _family(p, built)
        cls = herglotz.classify(family, tol, grid)
        pcls = invariance.classify_family_pair(pairs.canonical_pair(family), tol)
        passed = cls.label != herglotz.CLASS_NOT_NEV and cls.label == pcls.label
    row = {"label": cls.label, "lam_min": cls.lam_min, "kernel_dim": cls.kernel_dim,
           "pair_label": pcls.label, "pair_lam_min": pcls.lam_min,
           "rcond_phi": pcls.rcond_phi, "rcond_psi": pcls.rcond_psi}
    return passed, {"label": cls.label}, [row]


# (pair, family or None for a pair entity, a, grid, tol) -> report, or None to skip
_CHECKS = {
    "point": lambda pr, f, a, g, t: invariance.check_point_invariance(pr, a, g, t),
    # the kernel check needs the operator family itself
    "imag_kernel": lambda pr, f, a, g, t: (
        None if f is None else invariance.check_imag_kernel_invariance(f, g, t)
    ),
    "resolvent": lambda pr, f, a, g, t: invariance.check_resolvent_invariance(pr, a, g, t),
    "boundedness": lambda pr, f, a, g, t: invariance.check_boundedness_invariance(pr, g, t),
    "mul": lambda pr, f, a, g, t: invariance.check_mul_invariance(pr, g, t),
}


def _run_invariance(p, built, grid, tol, rng):
    obj = built[p["entity"]]
    family = None if isinstance(obj, PairEvaluator) else _family(p, built)
    pair = obj if family is None else pairs.canonical_pair(family)
    reports = [_CHECKS[c](pair, family, p["a"], grid, tol) for c in p["checks"]]
    reports = [r for r in reports if r is not None]
    rows = [{"statement": r.statement, **row} for r in reports for row in r.rows()]
    summary = {"checks": len(reports), "worst": max((r.worst for r in reports), default=0.0)}
    return all(r.passed for r in reports), summary, rows


def _run_harnack(p, built, grid, tol, rng):
    z1, z2 = p["z1"], p["z2"]
    hp = analysis.harnack_constants(z1, z2)
    worst = analysis.certify_harnack(z1, z2, p["trials"] or 1000, rng)
    rows = [{"z1_re": z1.real, "z1_im": z1.imag, "z2_re": z2.real, "z2_im": z2.imag,
             "c1": hp.c1, "c2": hp.c2, "mc_worst": worst}]
    passed = worst <= 1e-12
    if p["entity"] is not None:
        sr = analysis.form_sandwich_check(
            _family(p, built), grid, p["z0"], trials=p["trials"] or 100, rng=rng
        )
        nan = float("nan")
        rows.append({"z1_re": sr.z0.real, "z1_im": sr.z0.imag, "z2_re": nan, "z2_im": nan,
                     "c1": nan, "c2": nan, "mc_worst": sr.worst_violation})
        passed = passed and sr.passed
    return passed, {"c1": hp.c1, "c2": hp.c2}, rows


def _rep(family: FamilyEvaluator, p: dict, what: str) -> HerglotzRep:
    if family.rep is None:
        raise _fail(p, f"{what} needs representation data")
    return family.rep


def _split(family, p, grid, tol, rng):
    res = analysis.split_bounded_imag(family, grid)
    residual = max(res.constancy, res.hermitian_residual)
    return matnum.spectral_norm(res.t_constant), residual, res.passed


def _weak_strong(family, p, grid, tol, rng):
    rep = _rep(family, p, "weak_strong")
    br = analysis.weak_strong_check(rep, p["z"], trials=p["trials"] or 50, rng=rng)
    return br.worst_ratio, float(br.violations), br.passed


def _factor(family, p, grid, tol, rng):
    br = analysis.factor_check(_rep(family, p, "factor"), p["z"], tol)
    return br.worst_ratio, float(br.violations), br.passed


def _schatten(family, p, grid, tol, rng):
    dr = analysis.schatten_decay(family, [w for w in grid if w.imag > 0])
    return (min(dr.slopes) if dr.slopes else 0.0), dr.spread, dr.passed


def _sandwich(family, p, grid, tol, rng):
    sr = analysis.form_sandwich_check(family, grid, p["z"], trials=p["trials"] or 100, rng=rng)
    return sr.worst_violation, sr.worst_violation, sr.passed


# (family, params, grid, tol, rng) -> (value, residual, passed) for one report row
_ANALYSES = {
    "split": _split,
    "c2": lambda family, p, grid, tol, rng: (analysis.c2_of(p["z"]), 0.0, True),
    "weak_strong": _weak_strong,
    "factor": _factor,
    "schatten": _schatten,
    "sandwich": _sandwich,
}


def _run_analysis(p, built, grid, tol, rng):
    family = _family(p, built)
    rows, passed = [], True
    for what in p["analyses"]:
        value, residual, ok = _ANALYSES[what](family, p, grid, tol, rng)
        rows.append({"analysis": what, "value": value, "residual": residual, "passed": int(ok)})
        passed = passed and ok
    return passed, {"analyses": len(rows)}, rows


def _decay(config, p, grid, rng):
    family = examples.build_family(config)
    slopes, rows = [], []
    for z in [z for z in grid if z.imag > 0][:5]:
        js, s, slope = examples.decay_profile(family, z)
        slopes.append(slope)
        rows += [  # plot-ready series: j against s_j
            {"z_re": z.real, "z_im": z.imag, "j": int(j), "s_j": float(v), "slope": slope}
            for j, v in zip(js, s)
        ]
    spread = max(slopes) - min(slopes)
    return spread <= 0.05, {"spread": spread, "slope": slopes[0]}, rows


def _form_domain(config, p, grid, rng):
    fr = examples.form_domain_report(examples.build_ex4a(config), grid, rng=rng)
    rows = [{"z_re": z.real, "z_im": z.imag, "c1": b[0], "c2": b[1],
             "gen_eig_min": e[0], "gen_eig_max": e[1]}
            for z, b, e in zip(fr.grid, fr.bounds, fr.extremes)]
    return fr.passed, {"worst": fr.worst_violation}, rows


def _gap_sweep(config, p, grid, rng):
    rows = examples.halfline_gap_sweep(config.phi, p["a_values"], p["n_list"])
    return True, {"rows": len(rows)}, rows


def _conditioning(config, p, grid, rng):
    ex = examples.build_ex4a(config)
    rows = [{"z_re": z.real, "z_im": z.imag, "rcond": examples.solve_conditioning(ex, z)}
            for z in [z for z in grid if z.imag > 0][:5]]
    return True, {"b_min": float(ex.b.min())}, rows


_GRID, _EX4A = (examples.SturmLiouvilleConfig, "a grid"), (examples.Ex4AConfig, "an ex4a")

# report -> (entity type it needs, (config, params, grid, rng) -> (passed, summary, rows))
_EXAMPLES = {
    "decay": (_GRID, _decay),
    "form_domain": (_EX4A, _form_domain),
    "gap_sweep": (_GRID, _gap_sweep),
    "conditioning": (_EX4A, _conditioning),
}
EXAMPLE_REPORTS = tuple(_EXAMPLES)


def _run_examples(p, built, grid, tol, rng):
    (kind, noun), run = _EXAMPLES[p["what"]]
    config = built[p["entity"]]
    if not isinstance(config, kind):
        raise _fail(p, f"{p['what']} needs {noun} config")
    return run(config, p, grid, rng)


# n -> the n-dimensional family of a truncation sweep
_SWEEPS = {
    "diag-inverse-k": lambda n: FamilyEvaluator(
        n, lambda z, n=n: z * np.diag(1.0 / np.arange(1, n + 1)), "sweep"
    ),
    "scalar-z-identity": lambda n: FamilyEvaluator(
        n, lambda z, n=n: z * np.eye(n, dtype=complex), "sweep"
    ),
    "atomic-dyadic": lambda n: FamilyEvaluator.from_rep(
        HerglotzRep.create(
            np.zeros((n, n)), np.zeros((n, n)), [(0.0, np.diag(2.0 ** -np.arange(1, n + 1)))]
        )
    ),
}


def _run_sweep(p, built, grid, tol, rng):
    report = invariance.sweep_continuous_spectrum(
        _SWEEPS[p["sequence"]], p["n_list"], grid, trials=p["trials"], rng=rng
    )
    summary = {"monotone": int(report.monotone), "ratio_worst": report.ratio_worst,
               "verdict": report.decay_verdict}
    return report.passed, summary, report.rows()


_OPTIONAL_TRIALS = (_POSITIVE, None)  # each use has its own default

TASKS: dict[str, TaskKind] = {
    "classify": TaskKind(_run_classify, {"entity": (_ENTITY, _REQUIRED)}),
    "invariance": TaskKind(_run_invariance, {
        "entity": (_ENTITY, _REQUIRED),
        "checks": (_list_of(_one_of(_CHECKS)), tuple(_CHECKS)),
        "a": (real, 0.0),
    }),
    "harnack": TaskKind(_run_harnack, {
        "entity": (_ENTITY, None),  # adds the form sandwich against z0
        "z1": (_upper_point, 1j),
        "z2": (_upper_point, 2j),
        "z0": (_upper_point, 1j),
        "trials": _OPTIONAL_TRIALS,  # 1000 for the certificate, 100 for the sandwich
    }),
    "analysis": TaskKind(_run_analysis, {
        "entity": (_ENTITY, _REQUIRED),
        "analyses": (_list_of(_one_of(_ANALYSES)), ("split",)),
        "z": (_upper_point, 1j),
        "trials": _OPTIONAL_TRIALS,  # 50 for weak_strong, 100 for sandwich
    }),
    "examples": TaskKind(_run_examples, {
        "entity": (_ENTITY, _REQUIRED),
        "what": (_one_of(_EXAMPLES), "decay"),
        "a_values": (_list_of(real), (0.5, 2.0)),  # read by gap_sweep
        "n_list": (_list_of(_int_from(8)), (32, 64, 128)),  # read by gap_sweep
    }),
    "sweep": TaskKind(_run_sweep, {
        "sequence": (_one_of(_SWEEPS), _REQUIRED),
        "n_list": (_list_of(_POSITIVE, min_len=2, increasing=True), _REQUIRED),
        "trials": (_POSITIVE, 100),
    }),
}


# -- entities -------------------------------------------------------------------


def _decode_strict(obj, where: str):
    errors: list[str] = []
    m = decode_matrix(obj, where, errors)
    if errors:
        raise RunError("; ".join(errors))
    return m


def _build_rep(body: dict, where: str, tol: TolerancePolicy) -> HerglotzRep:
    b0 = _decode_strict(body["b0"], f"{where}.b0")
    b1 = _decode_strict(body["b1"], f"{where}.b1")
    atoms = [
        (float(t), _decode_strict(w, f"{where}.atoms")) for t, w in body.get("atoms", [])
    ]
    try:
        return HerglotzRep.create(b0, b1, atoms if atoms else None, tol)
    except (ValueError, matnum.MatrixShapeError) as exc:
        raise RunError(f"{where}: {exc}") from exc


def build_entities(doc: JobDocument) -> dict[str, object]:
    """Instantiate every declared entity, resolving references in order."""
    built: dict[str, object] = {}
    for ent in doc.entities:
        name, kind = ent["name"], ent["kind"]
        where = f"entity {name!r}"
        if kind == "herglotz_rep":
            built[name] = _build_rep(ent, where, doc.tol)
        elif kind == "family":
            rep = built[ent["rep"]]
            if not isinstance(rep, HerglotzRep):
                raise RunError(f"{where}: 'rep' must reference representation data")
            offset = ent.get("offset")
            if offset is None:
                built[name] = FamilyEvaluator.from_rep(rep, label=name)
            else:
                built[name] = FamilyEvaluator.from_rep_with_offset(
                    rep, _decode_strict(offset, f"{where}.offset"), label=name
                )
        elif kind == "pair":
            built[name] = _build_pair(ent["pair"], built, where)
        elif kind == "sturm_liouville":
            phi = ent.get("phi")
            if isinstance(phi, str):
                phi_rep = built[phi]
                if not isinstance(phi_rep, HerglotzRep) or phi_rep.dim != 1:
                    raise RunError(f"{where}: phi must reference scalar rep data")
            elif isinstance(phi, dict):
                phi_rep = _build_rep(phi, f"{where}.phi", doc.tol)
            else:
                phi_rep = None
            built[name] = examples.SturmLiouvilleConfig(
                n=ent["n"],
                phi=phi_rep,
                length=float(ent.get("length", 1.0)),
                variant=ent.get("variant", examples.VARIANT_INTERVAL),
            )
        elif kind == "ex4a":
            built[name] = examples.Ex4AConfig(
                n=ent["n"],
                b_decay=ent.get("b_decay"),
                c_perturbation=float(ent.get("c_perturbation", 0.0)),
                seed=int(ent.get("seed", 0)),
            )
        else:  # pragma: no cover - parser rejects unknown kinds
            raise RunError(f"{where}: unknown kind {kind!r}")
    return built


def _build_pair(spec: dict, built: dict, where: str) -> PairEvaluator:
    ptype = spec["type"]
    if ptype == "canonical":
        family = built[spec["family"]]
        if isinstance(family, HerglotzRep):
            family = FamilyEvaluator.from_rep(family)
        if not isinstance(family, FamilyEvaluator):
            raise RunError(f"{where}: canonical pair needs a family entity")
        return pairs.canonical_pair(family)
    if ptype == "constant":
        return PairEvaluator.constant(
            _decode_strict(spec["phi"], f"{where}.phi"),
            _decode_strict(spec["psi"], f"{where}.psi"),
        )
    base = built[spec["base"]]
    if not isinstance(base, PairEvaluator):
        raise RunError(f"{where}: transform base must be a pair")
    out = base
    for step in spec["steps"]:
        op = step["op"]
        try:
            if op == "shift":
                out = pairs.shift_transform(out, _decode_strict(step["x"], where))
            elif op == "scale":
                out = pairs.scale_transform(out, _decode_strict(step["y"], where))
            elif op == "flip":
                out = pairs.flip_transform(out)
            elif op == "junitary":
                out = pairs.transform(out, _decode_strict(step["w"], where))
            else:
                m = built[step["m"]]
                if not isinstance(m, HerglotzRep):
                    raise RunError(f"{where}: herglotz_shift needs representation data")
                out = pairs.herglotz_shift_transform(out, m)
        except (pairs.PairAxiomError, matnum.MatrixShapeError) as exc:
            raise RunError(f"{where}: {exc}") from exc
    return out


def run_task(
    task: dict,
    built: dict[str, object],
    doc: JobDocument,
    task_index: int,
) -> TaskReport:
    """Run one checked task of doc against the built entities."""
    rng = np.random.default_rng([doc.seed, task_index])
    grid = tuple(doc.grid) if doc.grid else herglotz.default_grid()
    passed, summary, rows = TASKS[task["task"]].run(task, built, grid, doc.tol, rng)
    return TaskReport(task["name"], task["task"], passed, summary, rows)


def run_document(doc: JobDocument) -> list[TaskReport]:
    """Run tasks in declaration order; numerical failures become failed reports."""
    built = build_entities(doc)
    out = []
    for i, task in enumerate(doc.tasks):
        try:
            out.append(run_task(task, built, doc, i))
        except (ValueError, RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
            out.append(
                TaskReport(task["name"], task["task"], False, {"error": str(exc)})
            )
    return out
