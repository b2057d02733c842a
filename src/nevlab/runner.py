"""Execution of job documents: the entity and task tables and their functions.

``ENTITIES`` and ``TASKS`` map each entity or task kind to its parameters,
each with one type rule and one default, and to its build or run function;
a pair type or transform step is a kind of a nested table of the same
form.  ``DOCUMENT`` gives the top-level fields of a document the same
form, and one list rule checks the entity list and the task list through
the two tables.  ``document`` checks a whole document through it when it
parses one, so a parsed document holds typed values with defaults filled
in, and a reference names an earlier entity of the kind it needs.
``build_entities`` and ``run_task`` look up the kind and call its function
with them.  The names a task may use below its kind (checks, analyses,
example reports, sweep sequences) are the keys of the dispatch tables here
and nowhere else.  Verifiers are called through their module attribute, so
wrappers installed there see them.

Entities are built in declaration order; a constructor that rejects its
data (PSD, Hermitian, J-metric or dimension checks) ends the run with a
``RunError`` naming the entity.  Tasks run in declaration order, each
producing one report with flat rows (suitable for CSV) plus a scalar
summary.  No check draws a random number, so identical documents give
identical reports; a document's ``seed`` and a task's ``trials`` are
validated and read by nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Callable

import numpy as np

from . import analysis, examples, herglotz, invariance, matnum, pairs
from .document import (OUTPUT_FORMATS, VERSION_TAG, DocumentError, JobDocument, decode_matrix,
                       real)
from .herglotz import FamilyEvaluator, HerglotzRep
from .matnum import DEFAULT_TOL, TolerancePolicy
from .pairs import JUnitary, PairEvaluator


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
        return {f.name: getattr(self, f.name) for f in fields(self)}  # asdict would deep-copy rows


MAX_DIM = 1024  # entity n and n_list entries; decay alone takes seconds per point there
MAX_TRIALS = 10_000  # task ``trials``: validated, read by no check


# -- type rules: rule(value, names) returns the checked value or raises
# ValueError("must ..."); names maps each entity declared so far to its kind


def _rule(ok: Callable[[Any], bool], what: str):
    def rule(value, names):
        if ok(value):
            return value
        raise ValueError(f"must be {what}, got {value!r}")

    return rule


def _int_in(least: int, most: int | None = None):
    what = f"an integer >= {least}" if most is None else f"an integer in [{least}, {most}]"
    return _rule(lambda v: isinstance(v, int) and not isinstance(v, bool) and least <= v
                 and (most is None or v <= most), what)


def _one_of(table: dict):
    return _rule(lambda v: isinstance(v, str) and v in table, f"one of {', '.join(table)}")


def _point(value, names) -> complex:
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"must be an [re, im] pair, got {value!r}")
    return complex(real(value[0]), real(value[1]))


def _upper_point(value, names) -> complex:
    z = _point(value, names)
    if z.imag <= 0:
        raise ValueError("must lie in the upper half-plane")
    return z


def _grid(value, names) -> tuple:
    grid = _list_of(_point)(value, names)
    if not any(z.imag > 0 for z in grid):
        raise ValueError("must contain at least one point with Im z > 0")
    return grid


def _atom(value, names) -> tuple:
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"must be a [t, matrix] pair, got {value!r}")
    return real(value[0]), decode_matrix(value[1])


def _list_of(item, min_len: int = 1, increasing: bool = False):
    def rule(value, names) -> tuple:
        if not isinstance(value, list) or len(value) < min_len:
            raise ValueError(f"must be a list of at least {min_len} item(s)")
        out, problems = [], []
        for k, v in enumerate(value):
            try:
                out.append(item(v, names))
            except ValueError as exc:  # a DocumentError from a nested table has several
                problems += [f"[{k}] {line}" for line in getattr(exc, "errors", [exc])]
        if problems:
            raise DocumentError(problems)
        if increasing and any(b <= a for a, b in zip(out, out[1:])):
            raise ValueError("must be strictly increasing")
        return tuple(out)

    return rule


def _optional(rule):
    return lambda value, names: None if value is None else rule(value, names)


def _not_built(types: tuple, value: str, names) -> str | None:
    """None if the entity value builds one of types, else 'a <kinds>, not the <kind> <value>'.

    An entity of unknown kind was reported where it was declared, so a
    reference to it is not reported again.
    """
    kind = names[value]
    if not (isinstance(kind, str) and kind in ENTITIES) or ENTITIES[kind].makes in types:
        return None
    kinds = " or ".join(k for k, kind in ENTITIES.items() if kind.makes in types)
    return f"a {kinds}, not the {names[value]} {value!r}"


def _ref(*types: type):
    """An entity declared earlier that builds one of types (any entity when none given)."""

    def rule(value, names) -> str:
        if not isinstance(value, str):
            raise ValueError(f"must be an entity name, got {value!r}")
        if value not in names:
            raise ValueError(f"{value!r} is a dangling reference")
        wrong = types and _not_built(types, value, names)
        if wrong:
            raise ValueError(f"must name {wrong}")
        return value

    return rule


def _entity_for(p: dict, names, types: tuple, what: str) -> None:
    """A post check: the task's entity builds one of the types that what needs."""
    wrong = _not_built(types, p["entity"], names)
    if wrong:
        raise ValueError(f"{what} needs {wrong}")


class _Placed(DocumentError):
    """Problems of a list of entities or tasks, each line naming its own place."""


def _members(field: str, noun: str, table: dict, key: str, name_rule, record: bool = False):
    """A list of named objects, each checked by the entry of table its key names.

    Problems are prefixed by "<noun> '<name>': "; a repeated name cites both
    indices.  With record, names maps each name to its kind, in declaration
    order, so that later objects can reference it.
    """

    def rule(value, names) -> list:
        if not isinstance(value, list):
            raise ValueError(f"must be a list, got {value!r}")
        first: dict[str, int] = {}
        out, problems = [], []
        for i, item in enumerate(value):
            try:
                if not isinstance(item, dict):
                    raise ValueError(f"must be an object, got {item!r}")
                name = name_rule(item.get("name"), names)
            except ValueError as exc:
                problems.append(f"{field}[{i}] {exc}")
                continue
            kind = item.get(key)
            if isinstance(kind, str) and kind in table:
                out.append(table[kind].check(item, f"{noun} {name!r}: ", names, problems,
                                             ("name", key)))
            else:
                problems.append(f"{noun} {name!r}: unknown kind {kind!r}")
            if first.setdefault(name, i) != i:
                problems.append(f"duplicate {noun} name {name!r} "
                                f"({field}[{first[name]}] and {field}[{i}])")
            elif record:
                names[name] = kind
        if problems:
            raise _Placed(problems)
        return out

    return rule


def _nested(kind: "Kind", value, names, fixed: tuple = ()) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"must be an object, got {value!r}")
    errors: list[str] = []
    out = kind.check(value, "", names, errors, fixed)
    if errors:
        raise DocumentError(errors)
    return out


def _pick(table: dict, key: str):
    """An object whose ``key`` names its entry in a nested table of kinds."""

    def rule(value, names) -> dict:
        kind = value.get(key) if isinstance(value, dict) else None
        if not (isinstance(kind, str) and kind in table):
            raise ValueError(f"{key} must be one of {', '.join(table)}, got {kind!r}")
        return _nested(table[kind], value, names, (key,))

    return rule


_REQUIRED = object()
_ENTITY = _ref()
_REAL = lambda value, names: real(value)  # noqa: E731
_MATRIX = lambda value, names: decode_matrix(value)  # noqa: E731
_STRING = _rule(lambda v: isinstance(v, str), "a string")
_TRIALS = _int_in(1, MAX_TRIALS)


@dataclass(frozen=True)
class Kind:
    """Parameter name -> (type rule, default), and the function that uses them.

    A table that only checks a nested object has no function.  A default
    of None marks an optional parameter whose absence the function handles
    itself.  ``post(params, names)`` checks the parameters
    together once each passed its own rule, raising ValueError.  ``makes``
    is the type an entity kind builds; typed references are checked by it.
    """

    run: Callable[..., Any] | None
    params: dict[str, tuple[Callable[[Any, dict], Any], Any]]
    post: Callable[[dict, dict], Any] | None = None
    makes: type | None = None

    def check(self, obj: dict, where: str, names: dict[str, str], errors: list[str],
              fixed: tuple = ()) -> dict:
        """obj with every parameter checked and defaults filled in.

        Problems go to errors, each prefixed by where; the keys in fixed
        were checked by the caller and are copied as they are.
        """
        before = len(errors)
        out = {key: obj.get(key) for key in fixed}
        for key in sorted(set(obj) - set(self.params) - set(fixed)):
            errors.append(f"{where}unknown parameter {key!r}")
        for key, (rule, default) in self.params.items():
            if key not in obj:
                if default is _REQUIRED:
                    errors.append(f"{where}missing parameter {key!r}")
                out[key] = default
                continue
            try:
                out[key] = rule(obj[key], names)
            except _Placed as exc:
                errors += exc.errors
            except ValueError as exc:
                errors += [f"{where}{key} {line}" for line in getattr(exc, "errors", [exc])]
        if self.post is not None and len(errors) == before:
            try:
                self.post(out, names)
            except ValueError as exc:
                errors.append(f"{where}{exc}")
        return out


# -- run functions: (params, built entities, grid, tol) -> (passed, summary, rows)


def _fail(p: dict, why: str) -> RunError:
    return RunError(f"task {p['name']!r}: {why}")


# entity type -> the family a task reads it as
_AS_FAMILY = {
    HerglotzRep: herglotz.as_family,
    FamilyEvaluator: herglotz.as_family,
    examples.SturmLiouvilleConfig: examples.build_family,
    examples.Ex4AConfig: lambda config: examples.build_ex4a(config).f_family,
}
_FAMILY_ENTITY = _ref(*_AS_FAMILY)


def _family(p: dict, built: dict) -> FamilyEvaluator:
    obj = built[p["entity"]]
    return _AS_FAMILY[type(obj)](obj)


def _run_classify(p, built, grid, tol):
    obj = built[p["entity"]]
    if isinstance(obj, PairEvaluator):
        cls = pcls = invariance.classify_family_pair(obj, tol)
        passed = pairs.validate(obj, grid, tol).passed
    else:
        family = _family(p, built)
        cls = herglotz.classify(family, tol, grid)
        pcls = invariance.classify_family_pair(pairs.canonical_pair(family), tol)
        passed = cls.label != herglotz.CLASS_NOT_NEV and cls.label == pcls.label
    row = {"label": cls.label, "lam_min": cls.lam_min, "kernel_dim": cls.kernel_dim,
           "pair_label": pcls.label, "pair_lam_min": pcls.lam_min,
           "rcond_phi": pcls.rcond_phi, "rcond_psi": pcls.rcond_psi}
    return passed, {"label": cls.label}, [row]


# check -> (whether it needs the operator family itself, not only a pair,
# (pair, family or None for a pair entity, a, grid, tol) -> report)
_CHECKS = {
    "point": (False, lambda pr, f, a, g, t: invariance.check_point_invariance(
        pr if f is None else f, a, g, t)),
    "imag_kernel": (True, lambda pr, f, a, g, t: invariance.check_imag_kernel_invariance(f, g, t)),
    "resolvent": (False,
                  lambda pr, f, a, g, t: invariance.check_resolvent_invariance(pr, a, g, t)),
    "boundedness": (False,
                    lambda pr, f, a, g, t: invariance.check_boundedness_invariance(pr, g, t)),
    "mul": (False, lambda pr, f, a, g, t: invariance.check_mul_invariance(pr, g, t)),
}


def _invariance_post(p, names):
    for check in p["checks"] or ():
        if _CHECKS[check][0]:
            _entity_for(p, names, tuple(_AS_FAMILY), f"check {check}")


def _run_invariance(p, built, grid, tol):
    obj = built[p["entity"]]
    family = None if isinstance(obj, PairEvaluator) else _family(p, built)
    pair = obj if family is None else pairs.canonical_pair(family)
    checks = p["checks"] or [c for c, (needs_family, _) in _CHECKS.items()
                             if family is not None or not needs_family]
    reports = [_CHECKS[c][1](pair, family, p["a"], grid, tol) for c in checks]
    rows = [{"statement": r.statement, **row} for r in reports for row in r.rows()]
    summary = {"checks": len(reports), "worst": max((r.worst for r in reports), default=0.0)}
    return all(r.passed for r in reports), summary, rows


def _run_harnack(p, built, grid, tol):
    z1, z2 = p["z1"], p["z2"]
    hp = analysis.harnack_constants(z1, z2)
    worst = analysis.certify_harnack(z1, z2)
    rows = [{"z1_re": z1.real, "z1_im": z1.imag, "z2_re": z2.real, "z2_im": z2.imag,
             "c1": hp.c1, "c2": hp.c2, "mc_worst": worst}]
    passed = worst <= analysis.HARNACK_CERTIFICATE_TOL
    if p["entity"] is not None:
        sr = analysis.form_sandwich_check(_family(p, built), grid, p["z0"])
        nan = float("nan")
        rows.append({"z1_re": sr.z0.real, "z1_im": sr.z0.imag, "z2_re": nan, "z2_im": nan,
                     "c1": nan, "c2": nan, "mc_worst": sr.worst_violation})
        passed = passed and sr.passed
    return passed, {"c1": hp.c1, "c2": hp.c2}, rows


def _rep(family: FamilyEvaluator, p: dict, what: str) -> HerglotzRep:
    if family.rep is None:
        raise _fail(p, f"{what} needs representation data")
    return family.rep


def _split(family, p, grid, tol):
    res = analysis.split_bounded_imag(family, grid)
    residual = max(res.constancy, res.hermitian_residual)
    return matnum.spectral_norm(res.t_constant), residual, res.passed


def _weak_strong(family, p, grid, tol):
    br = analysis.weak_strong_check(_rep(family, p, "weak_strong"), p["z"], tol)
    return br.worst_ratio, float(br.violations), br.passed


def _factor(family, p, grid, tol):
    br = analysis.factor_check(_rep(family, p, "factor"), p["z"], tol)
    return br.worst_ratio, float(br.violations), br.passed


def _schatten(family, p, grid, tol):
    dr = analysis.schatten_decay(family, herglotz.upper_points(grid))
    return min(dr.slopes), dr.spread, dr.passed


def _sandwich(family, p, grid, tol):
    sr = analysis.form_sandwich_check(family, grid, p["z"])
    return sr.worst_violation, sr.worst_violation, sr.passed


# (family, params, grid, tol) -> (value, residual, passed) for one report row
_ANALYSES = {
    "split": _split,
    "c2": lambda family, p, grid, tol: (analysis.c2_of(p["z"]), 0.0, True),
    "weak_strong": _weak_strong,
    "factor": _factor,
    "schatten": _schatten,
    "sandwich": _sandwich,
}


def _run_analysis(p, built, grid, tol):
    family = _family(p, built)
    rows, passed = [], True
    for what in p["analyses"]:
        value, residual, ok = _ANALYSES[what](family, p, grid, tol)
        rows.append({"analysis": what, "value": value, "residual": residual, "passed": int(ok)})
        passed = passed and ok
    return passed, {"analyses": len(rows)}, rows


DECAY_SPREAD_TOL = 0.05  # one exponent: at n = 64 the fits spread by up to 0.03 over z


def _decay(config, p, grid):
    family = examples.build_family(config)
    slopes, rows = [], []
    for z in herglotz.upper_points(grid)[:5]:
        js, s, slope = examples.decay_profile(family, z)
        slopes.append(slope)
        rows += [  # plot-ready series: j against s_j
            {"z_re": z.real, "z_im": z.imag, "j": int(j), "s_j": float(v), "slope": slope}
            for j, v in zip(js, s)
        ]
    spread = max(slopes) - min(slopes)
    return spread <= DECAY_SPREAD_TOL, {"spread": spread, "slope": slopes[0]}, rows


def _form_domain(config, p, grid):
    fr = examples.form_domain_report(examples.build_ex4a(config), grid)
    rows = [{"z_re": z.real, "z_im": z.imag, "c1": b[0], "c2": b[1],
             "gen_eig_min": e[0], "gen_eig_max": e[1]}
            for z, b, e in zip(fr.grid, fr.bounds, fr.extremes)]
    return fr.passed, {"worst": fr.worst_violation}, rows


def _gap_sweep(config, p, grid):
    rows = examples.halfline_gap_sweep(config.phi, p["a_values"], p["n_list"])
    return True, {"rows": len(rows)}, rows


def _conditioning(config, p, grid):
    ex = examples.build_ex4a(config)
    zs = herglotz.upper_points(grid)[:5]
    rows = [{"z_re": z.real, "z_im": z.imag, "rcond": rc}
            for z, rc in zip(zs, examples.solve_conditioning(ex, zs).tolist())]
    return True, {"b_min": float(ex.b.min())}, rows


_GRID, _EX4A = examples.SturmLiouvilleConfig, examples.Ex4AConfig

# report -> (entity type it needs, (config, params, grid) -> (passed, summary, rows))
_EXAMPLES = {
    "decay": (_GRID, _decay),
    "form_domain": (_EX4A, _form_domain),
    "gap_sweep": (_GRID, _gap_sweep),
    "conditioning": (_EX4A, _conditioning),
}
EXAMPLE_REPORTS = tuple(_EXAMPLES)


def _run_examples(p, built, grid, tol):
    return _EXAMPLES[p["what"]][1](built[p["entity"]], p, grid)


def _times_z(m: np.ndarray) -> FamilyEvaluator:
    """The family z M of a constant matrix M, one outer product per grid."""
    return FamilyEvaluator(len(m), None, "sweep",
                           grid_fn=lambda zs: np.multiply.outer(np.array(zs, complex), m))


# n -> the n-dimensional family of a truncation sweep
_SWEEPS = {
    "diag-inverse-k": lambda n: _times_z(np.diag(1.0 / np.arange(1, n + 1))),
    "scalar-z-identity": lambda n: _times_z(np.eye(n, dtype=complex)),
    "atomic-dyadic": lambda n: FamilyEvaluator.from_rep(
        HerglotzRep.create(
            np.zeros((n, n)), np.zeros((n, n)), [(0.0, np.diag(2.0 ** -np.arange(1, n + 1)))]
        )
    ),
}


def _run_sweep(p, built, grid, tol):
    report = invariance.sweep_continuous_spectrum(_SWEEPS[p["sequence"]], p["n_list"], grid)
    summary = {"monotone": int(report.monotone), "ratio_worst": report.ratio_worst,
               "verdict": report.decay_verdict}
    return report.passed, summary, report.rows()


_OPTIONAL_TRIALS = (_TRIALS, None)  # accepted and not read: no check samples

TASKS: dict[str, Kind] = {
    "classify": Kind(_run_classify, {"entity": (_ENTITY, _REQUIRED)}),
    "invariance": Kind(_run_invariance, {
        "entity": (_ENTITY, _REQUIRED),
        # None: every check the entity supports (all but imag_kernel for a pair)
        "checks": (_optional(_list_of(_one_of(_CHECKS))), None),
        "a": (_REAL, 0.0),
    }, post=_invariance_post),
    "harnack": Kind(_run_harnack, {
        "entity": (_optional(_FAMILY_ENTITY), None),  # adds the form sandwich against z0
        "z1": (_upper_point, 1j),
        "z2": (_upper_point, 2j),
        "z0": (_upper_point, 1j),
        "trials": _OPTIONAL_TRIALS,
    }),
    "analysis": Kind(_run_analysis, {
        "entity": (_FAMILY_ENTITY, _REQUIRED),
        "analyses": (_list_of(_one_of(_ANALYSES)), ("split",)),
        "z": (_upper_point, 1j),
        "trials": _OPTIONAL_TRIALS,
    }),
    "examples": Kind(_run_examples, {
        "entity": (_ENTITY, _REQUIRED),
        "what": (_one_of(_EXAMPLES), "decay"),
        "a_values": (_list_of(_REAL), (0.5, 2.0)),  # read by gap_sweep
        "n_list": (_list_of(_int_in(8, MAX_DIM)), (32, 64, 128)),  # read by gap_sweep
    }, post=lambda p, names: _entity_for(p, names, (_EXAMPLES[p["what"]][0],), p["what"])),
    "sweep": Kind(_run_sweep, {
        "sequence": (_one_of(_SWEEPS), _REQUIRED),
        "n_list": (_list_of(_int_in(1, MAX_DIM), min_len=2, increasing=True), _REQUIRED),
        "trials": _OPTIONAL_TRIALS,
    }),
}


# -- entities: build(params, built entities, tol) -> object; a nested pair type
# or transform step is a kind of its own, and a step also takes the pair so far


def _build_family(p, built, tol) -> FamilyEvaluator:
    rep = built[p["rep"]]
    if p["offset"] is None:
        return FamilyEvaluator.from_rep(rep)
    return FamilyEvaluator.from_rep_with_offset(rep, p["offset"], tol)


def _build_transform(p, built, tol) -> PairEvaluator:
    out = built[p["base"]]
    for step in p["steps"]:
        out = _STEPS[step["op"]].run(step, out, built, tol)
    return out


def _build_sl(p, built, tol) -> examples.SturmLiouvilleConfig:
    phi = p["phi"]
    if phi is not None:  # the name of a rep entity, or a rep body of its own
        phi = built[phi] if isinstance(phi, str) else _REP.run(phi, built, tol)
    return examples.SturmLiouvilleConfig(p["n"], phi, p["length"], p["variant"])


def _ex4a(p, *unused) -> examples.Ex4AConfig:
    return examples.Ex4AConfig(p["n"], p["b_decay"], p["c_perturbation"], p["seed"])


def _phi(value, names):
    if isinstance(value, dict):
        return _nested(_REP, value, names)
    return _ref(HerglotzRep)(value, names)


_REP = Kind(
    lambda p, built, tol: HerglotzRep.create(p["b0"], p["b1"], p["atoms"], tol),
    {"b0": (_MATRIX, _REQUIRED), "b1": (_MATRIX, _REQUIRED),
     "atoms": (_list_of(_atom, min_len=0), ())},
    makes=HerglotzRep,
)

_STEPS = {
    "shift": Kind(lambda p, pair, built, tol: pairs.transform(pair, JUnitary.shift(p["x"], tol)),
                  {"x": (_MATRIX, _REQUIRED)}),
    "scale": Kind(lambda p, pair, built, tol: pairs.transform(pair, JUnitary.scale(p["y"], tol)),
                  {"y": (_MATRIX, _REQUIRED)}),
    "flip": Kind(lambda p, pair, built, tol: pairs.transform(pair, JUnitary.flip(pair.dim)), {}),
    "junitary": Kind(
        lambda p, pair, built, tol: pairs.transform(pair, JUnitary.create(p["w"], tol)),
        {"w": (_MATRIX, _REQUIRED)}),
    "herglotz_shift": Kind(  # M must be uniformly strict
        lambda p, pair, built, tol: pairs.herglotz_shift_transform(pair, built[p["m"]], tol),
        {"m": (_ref(HerglotzRep), _REQUIRED)}),
}

_PAIRS = {
    "canonical": Kind(lambda p, built, tol: pairs.canonical_pair(built[p["family"]]),
                      {"family": (_ref(HerglotzRep, FamilyEvaluator), _REQUIRED)}),
    "constant": Kind(lambda p, built, tol: PairEvaluator.constant(p["phi"], p["psi"]),
                     {"phi": (_MATRIX, _REQUIRED), "psi": (_MATRIX, _REQUIRED)}),
    "transform": Kind(_build_transform, {
        "base": (_ref(PairEvaluator), _REQUIRED),
        "steps": (_list_of(_pick(_STEPS, "op")), _REQUIRED),
    }),
}

ENTITIES: dict[str, Kind] = {
    "herglotz_rep": _REP,
    "family": Kind(_build_family, {
        "rep": (_ref(HerglotzRep), _REQUIRED),
        "offset": (_optional(_MATRIX), None),  # Hermitian, added to the rep's values
    }, makes=FamilyEvaluator),
    "pair": Kind(lambda p, built, tol: _PAIRS[p["pair"]["type"]].run(p["pair"], built, tol),
                 {"pair": (_pick(_PAIRS, "type"), _REQUIRED)}, makes=PairEvaluator),
    "sturm_liouville": Kind(_build_sl, {
        "n": (_int_in(1, MAX_DIM), _REQUIRED),
        "variant": (_STRING, examples.VARIANT_INTERVAL),
        "length": (_REAL, 1.0),
        "phi": (_optional(_phi), None),  # None: Dirichlet-Dirichlet, no boundary coefficient
    }, post=lambda p, names: _build_sl({**p, "phi": None}, {}, None),
        makes=examples.SturmLiouvilleConfig),
    "ex4a": Kind(_ex4a, {
        "n": (_int_in(1, MAX_DIM), _REQUIRED),
        "b_decay": (_optional(_list_of(_REAL)), None),
        "c_perturbation": (_REAL, 0.0),
        "seed": (_int_in(0), 0),
    }, post=lambda p, names: _ex4a(p).b_values(), makes=examples.Ex4AConfig),
}


# -- the document: top-level fields, with every entity and task checked by the
# tables above; run builds the JobDocument


def _is_file_stem(name) -> bool:
    """Whether a task name can name report files inside the output directory."""
    return isinstance(name, str) and name != "" and not (
        name.startswith(".") or name == "summary" or any(c in name for c in "/\\\0")
    )


_ENTITY_NAME = _rule(lambda v: isinstance(v, str) and v != "", "named by a nonempty string")
_TASK_NAME = _rule(_is_file_stem, "named by a plain file stem (no '/', '\\' or NUL, "
                   "no leading '.', not 'summary')")
_FRACTION = _rule(lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
                  and 0 < v < 1, "a real in (0, 1)")
_TOLERANCES = Kind(None, {f.name: (_FRACTION, f.default) for f in fields(TolerancePolicy)})
_OUTPUT = Kind(None, {"format": (_one_of(OUTPUT_FORMATS), "both"),
                      "dir": (_optional(_STRING), None)})  # None: the command line's default

DOCUMENT = Kind(lambda p: JobDocument(**p), {
    "version": (_rule(lambda v: v == VERSION_TAG, repr(VERSION_TAG)), _REQUIRED),
    "seed": (_int_in(0), 0),
    "grid": (_grid, None),  # None: herglotz.default_grid()
    "tolerances": (lambda value, names: TolerancePolicy(**_nested(_TOLERANCES, value, names)),
                   DEFAULT_TOL),
    "entities": (_members("entities", "entity", ENTITIES, "kind", _ENTITY_NAME, record=True),
                 ()),
    "tasks": (_members("tasks", "task", TASKS, "task", _TASK_NAME), ()),
    "output": (lambda value, names: _nested(_OUTPUT, value, names), _nested(_OUTPUT, {}, {})),
})


def build_entities(doc: JobDocument) -> dict[str, object]:
    """Instantiate every declared entity, resolving references in order."""
    built: dict[str, object] = {}
    for ent in doc.entities:
        try:
            built[ent["name"]] = ENTITIES[ent["kind"]].run(ent, built, doc.tolerances)
        except (ValueError, RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
            raise RunError(f"entity {ent['name']!r}: {exc}") from exc
    return built


def run_task(
    task: dict,
    built: dict[str, object],
    doc: JobDocument,
) -> TaskReport:
    """Run one checked task of doc against the built entities."""
    grid = tuple(doc.grid) if doc.grid else herglotz.default_grid()
    passed, summary, rows = TASKS[task["task"]].run(task, built, grid, doc.tolerances)
    return TaskReport(task["name"], task["task"], passed, summary, rows)


def run_document(doc: JobDocument) -> list[TaskReport]:
    """Run tasks in declaration order; numerical failures become failed reports."""
    built = build_entities(doc)
    out = []
    for task in doc.tasks:
        try:
            out.append(run_task(task, built, doc))
        except (ValueError, RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
            out.append(
                TaskReport(task["name"], task["task"], False, {"error": str(exc)})
            )
    return out
