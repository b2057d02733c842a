"""Job-document model: the "nevlab/1" JSON format for batch verification.

A document declares named entities (representation data, families, pairs,
example configurations) and a list of verifier tasks referencing them.
Parsing validates the whole document and reports every problem found, not
just the first; matrices serialize as nested arrays of [re, im] pairs and
measure atoms as [location, matrix], which keeps files lossless and
diffable.

Every task is checked through its entry in the task table
(``runner.TASKS``), so a parsed document holds tasks whose parameters are
already typed and filled with defaults, and its tolerance policy is built
once here.  A task name must be a plain file stem, since it names the
task's report files; the grid must hold at least one point with Im z > 0.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Any

import numpy as np

from .matnum import DEFAULT_TOL, TolerancePolicy

VERSION_TAG = "nevlab/1"

ENTITY_KINDS = ("herglotz_rep", "family", "pair", "sturm_liouville", "ex4a")
PAIR_TYPES = ("canonical", "constant", "transform")
TRANSFORM_OPS = ("shift", "scale", "flip", "junitary", "herglotz_shift")
OUTPUT_FORMATS = ("json", "csv", "both")


class DocumentError(ValueError):
    """Carries the full list of validation problems of a document."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


@dataclass
class JobDocument:
    version: str
    seed: int
    grid: list[complex] | None
    tolerances: dict[str, float]
    entities: list[dict]
    tasks: list[dict]  # checked by the task table, defaults filled in
    output_format: str
    output_dir: str | None = None
    tol: TolerancePolicy = DEFAULT_TOL  # built from tolerances

    def to_json_obj(self) -> dict:
        obj: dict[str, Any] = {"version": self.version, "seed": self.seed}
        if self.grid is not None:
            obj["grid"] = [[z.real, z.imag] for z in self.grid]
        if self.tolerances:
            obj["tolerances"] = dict(self.tolerances)
        obj["entities"] = self.entities
        obj["tasks"] = [
            {k: [v.real, v.imag] if isinstance(v, complex) else v
             for k, v in task.items() if v is not None}
            for task in self.tasks
        ]
        obj["output"] = (
            {"format": self.output_format}
            if self.output_dir is None
            else {"format": self.output_format, "dir": self.output_dir}
        )
        return obj


def encode_matrix(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def decode_matrix(obj, where: str, errors: list[str]):
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError):
        errors.append(f"{where}: matrix must be nested arrays of [re, im] pairs")
        return None
    if arr.ndim != 3 or arr.shape[-1] != 2:
        errors.append(f"{where}: matrix must be nested arrays of [re, im] pairs")
        return None
    if arr.shape[0] != arr.shape[1]:
        errors.append(f"{where}: matrix must be square")
        return None
    return arr[..., 0] + 1j * arr[..., 1]


def _reject_duplicate_keys(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ValueError(f"duplicate key {key!r} in one object")
        seen[key] = value
    return seen


def real(value) -> float:
    """A finite JSON number as a float; ValueError otherwise."""
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):
        return float(value)
    raise ValueError(f"must be a finite real number, got {value!r}")


def read_json(text: str):
    """Decode document text, rejecting duplicate keys; raises DocumentError."""
    try:
        return json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            [f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from exc
    except ValueError as exc:
        raise DocumentError([str(exc)]) from exc


def parse_document(text: str) -> JobDocument:
    """Parse and validate; raises DocumentError listing all problems."""
    return validate_document(read_json(text))


def validate_document(raw) -> JobDocument:
    """Validate a decoded document; raises DocumentError listing all problems."""
    from .runner import TASKS  # imported here because runner imports this module

    if not isinstance(raw, dict):
        raise DocumentError(["document root must be an object"])
    errors: list[str] = []

    version = raw.get("version")
    if version != VERSION_TAG:
        errors.append(f"version tag must be {VERSION_TAG!r}, got {version!r}")

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        errors.append("seed must be a nonnegative integer")
        seed = 0

    grid = None
    if "grid" in raw:
        grid = []
        if not isinstance(raw["grid"], list) or not raw["grid"]:
            errors.append("grid must be a nonempty list of [re, im] pairs")
        else:
            for i, point in enumerate(raw["grid"]):
                try:
                    if not isinstance(point, list) or len(point) != 2:
                        raise ValueError
                    grid.append(complex(real(point[0]), real(point[1])))
                except ValueError:
                    errors.append(f"grid[{i}] must be an [re, im] pair of finite numbers")
            if grid and not any(z.imag > 0 for z in grid):
                errors.append("grid must contain at least one point with Im z > 0")

    tolerances = raw.get("tolerances", {})
    if not isinstance(tolerances, dict):
        errors.append("tolerances must be an object")
        tolerances = {}
    for key, value in list(tolerances.items()):
        if key not in ("eps_psd", "eps_rank", "eps_eq"):
            errors.append(f"unknown tolerance {key!r}")
        elif not isinstance(value, (int, float)) or not (0 < value < 1):
            errors.append(f"tolerance {key!r} must be a number in (0, 1)")

    entities = raw.get("entities", [])
    if not isinstance(entities, list):
        errors.append("entities must be a list")
        entities = []
    names: dict[str, int] = {}
    for i, ent in enumerate(entities):
        if not isinstance(ent, dict):
            errors.append(f"entities[{i}] must be an object")
            continue
        name = ent.get("name")
        if not isinstance(name, str) or not name:
            errors.append(f"entities[{i}] is missing a name")
            continue
        if name in names:
            errors.append(
                f"duplicate entity name {name!r} (entities[{names[name]}] and entities[{i}])"
            )
        else:
            names[name] = i
        kind = ent.get("kind")
        if kind not in ENTITY_KINDS:
            errors.append(f"entity {name!r}: unknown kind {kind!r}")
            continue
        _validate_entity(ent, names, errors)

    tasks = raw.get("tasks", [])
    if not isinstance(tasks, list):
        errors.append("tasks must be a list")
        tasks = []
    task_names: dict[str, int] = {}
    checked = []
    for i, task in enumerate(tasks):
        if not isinstance(task, dict):
            errors.append(f"tasks[{i}] must be an object")
            continue
        tname = task.get("name")
        if not isinstance(tname, str) or not tname:
            errors.append(f"tasks[{i}] is missing a name")
            tname = f"tasks[{i}]"
        elif tname in task_names:
            errors.append(f"duplicate task name {tname!r}")
        elif not _is_file_stem(tname):
            errors.append(
                f"task name {tname!r} must be a plain file stem: no '/', '\\' "
                "or leading '.', and not 'summary'"
            )
        else:
            task_names[tname] = i
        kind = task.get("task")
        if not isinstance(kind, str) or kind not in TASKS:
            errors.append(f"task {tname!r}: unknown task kind {kind!r}")
            continue
        checked.append(TASKS[kind].check(task, f"task {tname!r}", names, errors))

    output = raw.get("output", {})
    output_format, output_dir = "both", None
    if output:
        if not isinstance(output, dict):
            errors.append("output must be an object")
        else:
            output_format = output.get("format", "both")
            if output_format not in OUTPUT_FORMATS:
                errors.append(f"output format must be one of {OUTPUT_FORMATS}")
            output_dir = output.get("dir")
            if output_dir is not None and not isinstance(output_dir, str):
                errors.append("output dir must be a string path")

    unknown = set(raw) - {"version", "seed", "grid", "tolerances", "entities", "tasks", "output"}
    for key in sorted(unknown):
        errors.append(f"unknown top-level key {key!r}")

    if errors:
        raise DocumentError(errors)
    return JobDocument(
        version, seed, grid, dict(tolerances), entities, checked,
        output_format, output_dir, TolerancePolicy(**tolerances),
    )


def _is_file_stem(name: str) -> bool:
    """Whether a task name can name report files inside the output directory."""
    return not (
        name.startswith(".") or name == "summary" or any(c in name for c in "/\\\0")
    )


def _validate_matrix_field(ent, key, where, errors, required=True):
    if key not in ent:
        if required:
            errors.append(f"{where}: missing matrix field {key!r}")
        return
    decode_matrix(ent[key], f"{where}.{key}", errors)


def _validate_rep_body(ent, where, errors):
    _validate_matrix_field(ent, "b0", where, errors)
    _validate_matrix_field(ent, "b1", where, errors)
    atoms = ent.get("atoms", [])
    if not isinstance(atoms, list):
        errors.append(f"{where}: atoms must be a list of [t, matrix]")
        return
    for k, atom in enumerate(atoms):
        if not isinstance(atom, list) or len(atom) != 2 or not isinstance(atom[0], (int, float)):
            errors.append(f"{where}.atoms[{k}] must be a [t, matrix] pair")
        else:
            decode_matrix(atom[1], f"{where}.atoms[{k}]", errors)


def _validate_entity(ent: dict, names: dict[str, int], errors: list[str]) -> None:
    name, kind = ent["name"], ent["kind"]
    where = f"entity {name!r}"
    if kind == "herglotz_rep":
        _validate_rep_body(ent, where, errors)
    elif kind == "family":
        ref = ent.get("rep")
        if not isinstance(ref, str):
            errors.append(f"{where}: needs a 'rep' entity reference")
        elif ref not in names:
            errors.append(f"{where}: dangling reference to entity {ref!r}")
        if "offset" in ent and ent["offset"] is not None:
            decode_matrix(ent["offset"], f"{where}.offset", errors)
    elif kind == "pair":
        spec = ent.get("pair")
        if not isinstance(spec, dict):
            errors.append(f"{where}: needs a 'pair' object")
            return
        ptype = spec.get("type")
        if ptype not in PAIR_TYPES:
            errors.append(f"{where}: unknown pair type {ptype!r}")
            return
        if ptype == "canonical":
            ref = spec.get("family")
            if not isinstance(ref, str) or ref not in names:
                errors.append(f"{where}: dangling reference to family {spec.get('family')!r}")
        elif ptype == "constant":
            _validate_matrix_field(spec, "phi", where, errors)
            _validate_matrix_field(spec, "psi", where, errors)
        else:
            ref = spec.get("base")
            if not isinstance(ref, str) or ref not in names:
                errors.append(f"{where}: dangling reference to base pair {spec.get('base')!r}")
            steps = spec.get("steps", [])
            if not isinstance(steps, list) or not steps:
                errors.append(f"{where}: transform needs a nonempty 'steps' list")
                return
            for k, step in enumerate(steps):
                op = step.get("op") if isinstance(step, dict) else None
                if op not in TRANSFORM_OPS:
                    errors.append(f"{where}.steps[{k}]: unknown op {op!r}")
                elif op == "shift":
                    _validate_matrix_field(step, "x", f"{where}.steps[{k}]", errors)
                elif op == "scale":
                    _validate_matrix_field(step, "y", f"{where}.steps[{k}]", errors)
                elif op == "junitary":
                    _validate_matrix_field(step, "w", f"{where}.steps[{k}]", errors)
                elif op == "herglotz_shift":
                    ref = step.get("m")
                    if not isinstance(ref, str) or ref not in names:
                        errors.append(
                            f"{where}.steps[{k}]: dangling reference to entity {step.get('m')!r}"
                        )
    elif kind == "sturm_liouville":
        if not isinstance(ent.get("n"), int) or ent.get("n", 0) < 8:
            errors.append(f"{where}: n must be an integer >= 8")
        variant = ent.get("variant", "dissipative-interval")
        if variant not in ("halfline-robin", "dissipative-interval", "dissipative-halfline"):
            errors.append(f"{where}: unknown variant {variant!r}")
        if "length" in ent and (
            not isinstance(ent["length"], (int, float)) or ent["length"] <= 0
        ):
            errors.append(f"{where}: length must be positive")
        phi = ent.get("phi")
        if isinstance(phi, str):
            if phi not in names:
                errors.append(f"{where}: dangling reference to phi entity {phi!r}")
        elif isinstance(phi, dict):
            _validate_rep_body(phi, f"{where}.phi", errors)
        elif phi is not None:
            errors.append(f"{where}: phi must be an entity name, a rep object or null")
    elif kind == "ex4a":
        if not isinstance(ent.get("n"), int) or ent.get("n", 0) < 1:
            errors.append(f"{where}: n must be a positive integer")
        scale = ent.get("c_perturbation", 0.0)
        if not isinstance(scale, (int, float)) or not (0 <= scale < 0.9):
            errors.append(f"{where}: c_perturbation must lie in [0, 0.9)")
        bd = ent.get("b_decay")
        if bd is not None and not _is_decay_list(bd, ent.get("n")):
            errors.append(f"{where}: b_decay must be n positive, strictly decreasing numbers")


def _is_decay_list(bd, n) -> bool:
    try:
        values = [real(v) for v in bd] if isinstance(bd, list) else []
    except ValueError:
        return False
    decreasing = all(b < a for a, b in zip(values, values[1:]))
    return len(values) == n and min(values, default=0.0) > 0 and decreasing


def serialize_document(doc: JobDocument) -> str:
    return json.dumps(doc.to_json_obj(), indent=2, sort_keys=True) + "\n"
