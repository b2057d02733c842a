"""Job-document model: the "nevlab/1" JSON format for batch verification.

A document declares named entities (representation data, families, pairs,
example configurations) and a list of verifier tasks referencing them.
Parsing validates the whole document and reports every problem found, not
just the first; matrices serialize as nested arrays of [re, im] pairs and
measure atoms as [location, matrix], which keeps files lossless and
diffable.

Every entity and every task is checked through its entry in the entity or
task table (``runner.ENTITIES``, ``runner.TASKS``).  A parsed entity holds
decoded, finite, square matrices and typed numbers, and a parsed task
typed parameters, all with defaults filled in; the tolerance policy is
built once here.  An entity may reference only entities declared before
it, each of the kind its parameter names.  A task name must be a plain
file stem, since it names the task's report files; the grid must hold at
least one point with Im z > 0.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Any

import numpy as np

from .matnum import DEFAULT_TOL, TolerancePolicy

VERSION_TAG = "nevlab/1"

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
    entities: list[dict]  # checked by the entity table, defaults filled in
    tasks: list[dict]  # checked by the task table, defaults filled in
    output_format: str
    output_dir: str | None = None
    tol: TolerancePolicy = DEFAULT_TOL  # built from tolerances

    def to_json_obj(self) -> dict:
        obj: dict[str, Any] = {"version": self.version, "seed": self.seed}
        if self.grid is not None:
            obj["grid"] = _encode(self.grid)
        if self.tolerances:
            obj["tolerances"] = dict(self.tolerances)
        obj["entities"] = _encode(self.entities)
        obj["tasks"] = _encode(self.tasks)
        obj["output"] = (
            {"format": self.output_format}
            if self.output_dir is None
            else {"format": self.output_format, "dir": self.output_dir}
        )
        return obj


def _encode(value):
    """Checked values as JSON data; None-valued keys (absent options) are dropped."""
    if isinstance(value, np.ndarray):
        return encode_matrix(value)
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items() if v is not None}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return value


def encode_matrix(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def decode_matrix(obj) -> np.ndarray:
    """A square matrix from nested arrays of [re, im] pairs; ValueError otherwise."""
    try:
        arr = np.asarray(obj)
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf" or arr.ndim != 3 or arr.shape[-1] != 2:
        raise ValueError("must be a matrix: nested arrays of [re, im] pairs of numbers")
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"must be a square matrix, got {arr.shape[0]} x {arr.shape[1]}")
    arr = arr.astype(float)
    if not np.isfinite(arr).all():
        raise ValueError("must hold finite numbers only")
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
    from .runner import ENTITIES, TASKS  # imported here: runner imports this module

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
    names: dict[str, Any] = {}  # entity name -> kind, in declaration order
    checked_entities = []
    for i, ent in enumerate(entities):
        if not isinstance(ent, dict):
            errors.append(f"entities[{i}] must be an object")
            continue
        name = ent.get("name")
        if not isinstance(name, str) or not name:
            errors.append(f"entities[{i}] is missing a name")
            continue
        kind = ent.get("kind")
        if isinstance(kind, str) and kind in ENTITIES:
            checked_entities.append(
                ENTITIES[kind].check(ent, f"entity {name!r}: ", names, errors, ("name", "kind"))
            )
        else:
            errors.append(f"entity {name!r}: unknown kind {kind!r}")
        if name in names:
            first = next(j for j, e in enumerate(entities[:i])
                         if isinstance(e, dict) and e.get("name") == name)
            errors.append(f"duplicate entity name {name!r} (entities[{first}] and entities[{i}])")
        else:
            names[name] = kind

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
        where = f"task {tname!r}: "
        checked.append(TASKS[kind].check(task, where, names, errors, ("name", "task")))

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
        version, seed, grid, dict(tolerances), checked_entities, checked,
        output_format, output_dir, TolerancePolicy(**tolerances),
    )


def _is_file_stem(name: str) -> bool:
    """Whether a task name can name report files inside the output directory."""
    return not (
        name.startswith(".") or name == "summary" or any(c in name for c in "/\\\0")
    )


def serialize_document(doc: JobDocument) -> str:
    return json.dumps(doc.to_json_obj(), indent=2, sort_keys=True) + "\n"
