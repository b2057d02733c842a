"""Job-document model: the "nevlab/1" JSON format for batch verification.

A document declares named entities (representation data, families, pairs,
example configurations) and a list of verifier tasks referencing them.
Parsing validates the whole document and reports every problem found, not
just the first; matrices are written as nested arrays of [re, im] pairs
and measure atoms as [location, matrix], which keeps files lossless and
diffable.

One table checks the whole document: ``runner.DOCUMENT`` gives each
top-level field one rule and one default, and checks every entity and
every task through its entry in the entity or task table
(``runner.ENTITIES``, ``runner.TASKS``).  A parsed entity holds decoded,
finite, square matrices and typed numbers, and a parsed task typed
parameters, all with defaults filled in; the tolerance policy is built
once here.  An entity may reference only entities declared before it,
each of the kind its parameter names.  A task name must be a plain file
stem, since it names the task's report files; the grid must hold at
least one point with Im z > 0.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np

from . import matnum
from .matnum import TolerancePolicy

VERSION_TAG = "nevlab/1"

OUTPUT_FORMATS = ("json", "csv", "both")


class DocumentError(ValueError):
    """Carries the full list of validation problems of a document."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


@dataclass
class JobDocument:
    """A checked document: each top-level field, with its default filled in."""

    version: str
    seed: int
    grid: tuple[complex, ...] | None  # None: herglotz.default_grid()
    tolerances: TolerancePolicy
    entities: list[dict]  # checked by the entity table, defaults filled in
    tasks: list[dict]  # checked by the task table, defaults filled in
    output: dict  # format, and dir (None: the command line's default)


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
    return matnum.as_matrix(arr[..., 0] + 1j * arr[..., 1])


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
    from .runner import DOCUMENT  # imported here: runner imports this module

    if not isinstance(raw, dict):
        raise DocumentError(["document root must be an object"])
    errors: list[str] = []
    params = DOCUMENT.check(raw, "", {}, errors)
    if errors:
        raise DocumentError(errors)
    return DOCUMENT.run(params)

