"""cli-docs: ``nevlab run`` on job documents, in process.

The stream is the bundled demo document, then seeded generated documents.
Each generated document declares 2-4 representations, a family with a
Hermitian offset, its canonical pair, a transform-chain pair, a
Sturm-Liouville configuration at n = 64 and a decaying-diagonal example at
n = 16, and runs tasks of every kind against them.  One document in ten
adds a task built to fail (a sweep over z I, which does not decay: exit 1)
and one in ten is malformed (a dangling entity reference: exit 2).

Generated documents stay clear of the inputs whose verdict depends on how
the known validation gaps get closed: no classify task on a pair, no
imaginary-kernel check on a pair, plain task names, only off-axis grid
points, numeric trials and strictly decreasing b_decay lists.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

from nevlab import cli
from randmat import atom_locations, cgauss, hermitian, psd, upper

STREAM_LENGTH = 101  # the demo and ten blocks of ten; the timed loop cycles
TRACE_UNITS = 10
WARMUP_UNITS = 3

ALL_CHECKS = ["point", "imag_kernel", "resolvent", "boundedness", "mul"]
PAIR_CHECKS = ["point", "resolvent", "boundedness", "mul"]  # imag_kernel needs a family


def _matrix(m) -> list:
    """The document's [re, im] encoding, kept here so inputs do not depend on nevlab."""
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _point(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _junitary(rng, dim):
    """exp of a J-skew generator, J = [[0, -i], [i, 0]]: a J-unitary matrix."""
    from scipy.linalg import expm

    a = cgauss(rng, dim, dim)
    gen = np.block([[a, hermitian(rng, dim)], [hermitian(rng, dim), -a.conj().T]])
    return expm(0.5 * gen / max(1.0, np.linalg.norm(gen, 2)))


def make_document(rng, planted: bool, malformed: bool, doc_grid: bool) -> dict:
    entities, tasks = [], []
    dims = []
    for k in range(int(rng.integers(2, 5))):
        dim = int(rng.integers(2, 5))
        dims.append(dim)
        locs = atom_locations(rng, int(rng.integers(1, 4)))
        entities.append({
            "name": f"r{k}", "kind": "herglotz_rep",
            "b0": _matrix(hermitian(rng, dim)),
            "b1": _matrix(psd(rng, dim, 0.5) + 0.3 * np.eye(dim)),
            "atoms": [[float(t), _matrix(psd(rng, dim, 0.7))] for t in locs],
        })
    dim = dims[0]
    entities += [
        {"name": "fam", "kind": "family", "rep": "r0",
         "offset": _matrix(hermitian(rng, dim))},
        {"name": "p", "kind": "pair", "pair": {"type": "canonical", "family": "fam"}},
        {"name": "pt", "kind": "pair", "pair": {
            "type": "transform", "base": "p",
            "steps": [{"op": "shift", "x": _matrix(hermitian(rng, dim))},
                      {"op": "flip"},
                      {"op": "junitary", "w": _matrix(_junitary(rng, dim))}]}},
        {"name": "sl", "kind": "sturm_liouville", "n": 64, "length": 1.0,
         "variant": "dissipative-interval",
         "phi": {"b0": [[[0.0, 0.0]]], "b1": [[[float(rng.uniform(0.3, 1.0)), 0.0]]],
                 "atoms": []}},
    ]
    ex = {"name": "ex", "kind": "ex4a", "n": 16,
          "c_perturbation": float(rng.uniform(0.0, 0.5)), "seed": int(rng.integers(0, 1000))}
    if rng.uniform() < 0.5:
        ex["b_decay"] = [float(v) for v in np.sort(rng.uniform(0.01, 1.0, 16))[::-1]]
    entities.append(ex)

    trials = int(rng.integers(50, 201))
    tasks += [
        {"name": "classify-fam", "task": "classify", "entity": "fam"},
        {"name": "classify-r1", "task": "classify", "entity": "r1"},
        {"name": "invariance-fam", "task": "invariance", "entity": "fam",
         "a": float(rng.uniform(-3, 3)), "checks": ALL_CHECKS},
        {"name": "invariance-pt", "task": "invariance", "entity": "pt",
         "a": float(rng.uniform(-3, 3)), "checks": PAIR_CHECKS},
        {"name": "harnack-fam", "task": "harnack", "entity": "fam",
         "z1": _point(upper(rng)), "z2": _point(upper(rng)), "trials": trials},
        {"name": "analysis-fam", "task": "analysis", "entity": "fam",
         "analyses": ["split", "c2", "weak_strong", "factor", "sandwich"],
         "z": _point(upper(rng)), "trials": trials},
        {"name": "decay-sl", "task": "examples", "entity": "sl", "what": "decay"},
        {"name": "form-domain-ex", "task": "examples", "entity": "ex",
         "what": "form_domain"},
        {"name": "conditioning-ex", "task": "examples", "entity": "ex",
         "what": "conditioning"},
        {"name": "gap-sweep-sl", "task": "examples", "entity": "sl", "what": "gap_sweep",
         "a_values": [0.5, 2.0], "n_list": [16, 32]},
        {"name": "sweep-diag", "task": "sweep", "sequence": "diag-inverse-k",
         "n_list": [8, 16, 32], "trials": trials},
    ]
    expected_tasks = {t["name"]: True for t in tasks}
    if planted:
        tasks.append({"name": "sweep-flat", "task": "sweep",
                      "sequence": "scalar-z-identity", "n_list": [8, 16, 32],
                      "trials": trials})
        expected_tasks["sweep-flat"] = False
    if malformed:
        tasks.append({"name": "classify-missing", "task": "classify", "entity": "missing"})
    doc = {"version": "nevlab/1", "seed": int(rng.integers(0, 2**31)),
           "entities": entities, "tasks": tasks, "output": {"format": "both"}}
    if doc_grid:  # conjugate pairs of upper points instead of the 30-point default
        points = [upper(rng) for _ in range(int(rng.integers(4, 9)))]
        doc["grid"] = [_point(z) for z in points] + [_point(z.conjugate()) for z in points]
    if malformed:
        return {"doc": doc, "expected": {"exit": 2, "tasks": {}}}
    return {"doc": doc, "expected": {"exit": 1 if planted else 0, "tasks": expected_tasks}}


def make_inputs(seed: int, count: int = STREAM_LENGTH, stream: int = 0) -> list[dict]:
    """The demo document, then generated ones in seeded blocks of ten.

    Each block holds one planted failure, one malformed document and one
    document with its own smaller grid.  A fixed mix keeps the median unit
    well inside the band of default-grid documents (at about its 40th
    percentile) instead of near the edge between the two grid sizes, where
    it would jump from seed to seed.
    """
    rng = np.random.default_rng([seed, stream])
    units = []
    if stream == 0:
        demo = json.loads(cli.demo_document_text())
        units.append({"doc": demo, "expected": {
            "exit": 0, "tasks": {t["name"]: True for t in demo["tasks"]}}})
    while len(units) < count:
        for slot in rng.permutation(10):
            units.append(make_document(rng, planted=(slot == 0), malformed=(slot == 1),
                                       doc_grid=(slot == 2)))
    return units[:count]


def write_inputs(units: list[dict], directory: Path) -> None:
    """Write each document to its own file; the units then see only the paths."""
    directory.mkdir(parents=True, exist_ok=True)
    for k, unit in enumerate(units):
        path = directory / f"doc{k:04d}.json"
        path.write_text(json.dumps(unit.pop("doc"), indent=1))
        unit["path"] = str(path)
        unit["out_root"] = str(directory)


def run_unit(unit: dict) -> dict:
    out = Path(tempfile.mkdtemp(prefix="out", dir=unit["out_root"]))
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(["run", unit["path"], "--out", str(out), "--format", "both"])
    summary = out / "summary.json"
    tasks = {}
    if summary.exists():
        tasks = {t["name"]: t["passed"] for t in json.loads(summary.read_text())["tasks"]}
    return {"exit": code, "tasks": tasks}
