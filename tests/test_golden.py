"""Each golden job of tests/golden/regen.py against its golden reports.

The jobs are ``nevlab demo`` (tests/golden/demo/) and the document
tests/golden/kinds.json (tests/golden/kinds/).  File names, the exit
code, verdicts, integers and strings must match exactly.  Floats must
agree within 1e-12 relative; values at round-off level (a residual of a
few ulps) may differ by 1e-14 absolutely, since another BLAS rounds them
differently.  On the host recorded in tests/golden/host.json (numpy
version, BLAS and LAPACK name and version) every file must match byte for
byte.  ``tests/golden/regen.py`` rewrites the golden files and the record.
"""

import importlib.util
import json
import math
from pathlib import Path

from nevlab import cli

GOLDEN_ROOT = Path(__file__).resolve().parent / "golden"
_regen = importlib.util.spec_from_file_location("golden_regen", GOLDEN_ROOT / "regen.py")
regen = importlib.util.module_from_spec(_regen)
_regen.loader.exec_module(regen)
REL, ABS = 1e-12, 1e-14
RECORDED_HOST = json.loads((GOLDEN_ROOT / "host.json").read_text()) == regen.host()


def _same(got, want, where: str) -> None:
    if isinstance(want, float) and not isinstance(got, bool):
        assert isinstance(got, float) and math.isclose(got, want, rel_tol=REL, abs_tol=ABS), \
            f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), f"{where}: keys differ"
        for key in want:
            _same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: lengths differ"
        for k, (g, w) in enumerate(zip(got, want)):
            _same(g, w, f"{where}[{k}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def _cell(text: str):
    """A CSV cell as the report wrote it: an int, a float, or a string (nan included)."""
    for kind in (int, float):
        try:
            value = kind(text)
        except ValueError:
            continue
        return value if math.isfinite(value) else text
    return text


def _matches_golden(tmp_path, job: str) -> None:
    golden, out = GOLDEN_ROOT / job, tmp_path / job
    code = cli.main(regen.JOBS[job] + ["--out", str(out)])
    names = sorted(p.name for p in golden.iterdir())
    assert sorted(p.name for p in out.iterdir()) == names
    summary = json.loads((golden / "summary.json").read_text())
    assert code == (0 if summary["passed"] else 1)
    for name in names:
        got, want = (out / name).read_text(), (golden / name).read_text()
        if name.endswith(".json"):
            _same(json.loads(got), json.loads(want), name)
        else:
            rows_got, rows_want = got.splitlines(), want.splitlines()
            assert len(rows_got) == len(rows_want), name
            for k, (g, w) in enumerate(zip(rows_got, rows_want)):
                _same([_cell(c) for c in g.split(",")], [_cell(c) for c in w.split(",")],
                      f"{name}:{k + 1}")
        if RECORDED_HOST:
            assert (out / name).read_bytes() == (golden / name).read_bytes(), name


def test_demo_matches_golden_reports(tmp_path):
    _matches_golden(tmp_path, "demo")


def test_kinds_document_matches_golden_reports(tmp_path):
    """Classify on a representation and on pairs, invariance on a transform chain,
    the sandwich and schatten analyses, conditioning, gap_sweep and two more sweeps."""
    _matches_golden(tmp_path, "kinds")
