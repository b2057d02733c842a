"""Regenerate the golden reports under tests/golden/.

Two jobs have golden reports: ``nevlab demo`` in tests/golden/demo/, and
the document tests/golden/kinds.json, which reaches the task kinds and
sweep sequences the demo does not, in tests/golden/kinds/.  Run from the
repository root:

    PYTHONPATH=src python tests/golden/regen.py

It also records the host in tests/golden/host.json: the numpy version and
the name and version of the BLAS and LAPACK numpy was built against.
``tests/test_golden.py`` compares fresh runs against these files, byte for
byte on a host that matches that record.  A change that regenerates them
says why in CHANGES.md, with what this script prints for each file it
rewrites: whether its bytes changed and the largest relative change of any
number against the file it replaced.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# report directory -> the nevlab command line that writes it (--out follows)
JOBS = {
    "demo": ["demo"],
    "kinds": ["run", str(HERE / "kinds.json")],
}


def host() -> dict:
    """The numpy version and the BLAS and LAPACK it was built against, by name and version."""
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):  # a numpy before 1.26 only prints its configuration
        deps = {}
    return {"numpy": np.__version__,
            **{lib: {key: deps.get(lib, {}).get(key) for key in ("name", "version")}
               for lib in ("blas", "lapack")}}


def _leaves(text: str, name: str) -> list:
    """The values of a report file in reading order: JSON leaves, or CSV cells, numbers as float."""
    if name.endswith(".json"):
        out: list = []

        def walk(value) -> None:
            if isinstance(value, (dict, list)):
                for item in value.values() if isinstance(value, dict) else value:
                    walk(item)
            else:
                number = isinstance(value, (int, float)) and not isinstance(value, bool)
                out.append(float(value) if number else value)

        walk(json.loads(text))
        return out
    return [_number(cell) for line in text.splitlines() for cell in line.split(",")]


def _number(cell: str):
    """A CSV cell as a float if it reads as a number, else as it is."""
    try:
        return float(cell)
    except ValueError:
        return cell


def moved(old: bytes, new: bytes, name: str) -> str:
    """What a rewrite changed in one report file, as one line."""
    if old == new:
        return "bytes unchanged"
    a, b = _leaves(old.decode(), name), _leaves(new.decode(), name)
    if len(a) != len(b):
        return "bytes changed; layout changed"
    worst, other = 0.0, False
    for x, y in zip(a, b):
        if isinstance(x, float) and isinstance(y, float) and math.isfinite(x) and math.isfinite(y):
            if x != y:
                worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
        elif x != y and repr(x) != repr(y):
            other = True
    return (f"bytes changed; largest relative change of a number {worst:.2g}"
            + ("; other values changed" if other else ""))


def main() -> int:
    from nevlab import cli

    for name, argv in JOBS.items():
        out = HERE / name
        before = {p.name: p.read_bytes() for p in out.iterdir()} if out.is_dir() else {}
        shutil.rmtree(out, ignore_errors=True)
        code = cli.main(argv + ["--out", str(out)])
        print(f"nevlab {argv[0]} exited {code}; reports in {out}")
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        for file in sorted(before.keys() | after.keys()):
            what = ("new file" if file not in before else "removed" if file not in after
                    else moved(before[file], after[file], file))
            print(f"  {name}/{file}: {what}")
    (HERE / "host.json").write_text(json.dumps(host(), indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
