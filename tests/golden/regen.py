"""Regenerate the golden reports under tests/golden/.

Two jobs have golden reports: ``nevlab demo`` in tests/golden/demo/, and
the document tests/golden/kinds.json, which reaches the task kinds and
sweep sequences the demo does not, in tests/golden/kinds/.  Run from the
repository root:

    PYTHONPATH=src python tests/golden/regen.py

``tests/test_golden.py`` compares fresh runs against these files.  A
change that regenerates them says why in CHANGES.md.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# report directory -> the nevlab command line that writes it (--out follows)
JOBS = {
    "demo": ["demo"],
    "kinds": ["run", str(HERE / "kinds.json")],
}


def main() -> int:
    from nevlab import cli

    for name, argv in JOBS.items():
        out = HERE / name
        shutil.rmtree(out, ignore_errors=True)
        code = cli.main(argv + ["--out", str(out)])
        print(f"nevlab {argv[0]} exited {code}; reports in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
