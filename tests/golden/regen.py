"""Regenerate the golden reports of ``nevlab demo`` under tests/golden/demo/.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regen.py

``tests/test_golden.py`` compares a fresh demo run against these files.  A
change that regenerates them says why in CHANGES.md.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "demo"


def main() -> int:
    from nevlab import cli

    shutil.rmtree(GOLDEN, ignore_errors=True)
    code = cli.main(["demo", "--out", str(GOLDEN)])
    print(f"nevlab demo exited {code}; reports in {GOLDEN}")
    return code


if __name__ == "__main__":
    sys.exit(main())
